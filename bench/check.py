"""Known-answer checking that does not trust the program.

Each CLI answer is classified by its JSON ``kind``/``verdict`` field and
the exit code only.  Every Yes or NecessaryConditionsPass witness in the
output is re-verified here with plain-int products, ``P.T A P == k B``,
against the matrices the benchmark itself wrote, and, for highly connected
8-manifolds, against the attaching-data condition computed by ``gen.induced``.
A No on an instance the generator built with a witness is a wrong verdict,
and so is a Yes on an instance with a cited complete No argument.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from gen import Manifold, Query, congruent, induced, scaled

DECIDED = ("yes", "no", "necessary_pass")
EXIT_OK, EXIT_ERROR, EXIT_UNKNOWN = 0, 1, 2


@dataclass
class Outcome:
    """What one CLI query contributed to the run's counts."""

    verdicts: int = 0
    decided: int = 0
    wrong: list = field(default_factory=list)
    error: str | None = None
    witnessless_yes: int = 0


def matrix_of(doc: dict) -> list:
    rows, cols = int(doc["rows"]), int(doc["cols"])
    entries = [int(x) for x in doc["entries"]]
    if len(entries) != rows * cols:
        raise ValueError("entry count does not match the shape")
    return [entries[i * cols:(i + 1) * cols] for i in range(rows)]


def det(m: list) -> int:
    """Fraction-free Bareiss elimination."""
    a = [row[:] for row in m]
    n = len(a)
    sign, prev = 1, 1
    for i in range(n):
        if a[i][i] == 0:
            swap = next((r for r in range(i + 1, n) if a[r][i] != 0), None)
            if swap is None:
                return 0
            a[i], a[swap] = a[swap], a[i]
            sign = -sign
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                a[r][c] = (a[r][c] * a[i][i] - a[r][i] * a[i][c]) // prev
        prev = a[i][i]
    return sign * a[n - 1][n - 1] if n else 1


def witness_problem(source: Manifold, target: Manifold, k: int, p: list) -> str | None:
    """None when p is a valid degree-k witness, else what is wrong with it."""
    a, b = source.matrix, target.matrix
    if len(p) != len(a) or any(len(row) != len(b) for row in p):
        return "witness has the wrong shape"
    if congruent(a, p) != scaled(b, k):
        return "P.T A P != k B"
    if source.data is not None and target.data is not None:
        want = [
            (k * nu, tuple(k * t % d for t, d in zip(tor, source.pi["orders"])))
            for nu, tor in target.data
        ]
        if induced(a, source.data, source.pi, p) != want:
            return "attaching data condition fails"
    return None


def _verdict(out: Outcome, q: Query, k: int, kind: str, witness_doc,
             source: Manifold, target: Manifold, witness_optional=False):
    out.verdicts += 1
    if kind not in DECIDED + ("unknown",):
        out.error = f"unrecognised verdict kind {kind!r}"
        return
    if kind in DECIDED:
        out.decided += 1
    expected = q.expect.get(k)
    where = f"{q.label} k={k}"
    if kind in ("yes", "necessary_pass"):
        if expected == "no":
            out.wrong.append(f"{where}: {kind} contradicts No ({q.why_no.get(k)})")
        if witness_doc is None:
            if witness_optional:
                out.witnessless_yes += 1
            else:
                out.wrong.append(f"{where}: {kind} without a witness")
            return
        problem = witness_problem(source, target, k, matrix_of(witness_doc))
        if problem:
            out.wrong.append(f"{where}: {problem}")
    elif kind == "no" and expected == "yes":
        out.wrong.append(f"{where}: No on an instance with a constructed witness")


def _exit_matches(out: Outcome, code: int, any_unknown: bool):
    want = EXIT_UNKNOWN if any_unknown else EXIT_OK
    if code != want:
        out.error = f"exit code {code}, expected {want}"


def check(q: Query, code: int, stdout: str) -> Outcome:
    out = Outcome()
    if code == EXIT_ERROR:
        out.error = "exit code 1"
        return out
    try:
        doc = json.loads(stdout)
        _CHECKERS[q.command](out, q, code, doc)
    except (ValueError, KeyError, TypeError) as exc:
        out.error = f"unreadable output: {type(exc).__name__}: {exc}"
    return out


def _check_solve(out, q, code, doc):
    _verdict(out, q, q.k, doc["verdict"], doc.get("witness"), q.source, q.target)
    _exit_matches(out, code, doc["verdict"] == "unknown")


def _check_degset(out, q, code, doc):
    bound = int(q.argv[q.argv.index("--range") + 1])
    ks = [int(a["k"]) for a in doc["answers"]]
    if ks != [k for k in range(-bound, bound + 1) if k]:
        out.error = f"degree set lists degrees {ks}"
        return
    for a in doc["answers"]:
        _verdict(out, q, int(a["k"]), a["kind"], a.get("witness"), q.source, q.target)
    _exit_matches(out, code, any(a["kind"] == "unknown" for a in doc["answers"]))


def _check_deg1(out, q, code, doc):
    _verdict(out, q, 1, doc["verdict"], doc.get("witness"), q.source, q.target)
    _exit_matches(out, code, doc["verdict"] == "unknown")
    if doc["verdict"] == "yes":
        comp = matrix_of(doc["complement"])
        if len(comp) != q.extra["complement_rank"] or det(comp) not in (1, -1):
            out.wrong.append(f"{q.label}: complement is not unimodular of the right rank")


def _check_selfmap(out, q, code, doc):
    degree = int(doc["degree"])
    if degree != q.k * q.k:
        out.wrong.append(f"{q.label}: degree {degree} for k={q.k}")
    _verdict(out, q, degree, "yes", doc.get("witness"), q.source, q.source)
    _exit_matches(out, code, False)


def _check_form_info(out, q, code, doc):
    m = q.source.matrix
    facts = {"rank": len(m), "determinant": det(m)}
    facts.update(q.extra)
    for key, want in facts.items():
        if doc.get(key) != want:
            out.wrong.append(f"{q.label}: {key} {doc.get(key)!r}, expected {want!r}")
    _exit_matches(out, code, False)


def _check_form_iso(out, q, code, doc):
    _verdict(out, q, 1, doc["verdict"], doc.get("witness"), q.source, q.target,
             witness_optional=True)
    _exit_matches(out, code, False)


def _check_dominate(out, q, code, doc):
    catalog = q.extra["catalog"]
    src = q.source.matrix
    seen = []
    for entry in doc["dominated"]:
        name, k = entry["target"], int(entry["k"])
        seen.append(name)
        _verdict(out, q, k, "yes", entry.get("witness"), q.source,
                 Manifold(catalog[name]))
    for entry in doc["necessary_only"]:
        seen.append(entry["target"])
        out.verdicts += 1
        out.decided += 1
    for name in doc["excluded_by_rank"]:
        seen.append(name)
        out.verdicts += 1
        out.decided += 1
        if len(catalog[name]) <= len(src):
            out.wrong.append(f"{q.label}: {name} excluded by rank")
    for name in doc["undecided"]:
        seen.append(name)
        out.verdicts += 1
    if sorted(seen) != sorted(catalog):
        out.error = f"dominance report covers {sorted(seen)}"
    _exit_matches(out, code, False)


_CHECKERS = {
    "solve": _check_solve,
    "degset": _check_degset,
    "deg1": _check_deg1,
    "selfmap": _check_selfmap,
    "form-info": _check_form_info,
    "form-iso": _check_form_iso,
    "dominate": _check_dominate,
}
