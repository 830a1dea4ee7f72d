"""Command-line surface.

Each subcommand answers one query and exits 0 on a decisive answer
(Yes or No), 2 when a verdict is Unknown, and 1 on usage or validation
errors, malformed or unreadable input files included.  ``--json``
switches from the human-readable table to a structured document with
the same fields.
This module is the only place that renders results: the library returns
plain data (``Verdict`` and the degree-set and dominance reports).

Matrices are given as preset names or as ``@path`` arguments.  A ``.json``
path holds a structured document; any other path holds the plain text
format (first line "rows cols", then the rows).  Plain matrices passed
where a manifold is expected are wrapped as simply connected 4-manifold
data; use the JSON form to control dimension and flags.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import __version__
from .catalog import (
    ManifoldModel,
    fixed_presets,
    manifold,
    manifold_from_doc,
    manifold_to_doc,
    preset,
)
from .degsets import (
    DegreeSetReport,
    DominanceReport,
    degree_one_summand,
    degree_set,
    dominated_candidates,
    selfmap_square,
)
from .errors import DegmapError, ShapeMismatch
from .homotopy import elements_from_doc, model_from_doc
from .intform import (
    SYMMETRIC,
    IntersectionForm,
    IntMatrix,
    infer_symmetry,
    make_form,
    matrix_from_doc,
    matrix_to_doc,
    parse_matrix_text,
)
from .solver import SearchConfig, Verdict, congruence_solve, isomorphic

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNKNOWN = 2


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ShapeMismatch(f"{path} is not a text file: {exc}") from exc


def _load_doc(path: str) -> dict:
    try:
        doc = json.loads(_read_text(path))
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and over-long integer literals
        raise ShapeMismatch(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ShapeMismatch(f"{path} must hold a JSON object")
    return doc


def _load_form(spec: str) -> IntersectionForm:
    if spec.startswith("@"):
        path = spec[1:]
        if path.endswith(".json"):
            doc = _load_doc(path)
            matrix, symmetry = matrix_from_doc(doc.get("matrix", doc))
            return make_form(matrix, symmetry or infer_symmetry(matrix))
        matrix = parse_matrix_text(_read_text(path))
        return make_form(matrix, infer_symmetry(matrix))
    return preset(spec).form


def _load_manifold(spec: str) -> ManifoldModel:
    if spec.startswith("@"):
        path = spec[1:]
        if path.endswith(".json"):
            return manifold_from_doc(_load_doc(path))
        matrix = parse_matrix_text(_read_text(path))
        form = make_form(matrix, infer_symmetry(matrix))
        return manifold(Path(path).stem, 2, form, True, True)
    return preset(spec)


def _config(args) -> SearchConfig:
    return SearchConfig(radius=args.radius, node_budget=args.budget)


_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}


def _render_json(value, depth: int = 0) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte, for
    documents with string keys.  The standard library's indented encoder
    builds recursive closures that form a reference cycle on every call.
    Strings, integers, booleans and None are rendered as its encoder renders
    them; anything else goes through ``json.dumps``, which builds no cycle
    without ``indent``."""
    if isinstance(value, dict):
        items = [
            f"{encode_basestring_ascii(k)}: {_render_json(v, depth + 1)}"
            for k, v in sorted(value.items())
        ]
        brackets = "{}"
    elif isinstance(value, (list, tuple)):
        items = [_render_json(v, depth + 1) for v in value]
        brackets = "[]"
    elif isinstance(value, str):
        return encode_basestring_ascii(value)
    elif value is None or isinstance(value, bool):
        return _JSON_CONSTANTS[value]
    elif isinstance(value, int):
        return int.__repr__(value)
    else:
        return json.dumps(value)
    if not items:
        return brackets
    inner = "\n" + "  " * (depth + 1)
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + "  " * depth + brackets[1]


def _emit(args, doc: dict, lines) -> None:
    """Print ``doc`` under --json, else the text lines that ``lines()`` builds."""
    if args.json:
        print(_render_json(doc))
    else:
        for line in lines():
            print(line)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

_LABELS = {
    "yes": "Yes",
    "no": "No",
    "unknown": "Unknown",
    "necessary_pass": "NecessaryConditionsPass",
}


def _detail(v: Verdict) -> str | None:
    """The argument behind a No or the bound that stopped a search."""
    if v.is_no:
        return v.reason
    if v.budget_exhausted:
        return "node budget exhausted"
    if v.is_unknown:
        return f"exhausted max-norm {v.radius}"
    return None


def _verdict_text(v: Verdict) -> str:
    detail = _detail(v)
    return _LABELS[v.kind] if detail is None else f"{_LABELS[v.kind]} ({detail})"


def _verdict_doc(v: Verdict) -> dict:
    doc = {"kind": v.kind}
    if v.k is not None:
        doc["k"] = v.k
    if v.regime is not None:
        doc["regime"] = v.regime
    if v.witness is not None:
        doc["witness"] = matrix_to_doc(v.witness)
    if v.reason is not None:
        doc["reason"] = v.reason
    if v.radius is not None:
        doc["radius"] = v.radius
    if v.budget_exhausted:
        doc["budget_exhausted"] = True
    return doc


def _matrix_lines(title: str, matrix) -> list:
    return [f"{title}:"] + ["  " + ln for ln in str(matrix).splitlines()]


def _emit_verdict(args, verdict: Verdict, complement: IntersectionForm | None = None) -> int:
    """Print one verdict and return its exit code.

    The text shows the complement form when one is given, else the witness.
    """
    doc = _verdict_doc(verdict)
    doc["verdict"] = doc.pop("kind")
    if complement is not None:
        doc["complement"] = matrix_to_doc(complement.matrix, complement.symmetry)

    def lines() -> list:
        out = [_verdict_text(verdict)]
        if complement is not None:
            out += _matrix_lines("complement form", complement.matrix)
        elif verdict.witness is not None:
            out += _matrix_lines("witness", verdict.witness)
        return out

    _emit(args, doc, lines)
    return EXIT_UNKNOWN if verdict.is_unknown else EXIT_OK


def _witness_digest(p: IntMatrix) -> str:
    if p.rows * p.cols <= 16:
        return str(p.to_rows())
    first = p.to_rows()[0]
    return f"{p.rows}x{p.cols} matrix, first row {first}"


def _degset_doc(rep: DegreeSetReport) -> dict:
    return {
        "source": rep.source,
        "target": rep.target,
        "bound": rep.bound,
        "always_contains_zero": True,
        "answers": [_verdict_doc(a) for a in rep.answers],
    }


def _degset_lines(rep: DegreeSetReport) -> list:
    lines = [f"D({rep.source}, {rep.target}) over [-{rep.bound}, {rep.bound}]"]
    lines.append(f"{'k':>4}  {'verdict':<24} detail")
    lines.append(f"{'0':>4}  {'Yes':<24} constant map")
    for a in rep.answers:
        detail = _detail(a) or ""
        if a.witness is not None:
            detail = f"P = {_witness_digest(a.witness)}"
        lines.append(f"{a.k:>4}  {_LABELS[a.kind]:<24} {detail}".rstrip())
    return lines


def _dominance_doc(rep: DominanceReport) -> dict:
    return {
        "source": rep.source,
        "bound": rep.bound,
        "dominated": [
            {"target": n, "k": k, "witness": matrix_to_doc(w)} for n, k, w in rep.dominated
        ],
        "necessary_only": [{"target": n, "k": k} for n, k in rep.necessary_only],
        "excluded_by_rank": list(rep.excluded_by_rank),
        "undecided": list(rep.undecided),
    }


def _dominance_lines(rep: DominanceReport) -> list:
    lines = [f"{rep.source} dominates:"]
    lines += [f"  {name}  (degree {k})" for name, k, _ in rep.dominated]
    if rep.necessary_only:
        lines.append("necessary conditions pass only:")
        lines += [f"  {name}  (k = {k})" for name, k in rep.necessary_only]
    if rep.excluded_by_rank:
        lines.append("excluded by rank: " + ", ".join(rep.excluded_by_rank))
    if rep.undecided:
        lines.append("undecided: " + ", ".join(rep.undecided))
    return lines


def _dominance_dot(rep: DominanceReport) -> str:
    lines = ["digraph dominance {"]
    for name, k, _ in rep.dominated:
        lines.append(f'  "{rep.source}" -> "{name}" [label="deg {k}"];')
    lines.append("}")
    return "\n".join(lines)


_BUDGET_READ = "backtracking node budget"
_BUDGET_IGNORED = "ignored: no budgeted search here; accepted because bench/gen.py passes it"


def _add_flags(p: argparse.ArgumentParser, radius: bool = False, budget: str | None = None) -> None:
    """--json on every subcommand, --radius/--budget on those that search.

    form-iso reads --budget only, for its definite search.  form-info and
    selfmap read neither; they still accept --budget because the
    benchmark's query lists (bench/gen.py) pass it.
    """
    if radius:
        p.add_argument("--radius", type=int, default=8, help="max |entry| for indefinite searches")
    if budget:
        p.add_argument("--budget", type=int, default=10_000_000, help=budget)
    p.add_argument("--json", action="store_true", help="structured output")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_form_info(args) -> int:
    form = _load_form(args.f)
    fields = [("rank", form.rank), ("symmetry", form.symmetry), ("determinant", form.determinant)]
    if form.symmetry == SYMMETRIC:
        fields += [("signature", form.signature), ("parity", form.parity)]
    doc = dict(fields, matrix=matrix_to_doc(form.matrix, form.symmetry))

    def lines() -> list:
        rows = [f"{name:<11} {value}" for name, value in fields]
        return rows + _matrix_lines("matrix", form.matrix)

    _emit(args, doc, lines)
    return EXIT_OK


def _cmd_form_iso(args) -> int:
    cfg = SearchConfig(node_budget=args.budget)
    return _emit_verdict(args, isomorphic(_load_form(args.f), _load_form(args.g), cfg))


def _cmd_solve(args) -> int:
    a = _load_form(args.A)
    b = _load_form(args.B)
    verdict = congruence_solve(a, b, args.k, _config(args))
    return _emit_verdict(args, replace(verdict, k=args.k))


def _cmd_degset(args) -> int:
    source = _load_manifold(args.M)
    target = _load_manifold(args.L)
    report = degree_set(source, target, args.range, _config(args))
    _emit(args, _degset_doc(report), lambda: _degset_lines(report))
    return EXIT_UNKNOWN if report.unknown_set else EXIT_OK


def _cmd_deg1(args) -> int:
    source = _load_manifold(args.M)
    target = _load_manifold(args.L)
    answer, comp = degree_one_summand(source, target, _config(args))
    return _emit_verdict(args, answer, comp)


def _cmd_selfmap(args) -> int:
    m = _load_manifold(args.M)
    if args.pi:
        doc = _load_doc(args.pi[1:] if args.pi.startswith("@") else args.pi)
        model = model_from_doc(doc.get("pi", doc))
        data = None
        if "homotopy_data" in doc:
            data = elements_from_doc(model, doc["homotopy_data"])
        m = manifold(m.name, model.n, m.form, True, True, model, data)
    verdict = selfmap_square(m, args.k)
    doc = {
        "manifold": m.name,
        "k": args.k,
        "degree": verdict.k,
        "witness": matrix_to_doc(verdict.witness),
        "homotopy_checked": True,
    }
    _emit(args, doc, lambda: [f"degree {verdict.k} self-map of {m.name}",
                              f"witness: {args.k} * identity"])
    return EXIT_OK


def _cmd_dominate(args) -> int:
    source = _load_manifold(args.M)
    if args.catalog:
        names = [s for s in args.catalog.split(",") if s]
        candidates = [_load_manifold(s) for s in names]
    else:
        candidates = fixed_presets()
    report = dominated_candidates(source, candidates, args.range, _config(args))
    if args.dot:
        print(_dominance_dot(report))
    else:
        _emit(args, _dominance_doc(report), lambda: _dominance_lines(report))
    return EXIT_OK


def _cmd_catalog_list(args) -> int:
    presets = fixed_presets()

    def lines() -> list:
        return [
            f"{m.name:<12} rank {m.form.rank}  {m.form.symmetry}"
            f"  signature {m.form.signature}  parity {m.form.parity}"
            f"  simply connected: {m.simply_connected}"
            for m in presets
        ] + [
            "FsxFr(s,r)   surface product family, 2rs+1 hyperbolic planes",
            "#q(S2xS2)    q-fold connected sum, q hyperbolic planes",
        ]

    _emit(args, {"presets": [manifold_to_doc(m) for m in presets]}, lines)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``degmap`` parser, built once per process and shared by ``main``."""
    parser = argparse.ArgumentParser(
        prog="degmap",
        description="decide degree-k map existence between manifolds by exact integer algebra",
    )
    parser.add_argument("--version", action="version", version=f"degmap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("form-info", help="invariants of a pairing matrix")
    p.add_argument("--f", required=True, help="matrix: preset name or @path")
    _add_flags(p, budget=_BUDGET_IGNORED)
    p.set_defaults(func=_cmd_form_info)

    p = sub.add_parser("form-iso", help="decide isomorphism of two forms")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    _add_flags(p, budget=_BUDGET_READ)
    p.set_defaults(func=_cmd_form_iso)

    p = sub.add_parser("solve", help="find P with P.T A P = k B")
    p.add_argument("--A", required=True)
    p.add_argument("--B", required=True)
    p.add_argument("--k", type=int, required=True)
    _add_flags(p, radius=True, budget=_BUDGET_READ)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("degset", help="degree set over a range")
    p.add_argument("--M", required=True, help="source manifold: preset or @path")
    p.add_argument("--L", required=True, help="target manifold: preset or @path")
    p.add_argument("--range", type=int, default=4)
    _add_flags(p, radius=True, budget=_BUDGET_READ)
    p.set_defaults(func=_cmd_degset)

    p = sub.add_parser("deg1", help="degree-one map and pairing splitting")
    p.add_argument("--M", required=True)
    p.add_argument("--L", required=True)
    _add_flags(p, radius=True, budget=_BUDGET_READ)
    p.set_defaults(func=_cmd_deg1)

    p = sub.add_parser("selfmap", help="square-degree self-map witness")
    p.add_argument("--M", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--pi", help="homotopy model document (@path) for n > 2")
    _add_flags(p, budget=_BUDGET_IGNORED)
    p.set_defaults(func=_cmd_selfmap)

    p = sub.add_parser("dominate", help="which catalog members M dominates")
    p.add_argument("--M", required=True)
    p.add_argument("--catalog", help="comma-separated presets or @paths (default: fixed presets)")
    p.add_argument("--range", type=int, default=4)
    p.add_argument("--dot", action="store_true", help="emit a DOT digraph")
    _add_flags(p, radius=True, budget=_BUDGET_READ)
    p.set_defaults(func=_cmd_dominate)

    p = sub.add_parser("catalog-list", help="list the built-in presets")
    _add_flags(p)
    p.set_defaults(func=_cmd_catalog_list)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; remap to the validation code
        code = exc.code if isinstance(exc.code, int) else 0
        return EXIT_ERROR if code else EXIT_OK
    try:
        return args.func(args)
    except DegmapError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
