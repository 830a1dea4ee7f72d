"""Command-line surface.

Each subcommand answers one query and exits 0 on a decisive answer
(Yes or No), 2 when a verdict is Unknown, and 1 on usage or validation
errors, malformed or unreadable input files included.  ``--json``
switches from the human-readable table to a structured document with
the same fields.
This module is the only place that renders results: the library returns
plain data (``Verdict`` and the degree-set and dominance reports).

Flags come from one table, ``_COMMANDS``, that also builds the help and
usage errors, so no query pays for argparse.  They take exact names, as
``--flag value`` or ``--flag=value`` in any order, the last value winning;
a value may be a negative integer but no other word starting with ``-``.

Matrices are given as preset names or as ``@path`` arguments.  A ``.json``
path holds a structured document; any other path holds the plain text
format (first line "rows cols", then the rows).  Plain matrices passed
where a manifold is expected are wrapped as simply connected 4-manifold
data; use the JSON form to control dimension and flags.
"""

from __future__ import annotations

import json
import os
import re
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path
from types import SimpleNamespace

from . import __version__
from .catalog import ManifoldModel, fixed_presets, manifold, manifold_from_doc, manifold_to_doc
from .catalog import preset
from .degsets import DegreeSetReport, DominanceReport, degree_one_summand, degree_set
from .degsets import dominated_candidates, selfmap_square
from .errors import DegmapError, ShapeMismatch, UsageError
from .homotopy import elements_from_doc, model_from_doc
from .intform import SYMMETRIC, IntersectionForm, IntMatrix, infer_symmetry, make_form
from .intform import matrix_from_doc, matrix_to_doc, parse_matrix_text
from .solver import SearchConfig, Verdict, congruence_solve, isomorphic

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNKNOWN = 2
# 128 + SIGPIPE, the status of a process that a closed pipe ended
EXIT_BROKEN_PIPE = 141


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except ValueError as exc:  # not UTF-8 text, or a NUL byte in the path
        raise ShapeMismatch(f"{path} is not a readable text file: {exc}") from exc


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
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if value is None or kind is bool:
        return _JSON_CONSTANTS[value]
    if isinstance(value, dict):
        brackets = "{}"
        items = [f"{encode_basestring_ascii(k)}: {_render_json(v, depth + 1)}"
                 for k, v in sorted(value.items())]
    elif isinstance(value, (list, tuple)):
        brackets = "[]"
        if {*map(type, value)} == {int}:  # witness entries: a flat list of ints
            items = [*map(int.__repr__, value)]
        else:
            items = [_render_json(v, depth + 1) for v in value]
    else:
        return json.dumps(value)
    if not items:
        return brackets
    inner = "\n" + "  " * (depth + 1)
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + "  " * depth + brackets[1]


def _emit(args, doc: dict, lines) -> None:
    """Print ``doc`` under --json, else the text lines that ``lines()`` builds."""
    print(_render_json(doc) if args.json else "\n".join(lines()))


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


def _dot_id(name: str) -> str:
    """name as a quoted DOT ID, its backslashes and double quotes escaped."""
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _dominance_dot(rep: DominanceReport) -> str:
    lines = ["digraph dominance {"]
    for name, k, _ in rep.dominated:
        lines.append(f'  {_dot_id(rep.source)} -> {_dot_id(name)} [label="deg {k}"];')
    lines.append("}")
    return "\n".join(lines)


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
    return _emit_verdict(args, verdict._replace(k=args.k))


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
        names = [s for s in re.split(r",(?![^(]*\))", args.catalog) if s]
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


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

_REQUIRED = object()  # the default of a flag that must be given
_HELP = ("-h", "--help")
_JSON = {"--json": (bool, False, "structured output")}
_BUDGET = {"--budget": (int, 10_000_000, "backtracking node budget"), **_JSON}
_SEARCH = {"--radius": (int, 8, "max |entry| for indefinite searches"), **_BUDGET}
_BUDGET_IGNORED = "ignored: no budgeted search here; accepted because bench/gen.py passes it"
_NO_SEARCH = {"--budget": (int, 10_000_000, _BUDGET_IGNORED), **_JSON}
_M = {"--M": (str, _REQUIRED, "source manifold: preset or @path")}
_ML = {**_M, "--L": (str, _REQUIRED, "target manifold: preset or @path")}
_RANGE = {"--range": (int, 4, "degrees from -range to range")}

# subcommand -> (handler, help, {flag: (type, default or _REQUIRED, help)});
# a bool flag takes no value and reads True when given
_COMMANDS = {
    "form-info": (_cmd_form_info, "invariants of a pairing matrix",
                  {"--f": (str, _REQUIRED, "matrix: preset name or @path"), **_NO_SEARCH}),
    "form-iso": (_cmd_form_iso, "decide isomorphism of two forms",
                 {"--f": (str, _REQUIRED, "matrix: preset name or @path"),
                  "--g": (str, _REQUIRED, "matrix: preset name or @path"), **_BUDGET}),
    "solve": (_cmd_solve, "find P with P.T A P = k B",
              {"--A": (str, _REQUIRED, "source matrix: preset name or @path"),
               "--B": (str, _REQUIRED, "target matrix: preset name or @path"),
               "--k": (int, _REQUIRED, "nonzero degree"), **_SEARCH}),
    "degset": (_cmd_degset, "degree set over a range", {**_ML, **_RANGE, **_SEARCH}),
    "deg1": (_cmd_deg1, "degree-one map and pairing splitting", {**_ML, **_SEARCH}),
    "selfmap": (_cmd_selfmap, "square-degree self-map witness",
                {**_M, "--k": (int, _REQUIRED, "the witness is k times the identity"),
                 "--pi": (str, None, "homotopy model document (@path) for n > 2"), **_NO_SEARCH}),
    "dominate": (_cmd_dominate, "which catalog members M dominates",
                 {**_M, "--catalog": (str, None, "presets or @paths, split at commas outside"
                                                 " parentheses (default: fixed presets)"),
                  **_RANGE, "--dot": (bool, False, "emit a DOT digraph"), **_SEARCH}),
    "catalog-list": (_cmd_catalog_list, "list the built-in presets", _JSON),
}


def build_parser() -> dict:
    """The subcommand table that ``main`` parses argv with."""
    return _COMMANDS


def _help(command: str | None) -> str:
    """Usage line, summary, and subcommands or flags of ``degmap [command]``."""
    rows = [("-h, --help", "show this help and exit")]
    if command is None:
        usage = f"degmap [-h] [--version] {{{','.join(_COMMANDS)}}} ..."
        about = "decide degree-k map existence between manifolds by exact integer algebra"
        rows += [("--version", "print the version and exit")]
        rows += [(name, spec[1]) for name, spec in _COMMANDS.items()]
    else:
        _, about, flags = _COMMANDS[command]
        usage = f"degmap {command} [-h]"
        for flag, (kind, default, text) in flags.items():
            word = flag if kind is bool else f"{flag} {flag[2:].upper()}"
            usage += f" {word}" if default is _REQUIRED else f" [{word}]"
            rows.append((word, text))
    width = max(len(word) for word, _ in rows) + 2
    return "\n".join([f"usage: {usage}", "", about, ""] + [f"  {w:<{width}}{h}" for w, h in rows])


def _usage_error(command: str | None, problem: str) -> UsageError:
    return UsageError(f"{problem}\n{_help(command).splitlines()[0]}")


def _parse(argv) -> tuple:
    """The handler that answers ``argv`` and its flags, or ``print`` and the
    help or version text; raises UsageError on a malformed command line."""
    command = argv[0] if argv else None
    if command in _HELP or command == "--version":
        return print, _help(None) if command in _HELP else f"degmap {__version__}"
    if command not in _COMMANDS:
        raise _usage_error(None, f"unknown subcommand {command!r}" if argv else "no subcommand")
    handler, _, flags = _COMMANDS[command]
    values, tokens = {}, iter(argv[1:])
    for token in tokens:
        if token in _HELP:
            return print, _help(command)
        flag, eq, value = token.partition("=")
        kind = flags.get(flag, (None,))[0]
        if kind is None or kind is bool and eq:
            raise _usage_error(command, f"unknown flag {token!r}")
        if kind is bool:
            value = True
        elif not eq:
            value = next(tokens, None)
            if value is None or value[:1] == "-" and not value[1:].isdigit():
                raise _usage_error(command, f"{flag} expects a value")
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                raise _usage_error(command, f"{flag} expects an integer, not {value!r}") from None
        values[flag[2:]] = value
    missing = [f for f, spec in flags.items() if spec[1] is _REQUIRED and f[2:] not in values]
    if missing:
        raise _usage_error(command, "missing required " + ", ".join(missing))
    return handler, SimpleNamespace(**({f[2:]: spec[1] for f, spec in flags.items()} | values))


def main(argv=None) -> int:
    try:
        func, args = _parse(sys.argv[1:] if argv is None else argv)
        code = func(args) or EXIT_OK  # print returns None
        sys.stdout.flush()  # so that a closed pipe is met here, not at exit
        return code
    except BrokenPipeError:
        # the reader has gone: end quietly, and send what is still buffered
        # to devnull so that the interpreter's own flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except DegmapError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
