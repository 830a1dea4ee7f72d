"""Command-line surface.

Each subcommand answers one query and exits 0 on a decisive answer
(Yes or No), 2 when a verdict is Unknown, and 1 on usage or validation
errors, malformed input files included.  ``--json`` switches from the
human-readable table to a structured document with the same fields.

Matrices are given as preset names or as ``@path`` arguments.  A ``.json``
path holds a structured document; any other path holds the plain text
format (first line "rows cols", then the rows).  Plain matrices passed
where a manifold is expected are wrapped as simply connected 4-manifold
data; use the JSON form to control dimension and flags.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
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
    degree_one_summand,
    degree_set,
    dominated_candidates,
    selfmap_square,
)
from .errors import DegmapError, ShapeMismatch
from .homotopy import elements_from_doc, model_from_doc
from .intform import (
    IntersectionForm,
    infer_symmetry,
    isomorphic,
    make_form,
    matrix_from_doc,
    matrix_to_doc,
    parse_matrix_text,
)
from .solver import SearchConfig, Verdict, congruence_solve

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNKNOWN = 2


def _load_doc(path: str) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
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
        matrix = parse_matrix_text(Path(path).read_text())
        return make_form(matrix, infer_symmetry(matrix))
    return preset(spec).form


def _load_manifold(spec: str) -> ManifoldModel:
    if spec.startswith("@"):
        path = spec[1:]
        if path.endswith(".json"):
            return manifold_from_doc(_load_doc(path))
        matrix = parse_matrix_text(Path(path).read_text())
        form = make_form(matrix, infer_symmetry(matrix))
        return manifold(Path(path).stem, 2, form, True, True)
    return preset(spec)


def _config(args) -> SearchConfig:
    return SearchConfig(radius=args.radius, node_budget=args.budget)


def _emit(args, doc: dict, lines: list) -> None:
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _matrix_lines(title: str, matrix) -> list:
    return [f"{title}:"] + ["  " + ln for ln in str(matrix).splitlines()]


def _emit_verdict(args, verdict: Verdict, complement: IntersectionForm | None = None) -> int:
    """Print one verdict and return its exit code.

    The text shows the complement form when one is given, else the witness.
    """
    doc = verdict.to_doc()
    doc["verdict"] = doc.pop("kind")
    lines = [str(verdict)]
    if complement is not None:
        doc["complement"] = matrix_to_doc(complement.matrix, complement.symmetry)
        lines += _matrix_lines("complement form", complement.matrix)
    elif verdict.witness is not None:
        lines += _matrix_lines("witness", verdict.witness)
    _emit(args, doc, lines)
    return EXIT_UNKNOWN if verdict.is_unknown else EXIT_OK


def _add_search_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--radius", type=int, default=8, help="max |entry| for indefinite searches")
    p.add_argument("--budget", type=int, default=10_000_000, help="backtracking node budget")
    p.add_argument("--json", action="store_true", help="structured output")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_form_info(args) -> int:
    form = _load_form(args.f)
    doc = {
        "matrix": matrix_to_doc(form.matrix, form.symmetry),
        "rank": form.rank,
        "symmetry": form.symmetry,
        "determinant": form.matrix.det(),
    }
    lines = [
        f"rank        {form.rank}",
        f"symmetry    {form.symmetry}",
        f"determinant {form.matrix.det()}",
    ]
    if form.symmetry == "symmetric":
        doc["signature"] = list(form.signature)
        doc["parity"] = form.parity
        lines.append(f"signature   {form.signature}")
        lines.append(f"parity      {form.parity}")
    lines += _matrix_lines("matrix", form.matrix)
    _emit(args, doc, lines)
    return EXIT_OK


def _cmd_form_iso(args) -> int:
    return _emit_verdict(args, isomorphic(_load_form(args.f), _load_form(args.g)))


def _cmd_solve(args) -> int:
    a = _load_form(args.A)
    b = _load_form(args.B)
    verdict = congruence_solve(a, b, args.k, _config(args))
    return _emit_verdict(args, replace(verdict, k=args.k))


def _cmd_degset(args) -> int:
    source = _load_manifold(args.M)
    target = _load_manifold(args.L)
    report = degree_set(source, target, args.range, _config(args))
    _emit(args, report.to_doc(), report.table_lines())
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
    report = selfmap_square(m, args.k)
    lines = [
        f"degree {report.degree} self-map of {report.manifold}",
        f"witness: {report.k} * identity",
    ]
    _emit(args, report.to_doc(), lines)
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
        print(report.to_dot())
        return EXIT_OK
    lines = [f"{source.name} dominates:"]
    for name, k, _ in report.dominated:
        lines.append(f"  {name}  (degree {k})")
    if report.necessary_only:
        lines.append("necessary conditions pass only:")
        for name, k in report.necessary_only:
            lines.append(f"  {name}  (k = {k})")
    if report.excluded_by_rank:
        lines.append("excluded by rank: " + ", ".join(report.excluded_by_rank))
    if report.undecided:
        lines.append("undecided: " + ", ".join(report.undecided))
    _emit(args, report.to_doc(), lines)
    return EXIT_OK


def _cmd_catalog_list(args) -> int:
    lines = []
    doc = []
    for m in fixed_presets():
        entry = manifold_to_doc(m)
        doc.append(entry)
        lines.append(
            f"{m.name:<12} rank {m.form.rank}  {m.form.symmetry}"
            f"  signature {m.form.signature}  parity {m.form.parity}"
            f"  simply connected: {m.simply_connected}"
        )
    lines.append("FsxFr(s,r)   surface product family, 2rs+1 hyperbolic planes")
    lines.append("#q(S2xS2)    q-fold connected sum, q hyperbolic planes")
    _emit(args, {"presets": doc}, lines)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="degmap",
        description="decide degree-k map existence between manifolds by exact integer algebra",
    )
    parser.add_argument("--version", action="version", version=f"degmap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("form-info", help="invariants of a pairing matrix")
    p.add_argument("--f", required=True, help="matrix: preset name or @path")
    _add_search_flags(p)
    p.set_defaults(func=_cmd_form_info)

    p = sub.add_parser("form-iso", help="decide isomorphism of two forms")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    _add_search_flags(p)
    p.set_defaults(func=_cmd_form_iso)

    p = sub.add_parser("solve", help="find P with P.T A P = k B")
    p.add_argument("--A", required=True)
    p.add_argument("--B", required=True)
    p.add_argument("--k", type=int, required=True)
    _add_search_flags(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("degset", help="degree set over a range")
    p.add_argument("--M", required=True, help="source manifold: preset or @path")
    p.add_argument("--L", required=True, help="target manifold: preset or @path")
    p.add_argument("--range", type=int, default=4)
    _add_search_flags(p)
    p.set_defaults(func=_cmd_degset)

    p = sub.add_parser("deg1", help="degree-one map and pairing splitting")
    p.add_argument("--M", required=True)
    p.add_argument("--L", required=True)
    _add_search_flags(p)
    p.set_defaults(func=_cmd_deg1)

    p = sub.add_parser("selfmap", help="square-degree self-map witness")
    p.add_argument("--M", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--pi", help="homotopy model document (@path) for n > 2")
    _add_search_flags(p)
    p.set_defaults(func=_cmd_selfmap)

    p = sub.add_parser("dominate", help="which catalog members M dominates")
    p.add_argument("--M", required=True)
    p.add_argument("--catalog", help="comma-separated presets or @paths (default: fixed presets)")
    p.add_argument("--range", type=int, default=4)
    p.add_argument("--dot", action="store_true", help="emit a DOT digraph")
    _add_search_flags(p)
    p.set_defaults(func=_cmd_dominate)

    p = sub.add_parser("catalog-list", help="list the built-in presets")
    _add_search_flags(p)
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
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
