import ast
import contextlib
import io
import json
import os
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import degmap
from degmap.cli import _render_json, build_parser, main
from degmap.catalog import manifold_to_doc, preset
from degmap.intform import SYMMETRIC, IntMatrix, make_form, parse_matrix_text

FIXTURES = Path(__file__).parent / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def test_solve_yes_prints_witness(capsys):
    code, out, _ = run(
        capsys, "solve",
        "--A", f"@{FIXTURES}/diag1-1.mat",
        "--B", f"@{FIXTURES}/hyperbolic.mat",
        "--k", "2",
    )
    assert code == 0
    assert out.splitlines()[0] == "Yes"
    assert "witness" in out


def test_solve_no_is_exit_zero(capsys):
    code, out, _ = run(
        capsys, "solve",
        "--A", f"@{FIXTURES}/diag1-1.mat",
        "--B", f"@{FIXTURES}/I2.mat",
        "--k", "2",
    )
    assert code == 0
    assert out.startswith("No (SignatureFilter)")


def test_solve_json_fields(capsys):
    code, out, _ = run(
        capsys, "solve", "--json",
        "--A", f"@{FIXTURES}/diag1-1.mat",
        "--B", f"@{FIXTURES}/hyperbolic.mat",
        "--k", "2",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "yes"
    assert doc["witness"]["entries"] == [1, 1, 1, -1]


def test_solve_accepts_presets(capsys):
    code, out, _ = run(capsys, "solve", "--A", "CP2#(-CP2)", "--B", "S2xS2", "--k", "2")
    assert code == 0 and out.startswith("Yes")


def test_solve_hasse_no_at_six_squares(capsys):
    i6 = f"@{FIXTURES}/I6.mat"
    code, raw, _ = run(capsys, "solve", "--A", i6, "--B", i6, "--k", "3", "--json")
    assert code == 0
    assert json.loads(raw) == {"verdict": "no", "k": 3, "reason": "HasseFilter"}


def test_solve_with_a_k_too_large_to_factor_returns_promptly():
    # k = p * q with p, q near 10^15 is not factored; k = 3 mod 4 still
    # gives the Hasse obstruction at p = 2
    k = 1_000_000_000_000_037 * 1_000_000_000_000_091
    src = str(Path(degmap.__file__).resolve().parents[1])
    i6 = f"@{FIXTURES}/I6.mat"
    proc = subprocess.run(
        [sys.executable, "-m", "degmap", "solve", "--A", i6, "--B", i6, "--k", str(k)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (0, "No (HasseFilter)\n")


@pytest.mark.parametrize("budget", ["1", "1000"])
def test_a_small_budget_stops_a_scrambled_i8_query_at_once(budget):
    # scrambled I8 onto another at k = 2 (largest diagonals 50 and 69): the
    # first column needs vectors of norm 138, which the search walks
    # lazily, one node per vector it checks, so a small budget stops it
    # within a second; listing all of them first ran for minutes and
    # towards a MemoryError
    src = str(Path(degmap.__file__).resolve().parents[1])
    a, b = (f"@{FIXTURES}/I8-scrambled-{s}.mat" for s in "ab")

    def limits():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        resource.setrlimit(resource.RLIMIT_CPU, (20, 20))

    proc = subprocess.run(
        [sys.executable, "-m", "degmap", "solve", "--A", b, "--B", a, "--k", "2", "--budget", budget],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
        preexec_fn=limits,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "Unknown (node budget exhausted)\n", "")


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_a_closed_stdout_ends_quietly(unbuffered):
    # the reader of stdout is gone before the answer is written: no message,
    # and 128 + SIGPIPE, the status of a process that the signal ended; with
    # a buffered stdout the pipe is met at the flush main makes, not at exit
    src = str(Path(degmap.__file__).resolve().parents[1])
    i9 = f"@{FIXTURES}/I9-scrambled.mat"
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "degmap", "solve", "--A", i9, "--B", i9, "--k", "1"],
            env=dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED=unbuffered),
            stdout=write, stderr=subprocess.PIPE, text=True, timeout=60,
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (141, "")


def test_equal_matrices_take_the_identity_before_any_node_is_spent(capsys):
    # H + I(1, 1) read twice is two form objects with no canonical basis yet;
    # m I answers k = m^2 before canonical_basis is charged to the budget
    hi = f"@{FIXTURES}/h-i11.mat"
    for m in (1, 2):
        code, raw, _ = run(capsys, "solve", "--A", hi, "--B", hi, "--k", str(m * m), "--budget", "1", "--json")
        doc = json.loads(raw)
        assert (code, doc["verdict"]) == (0, "yes")
        assert IntMatrix(4, 4, doc["witness"]["entries"]) == IntMatrix.identity(4).scaled(m)
    code, raw, _ = run(capsys, "deg1", "--M", hi, "--L", hi, "--budget", "1", "--json")
    doc = json.loads(raw)
    assert (code, doc["verdict"], doc["complement"]["rows"]) == (0, "yes", 0)


def test_solve_zero_k_is_usage_error(capsys):
    code, _, err = run(capsys, "solve", "--A", "CP2", "--B", "CP2", "--k", "0")
    assert code == 1
    assert "ZeroK" in err


# ---------------------------------------------------------------------------
# degset
# ---------------------------------------------------------------------------


WORKED_PAIRS = [
    ("CP2#(-CP2)", "S2xS2", 4),
    ("S2xS2", "CP2#(-CP2)", 4),
    ("CP2#CP2", "S2xS2", 4),
    ("S2xS2", "CP2#CP2", 4),
    ("CP2#(-CP2)", "CP2#CP2", 4),
    ("CP2#CP2", "CP2#(-CP2)", 4),
    ("T4", "#3(S2xS2)", 3),
]


@pytest.mark.parametrize("src,tgt,bound", WORKED_PAIRS)
def test_degset_table_and_json_agree(capsys, src, tgt, bound):
    args = ["degset", "--M", src, "--L", tgt, "--range", str(bound)]
    code, table, _ = run(capsys, *args)
    assert code == 0
    code, raw, _ = run(capsys, *args, "--json")
    assert code == 0
    doc = json.loads(raw)
    assert doc["source"] == src and doc["target"] == tgt
    by_k = {a["k"]: a for a in doc["answers"]}
    seen = set()
    for line in table.splitlines()[2:]:
        parts = line.split()
        k = int(parts[0])
        if k == 0:
            continue
        seen.add(k)
        verdict = parts[1]
        expected = {"yes": "Yes", "no": "No", "unknown": "Unknown",
                    "necessary_pass": "NecessaryConditionsPass"}[by_k[k]["kind"]]
        assert verdict == expected, line
        if "reason" in by_k[k]:
            assert by_k[k]["reason"] in line
    assert seen == set(by_k)


def test_degset_all_no_table(capsys):
    code, out, _ = run(capsys, "degset", "--M", "CP2#CP2", "--L", "S2xS2", "--range", "4")
    assert code == 0
    body = [ln for ln in out.splitlines() if ln and ln.lstrip()[0] in "-0123456789"]
    # k = 0 row plus eight decisive No rows
    assert len(body) == 9
    assert sum("No" in ln for ln in body) == 8


def test_degset_reruns_are_byte_identical(capsys):
    args = ["degset", "--M", "T4", "--L", "#3(S2xS2)", "--range", "3", "--json"]
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_degset_necessary_pass_column(capsys):
    code, out, _ = run(capsys, "degset", "--M", "S2xS2", "--L", "FsxFr(0,1)", "--range", "1")
    assert code == 0
    assert "NecessaryConditionsPass" in out


# ---------------------------------------------------------------------------
# form commands
# ---------------------------------------------------------------------------


def test_form_info(capsys):
    code, out, _ = run(capsys, "form-info", "--f", f"@{FIXTURES}/A3.mat")
    assert code == 0
    assert "rank        6" in out
    assert "signature   (3, 3, 0)" in out
    assert "parity      even" in out


def test_form_info_json_matches_table(capsys):
    code, raw, _ = run(capsys, "form-info", "--f", f"@{FIXTURES}/A3.mat", "--json")
    doc = json.loads(raw)
    assert doc["rank"] == 6
    assert doc["signature"] == [3, 3, 0]
    assert doc["parity"] == "even"


def test_form_info_validation_error_names_invariant(capsys, tmp_path):
    bad = tmp_path / "bad.mat"
    bad.write_text("2 2\n1 0\n0 2\n")
    code, _, err = run(capsys, "form-info", "--f", f"@{bad}")
    assert code == 1
    assert "NotUnimodular" in err


CP2_MATRIX = {"rows": 1, "cols": 1, "entries": [1]}
PI6 = {"n": 6, "torsion_orders": [2]}


def manifold_json(**fields):
    return json.dumps({"matrix": CP2_MATRIX, **fields})


MALFORMED = [
    ("form-info", "rows.json", '{"rows": 2}'),
    ("form-info", "entry.mat", "2 2\n1 x\n0 1\n"),
    ("form-info", "broken.json", '{"rows": 2,'),
    ("degset", "manifold.json", '{"name": "m"}'),
    ("degset", "pi-without-n.json", manifold_json(pi={})),
    ("degset", "non-integer-n.json", manifold_json(n="x")),
    ("degset", "non-integer-nu.json", manifold_json(n=6, pi=PI6, homotopy_data=[{"nu": "a"}])),
    ("degset", "data-not-a-list.json", manifold_json(n=6, pi=PI6, homotopy_data=5)),
    ("degset", "string-flag.json", manifold_json(simply_connected="false")),
    ("selfmap", "pi-n.json", json.dumps({"pi": {"n": "q"}})),
    ("form-info", "bom.json", b"\xff\xfe"),
    ("form-info", "bom.mat", b"\xff\xfe"),
    ("form-info", "deep.json", "[" * 100_000),
    ("form-info", "long-number.json", '{"rows": ' + "9" * 5000 + "}"),
    # numbers that are not JSON integers are refused, never truncated
    ("form-info", "float-entry.json", '{"rows": 1, "cols": 1, "entries": [1.9]}'),
    ("form-info", "bool-entry.json", '{"rows": 1, "cols": 1, "entries": [true]}'),
    ("form-info", "float-rows.json", '{"rows": 1.7, "cols": 1, "entries": [1]}'),
    ("degset", "float-n.json", manifold_json(n=2.5)),
    ("selfmap", "float-pi-n.json", json.dumps({"pi": {"n": 2.0}})),
    ("selfmap", "float-nu.json", json.dumps({"pi": {"n": 4}, "homotopy_data": [{"nu": 1.0}]})),
    ("selfmap", "bool-nu.json", json.dumps({"pi": {"n": 4}, "homotopy_data": [{"nu": True}]})),
]
# where each command takes the malformed file
MALFORMED_ARGV = {
    "form-info": ["--f", "{}"],
    "degset": ["--M", "{}", "--L", "CP2"],
    "selfmap": ["--M", "CP2", "--k", "2", "--pi", "{}"],
}


@pytest.mark.parametrize("command,name,content", MALFORMED, ids=[m[1] for m in MALFORMED])
def test_malformed_input_is_a_clean_error(capsys, tmp_path, command, name, content):
    path = tmp_path / name
    path.write_bytes(content if isinstance(content, bytes) else content.encode())
    argv = [command] + [a.format(f"@{path}") for a in MALFORMED_ARGV[command]]
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error: ShapeMismatch:")


def test_negative_range_is_a_clean_error(capsys):
    for args in (
        ("degset", "--M", "CP2", "--L", "CP2", "--range", "-3"),
        ("dominate", "--M", "CP2#CP2", "--range", "-2"),
    ):
        code, out, err = run(capsys, *args)
        assert code == 1 and out == "", args
        assert err.startswith("error: ShapeMismatch:"), args


def test_form_iso_parity_no(capsys):
    code, out, _ = run(
        capsys, "form-iso",
        "--f", f"@{FIXTURES}/I2.mat",
        "--g", f"@{FIXTURES}/hyperbolic.mat",
    )
    assert code == 0
    assert "No" in out and "Parity" in out


def test_form_iso_yes_with_witness(capsys):
    code, out, _ = run(
        capsys, "form-iso",
        "--f", f"@{FIXTURES}/I2.mat",
        "--g", f"@{FIXTURES}/I2.mat",
    )
    assert code == 0
    assert out.startswith("Yes")


def test_form_info_antisymmetric(capsys, tmp_path):
    path = tmp_path / "j.mat"
    path.write_text("2 2\n0 1\n-1 0\n")
    code, out, _ = run(capsys, "form-info", "--f", f"@{path}")
    assert code == 0
    assert "antisymmetric" in out
    assert "signature" not in out


# ---------------------------------------------------------------------------
# deg1 / selfmap / dominate / catalog-list
# ---------------------------------------------------------------------------


def test_deg1(capsys):
    code, out, _ = run(capsys, "deg1", "--M", "CP2#CP2", "--L", "CP2")
    assert code == 0
    assert out.startswith("Yes")
    assert "complement" in out


def test_deg1_json_has_complement(capsys):
    code, raw, _ = run(capsys, "deg1", "--M", "CP2#(-CP2)", "--L", "CP2", "--json")
    doc = json.loads(raw)
    assert doc["verdict"] == "yes"
    assert doc["complement"]["entries"] == [-1]


def test_deg1_splits_a_hyperbolic_plane_off_a_mixed_form(capsys):
    # [[0,-1],[-1,0]] + diag(1,-1) onto S2xS2: the box search used to run out
    # of this budget; in canonical coordinates it is an immediate Yes
    code, raw, _ = run(capsys, "deg1", "--M", f"@{FIXTURES}/h-i11.mat", "--L", "S2xS2",
                       "--budget", "200000", "--json")
    assert code == 0
    doc = json.loads(raw)
    assert doc["verdict"] == "yes"
    m = IntMatrix(4, 4, [0, -1, 0, 0, -1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, -1])
    p = IntMatrix(4, 2, doc["witness"]["entries"])
    assert p.transpose() @ m @ p == IntMatrix.from_rows([[0, 1], [1, 0]])
    assert doc["complement"]["entries"] == [1, 0, 0, -1]


_JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-(10**40), 10**40),
    st.text(st.characters(), max_size=6), st.sampled_from(['"', '\\"q\\"', "caf\u00e9", "\u2212", "\n"]),
)
_JSON_DOCS = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=6),
        st.lists(st.integers(), max_size=6),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=5),
    ),
    max_leaves=30,
)


def test_json_output_is_json_dumps_with_indent_two():
    doc = {"b": [1, {"z": None, "a": True}, [], {}], "a": "caf\u00e9 \"q\"", "c": (-3, False)}
    assert _render_json(doc) == json.dumps(doc, indent=2, sort_keys=True)
    assert _render_json([]) == "[]" and _render_json({}) == "{}" and _render_json(()) == "[]"


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_JSON_DOCS)
def test_json_output_is_json_dumps_on_any_nested_document(doc):
    # flat int lists take a shortcut; mixed ones, bools among ints, big and
    # negative ints, quotes and non-ASCII text must render as json.dumps does
    assert _render_json(doc) == json.dumps(doc, indent=2, sort_keys=True)


def test_selfmap(capsys):
    code, out, _ = run(capsys, "selfmap", "--M", "S2xS2", "--k", "3")
    assert code == 0
    assert "degree 9" in out


def test_selfmap_with_model_document(capsys, tmp_path):
    doc = {
        "pi": {"n": 6, "torsion_orders": [2], "whitehead": {"nu": 1, "torsion": [1]}},
        "homotopy_data": [{"nu": 0, "torsion": [0]}, {"nu": 0, "torsion": [1]}],
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(
        capsys, "selfmap", "--M", f"@{FIXTURES}/hyperbolic.mat", "--k", "4",
        "--pi", f"@{path}",
    )
    assert code == 0
    assert "degree 16" in out


def test_degset_with_json_manifold(capsys, tmp_path):
    doc = {
        "name": "custom",
        "n": 2,
        "matrix": {"rows": 2, "cols": 2, "entries": [1, 0, 0, -1], "symmetry": "symmetric"},
        "simply_connected": True,
        "highly_connected": True,
    }
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "degset", "--M", f"@{path}", "--L", "S2xS2", "--range", "2")
    assert code == 0
    assert "D(custom, S2xS2)" in out
    assert "P = [[1, -1], [1, 1]]" in out or "P = [[1, 1], [1, -1]]" in out


def test_degset_names_the_pairing_an_odd_n_needs(capsys, tmp_path):
    doc = {
        "name": "odd",
        "n": 3,
        "matrix": {"rows": 1, "cols": 1, "entries": [1], "symmetry": "symmetric"},
        "simply_connected": True,
        "highly_connected": True,
    }
    path = tmp_path / "odd.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "degset", "--M", f"@{path}", "--L", f"@{path}", "--range", "1")
    assert code == 1
    assert err == "error: SymmetryMismatch: a 2*3-manifold needs an antisymmetric pairing\n"


def test_selfmap_condition_not_met(capsys):
    code, _, err = run(capsys, "selfmap", "--M", "T4", "--k", "2")
    assert code == 1
    assert "NotApplicable" in err


def test_dominate(capsys):
    code, out, _ = run(capsys, "dominate", "--M", "T4", "--range", "2")
    assert code == 0
    assert "CP2" in out


def test_dominate_dot(capsys):
    code, out, _ = run(capsys, "dominate", "--M", "CP2", "--catalog", "CP2", "--dot")
    assert code == 0
    assert out.startswith("digraph")


def test_dominate_dot_escapes_quotes_and_backslashes_in_names(capsys, tmp_path):
    # a quote or a backslash in a name would end or escape the quoted DOT ID
    names = ['M"x', "L\\", "CP2"]
    paths = []
    for i, name in enumerate(names):
        path = tmp_path / f"m{i}.json"
        doc = {"name": name, "matrix": {"rows": 1, "cols": 1, "entries": [1]}}
        path.write_text(json.dumps(doc))
        paths.append(f"@{path}")
    code, out, _ = run(capsys, "dominate", "--M", paths[0], "--catalog", ",".join(paths), "--dot")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "digraph dominance {" and lines[-1] == "}"
    quoted = r'"((?:[^"\\]|\\.)*)"'
    edge = re.compile(rf'  {quoted} -> {quoted} \[label="deg 1"\];')
    edges = [edge.fullmatch(line) for line in lines[1:-1]]
    assert len(edges) == 3 and all(edges), lines
    pairs = [tuple(re.sub(r"\\(.)", r"\1", g) for g in e.groups()) for e in edges]
    assert pairs == [('M"x', name) for name in names]


def test_dominate_catalog_splits_only_at_commas_outside_parentheses(capsys):
    catalog = ["FsxFr(1,1)", "S2xS2", "CP2#(-CP2)", "FsxFr(0,1)"]
    code, out, err = run(capsys, "dominate", "--M", "FsxFr(1,1)", "--catalog",
                         ",".join(catalog[:2]) + ",," + ",".join(catalog[2:]), "--range", "1", "--json")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    named = [d["target"] for d in doc["dominated"] + doc["necessary_only"]]
    assert sorted(named + doc["excluded_by_rank"] + doc["undecided"]) == sorted(catalog)
    assert [d["target"] for d in doc["dominated"]] == ["FsxFr(1,1)", "S2xS2"]


def test_identity_answers_degree_one_self_maps(capsys, tmp_path):
    # T4 and FsxFr(1,1) are not simply connected, so only necessary
    # conditions hold onto them, except for the identity at k = 1
    code, out, _ = run(capsys, "degset", "--M", "T4", "--L", "T4", "--range", "1", "--json")
    assert code == 0
    answers = {a["k"]: a for a in json.loads(out)["answers"]}
    assert answers[-1]["kind"] == "necessary_pass"
    assert (answers[1]["kind"], answers[1]["regime"]) == ("yes", "identity-map")
    assert answers[1]["witness"]["entries"] == [int(i % 7 == 0) for i in range(36)]
    code, out, _ = run(capsys, "dominate", "--M", "FsxFr(1,1)", "--catalog", "FsxFr(1,1),S2xS2",
                       "--range", "1")
    assert code == 0
    assert out == "FsxFr(1,1) dominates:\n  FsxFr(1,1)  (degree 1)\n  S2xS2  (degree 1)\n"
    # T4's data in two unnamed documents may describe two manifolds, so
    # k = 1 keeps the necessary-only answer
    doc = manifold_to_doc(preset("T4"))
    del doc["name"]
    for name in ("a", "b"):
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    code, out, _ = run(capsys, "degset", "--M", f"@{tmp_path}/a.json", "--L",
                       f"@{tmp_path}/b.json", "--range", "1", "--json")
    assert code == 0
    answers = {a["k"]: (a["kind"], a["regime"]) for a in json.loads(out)["answers"]}
    assert answers == {k: ("necessary_pass", "necessary-only") for k in (-1, 1)}


def test_catalog_list(capsys):
    code, out, _ = run(capsys, "catalog-list")
    assert code == 0
    for name in ("CP2", "S2xS2", "T4"):
        assert name in out


# ---------------------------------------------------------------------------
# error paths
# ---------------------------------------------------------------------------


def test_unknown_preset(capsys):
    code, _, err = run(capsys, "degset", "--M", "K3", "--L", "CP2", "--range", "1")
    assert code == 1
    assert "UnknownPreset" in err


@pytest.mark.parametrize(
    "name",
    ["#129(S2xS2)", "#10000000000000000000(S2xS2)", "FsxFr(100000,100000)", "#" + "9" * 5000 + "(S2xS2)"],
)
def test_oversized_preset_families_are_refused(capsys, name):
    code, out, err = run(capsys, "form-info", "--f", name)
    assert (code, out) == (1, "")
    assert err.startswith("error: UnknownPreset: ")


def test_missing_file(capsys):
    code, _, err = run(capsys, "form-info", "--f", "@/nonexistent/x.mat")
    assert code == 1


@pytest.mark.parametrize(
    "argv", [["form-info", "--f"], ["selfmap", "--M", "CP2", "--k", "2", "--pi"]]
)
def test_directory_path_is_a_clean_error(capsys, tmp_path, argv):
    code, out, err = run(capsys, *argv, f"@{tmp_path}")
    assert code == 1 and out == ""
    assert err.startswith("error:")


def test_a_nul_byte_in_a_path_is_a_clean_error(capsys):
    # argv from a shell cannot hold one, but main's callers can pass it
    code, out, err = run(capsys, "form-info", "--f", "@a\x00b")
    assert (code, out) == (1, "")
    assert err.startswith("error: ShapeMismatch: ")


def test_usage_error(capsys):
    code, _, _ = run(capsys, "solve", "--A", "CP2")
    assert code == 1


def test_the_parser_is_built_once_and_reused(capsys):
    # the first call of each subcommand is the reference; later calls,
    # after other subcommands and a usage error, must print the same
    calls = [
        ["form-info", "--f", "CP2#CP2", "--json"],
        ["solve", "--A", "CP2#(-CP2)", "--B", "S2xS2", "--k", "2"],
        ["solve", "--A", "CP2"],
        ["degset", "--M", "CP2#(-CP2)", "--L", "S2xS2", "--range", "2", "--json"],
        ["catalog-list"],
        ["form-iso", "--f", "CP2", "--g", "minusCP2", "--budget"],
    ]
    first = {}
    for argv in calls + calls[::-1] + calls:
        result = run(capsys, *argv)
        assert first.setdefault(tuple(argv), result) == result, argv
    assert first[tuple(calls[2])][0] == first[tuple(calls[5])][0] == 1
    assert "usage:" in first[tuple(calls[2])][2]
    assert build_parser() is build_parser()


@pytest.mark.parametrize(
    "argv,k",
    [
        (["--k=3"], 3),
        (["--k", "-3"], -3),
        (["--k=-4"], -4),
        (["--k", "2", "--k", "4"], 4),  # the last value wins
    ],
)
def test_flag_values_in_any_form_and_order(capsys, argv, k):
    code, out, err = run(capsys, "solve", *argv, "--json", "--B", "CP2", "--A=CP2")
    assert (code, err) == (0, "")
    assert json.loads(out)["k"] == k


@pytest.mark.parametrize(
    "argv,code,usage_on",
    [
        (["solve", "--A", "CP2", "--B", "CP2", "--k", "1", "--zz", "1"], 1, "err"),
        (["solve", "--A", "CP2", "--B", "CP2", "--k", "1", "--bud", "5"], 1, "err"),
        (["solve", "--A", "CP2", "--B", "CP2", "--k", "1", "--json=1"], 1, "err"),
        (["catalog-list", "--budget", "1"], 1, "err"),
        (["sovle", "--A", "CP2"], 1, "err"),
        (["form-iso", "--f", "CP2", "--g", "CP2", "--budget"], 1, "err"),
        (["solve", "--A", "CP2", "--B", "--k", "1"], 1, "err"),
        (["solve", "--A", "CP2", "--B", "CP2", "--k", "x"], 1, "err"),
        (["solve", "--A", "CP2", "--B", "CP2", "--k="], 1, "err"),
        (["solve", "--A", "CP2"], 1, "err"),
        ([], 1, "err"),
        (["-h"], 0, "out"),
        (["--help"], 0, "out"),
        (["solve", "-h"], 0, "out"),
        (["catalog-list", "--help"], 0, "out"),
        (["dominate", "--M", "CP2", "--k", "x", "-h"], 1, "err"),
        (["dominate", "--M", "CP2", "-h", "--k", "x"], 0, "out"),
        (["--version"], 0, None),
    ],
)
def test_usage_errors_and_help(capsys, argv, code, usage_on):
    got, out, err = run(capsys, *argv)
    assert got == code
    assert ("usage:" in out, "usage:" in err) == (usage_on == "out", usage_on == "err")
    assert "Traceback" not in err
    if code == 1:
        assert out == "" and err.startswith("error: UsageError: "), err
    if usage_on == "out":
        # the help lists every flag of its subcommand, or every subcommand
        names = build_parser()[argv[0]][2] if argv[0] in build_parser() else build_parser()
        assert err == "" and all(name in out for name in names), out


_SUBCOMMANDS = list(build_parser())
_FLAGS = sorted({flag for _, _, flags in build_parser().values() for flag in flags})
_VALUES = {
    int: st.integers(-3, 3).map(str),
    str: st.sampled_from(["CP2", "minusCP2", "S2xS2", "CP2#(-CP2)", "FsxFr(0,1)", "CP2,FsxFr(0,1)"]),
}
_JUNK = st.one_of(
    st.sampled_from(_FLAGS + _SUBCOMMANDS + ["-h", "--help", "--version", "--bud", "-k"]),
    st.sampled_from(["", "-", "--", "=", "--=", "-3x", "@", "x,y", "--budget=", "--k=x", "--json=1"]),
    st.text(max_size=4),
)


@st.composite
def _argvs(draw):
    """A subcommand or junk, then each of its flags left out, with a value,
    as --flag=value or bare, in any order, with a few junk words between."""
    first = draw(st.sampled_from(_SUBCOMMANDS + [None])) or draw(_JUNK)
    flags = build_parser().get(first, (None, None, {}))[2]
    # a one-node budget, where the subcommand takes one, keeps searches short
    argv = ["--budget", "1"] if "--budget" in flags else []
    for flag in draw(st.permutations(sorted(flags.keys() - {"--budget"}) or _FLAGS[:3])):
        kind = flags.get(flag, (str,))[0]
        value = draw(_VALUES.get(kind, _VALUES[str]))
        forms = [[flag, value]] * 4 + [[f"{flag}={value}"]] * 2 + [[], [flag]]
        if kind is bool:
            forms = [[], [flag], [flag]]
        argv += draw(st.sampled_from(forms))
    for _ in range(draw(st.sampled_from([0] * 8 + [1, 2]))):
        argv.insert(draw(st.integers(0, len(argv))), draw(_JUNK))
    return [first] + argv


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_argvs())
def test_any_argv_ends_in_an_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 1:
        assert err.getvalue().startswith("error:"), err.getvalue()


def test_unknown_verdict_exit_code(capsys):
    # a search that no filter decides and no fixed block answers: force a
    # tiny budget on I(3,3) -> I(3,3) at k = 6; at k = 2, the old instance,
    # the blocks on a carved plane answer within a one-node budget
    i33 = f"@{FIXTURES}/I33.mat"
    code, out, _ = run(capsys, "solve", "--A", i33, "--B", i33, "--k", "6", "--budget", "10")
    assert code == 2
    assert out.startswith("Unknown")
    code, out, _ = run(capsys, "solve", "--A", i33, "--B", i33, "--k", "2", "--budget", "1")
    assert code == 0
    assert out.startswith("Yes")


def test_budget_stopped_unknown_claims_no_radius(capsys):
    args = ["solve", "--A", f"@{FIXTURES}/I33.mat", "--B", f"@{FIXTURES}/I33.mat",
            "--k", "6", "--budget", "10"]
    code, out, _ = run(capsys, *args)
    assert code == 2
    assert out == "Unknown (node budget exhausted)\n"
    code, raw, _ = run(capsys, *args, "--json")
    assert code == 2
    assert json.loads(raw) == {"verdict": "unknown", "k": 6, "budget_exhausted": True}


@pytest.mark.parametrize("a, k, witness", [
    ("T4", "5", [5, 0, 0, 1]),
    (f"@{FIXTURES}/A3.mat", "5", [5, 0, 0, 1]),
    ("S2xS2", "11", [11, 0, 0, 1]),
    ("S2xS2", "-11", [11, 0, 0, -1]),
])
def test_fixed_blocks_answer_hyperbolic_degrees_without_enumeration(capsys, a, k, witness):
    # kH in H by diag(k, 1), before any enumeration: a budget of one node
    # would stop any search; T4 -> T4 at k = 5 under --budget 10 used to be
    # the budget-stopped Unknown of the tests above
    code, raw, _ = run(capsys, "solve", "--A", a, "--B", a, "--k", k, "--budget", "1", "--json")
    assert code == 0
    doc = json.loads(raw)
    assert doc["verdict"] == "yes"
    n = doc["witness"]["rows"]
    assert doc["witness"]["cols"] == n
    blocks = [doc["witness"]["entries"][i * n + j] for i in range(2) for j in range(2)]
    assert blocks == witness


def test_form_iso_separates_i9_from_e8_plus_i1_by_unit_vectors(capsys):
    # same rank, parity and signature, but 18 vectors of norm 1 against 2:
    # a complete No at once, where the k = 1 search used to crash after
    # outgrowing its budget
    args = ["form-iso", "--f", f"@{FIXTURES}/I9.mat", "--g", f"@{FIXTURES}/E8I1.mat"]
    start = time.perf_counter()
    code, out, _ = run(capsys, *args)
    assert time.perf_counter() - start < 0.1
    assert (code, out) == (0, "No (ThetaFilter)\n")
    code, raw, _ = run(capsys, *args, "--json")
    assert json.loads(raw) == {"verdict": "no", "reason": "ThetaFilter"}


def test_form_iso_reads_the_budget(capsys):
    # the definite search runs under --budget: one node cannot place the
    # nine columns of an isometry
    code, raw, _ = run(capsys, "form-iso", "--f", f"@{FIXTURES}/I9.mat",
                       "--g", f"@{FIXTURES}/I9-scrambled.mat", "--budget", "1", "--json")
    assert code == 2
    assert json.loads(raw) == {"verdict": "unknown", "budget_exhausted": True}


def test_form_iso_finds_i9_in_its_scramble(capsys):
    # the fixture is I9 in the basis random_unimodular(Random(16), 9), whose
    # diagonal reaches 33; the search runs onto I9 and inverts its witness
    f = make_form(parse_matrix_text((FIXTURES / "I9.mat").read_text()), SYMMETRIC)
    g = make_form(parse_matrix_text((FIXTURES / "I9-scrambled.mat").read_text()), SYMMETRIC)
    start = time.perf_counter()
    code, raw, _ = run(capsys, "form-iso", "--f", f"@{FIXTURES}/I9.mat",
                       "--g", f"@{FIXTURES}/I9-scrambled.mat", "--json")
    assert time.perf_counter() - start < 1
    doc = json.loads(raw)
    assert code == 0 and doc["verdict"] == "yes"
    p = IntMatrix(9, 9, doc["witness"]["entries"])
    assert p.transpose() @ f.matrix @ p == g.matrix


def test_importing_the_cli_leaves_numpy_unloaded():
    # numpy is a test-only dependency (tests/oracle.py); importing it with
    # the CLI would add its start-up time and memory to every query
    src = str(Path(degmap.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, degmap.cli; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out == "False\n"


def test_importing_the_cli_leaves_record_and_rational_modules_unloaded():
    # the CLI answers one query per process, so every module its import
    # loads is paid for by every query: dataclasses pulls in inspect, ast,
    # dis and tokenize, and fractions pulls in decimal
    src = str(Path(degmap.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    heavy = ("dataclasses", "inspect", "fractions", "decimal", "argparse", "gettext")
    probe = f"import sys, degmap.cli; print([m for m in {heavy!r} if m in sys.modules])"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out == "[]\n"


def test_runtime_needs_only_the_standard_library():
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as f:
        assert tomllib.load(f)["project"]["dependencies"] == []
    numpy_imports = []
    for path in sorted(Path(degmap.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module]
            numpy_imports += [path.name for n in names if n.split(".")[0] == "numpy"]
    assert numpy_imports == []


def _package_modules(node, modules: set) -> set:
    """The degmap modules an import node names; the package itself is __init__."""
    if isinstance(node, ast.ImportFrom) and node.level:
        names = [node.module] if node.module else [a.name for a in node.names]
    elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("degmap"):
        names = node.module.split(".")[1:2] or [a.name for a in node.names]
    else:
        names = [a.name.split(".")[1] for a in node.names if a.name.startswith("degmap.")]
    return {n if n in modules else "__init__" for n in names}


def test_package_imports_are_module_level_and_acyclic():
    # intform is the leaf the solver and the manifold layers build on: it
    # may import errors, nothing above it, and works in integers without
    # fractions; no import hides in a function
    package = Path(degmap.__file__).parent
    modules = {p.stem for p in package.glob("*.py")}
    graph, local, intform_imports = {}, [], set()
    for path in sorted(package.glob("*.py")):
        graph[path.stem] = set()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                local += [
                    f"{path.name}:{n.lineno}" for n in ast.walk(node)
                    if isinstance(n, (ast.Import, ast.ImportFrom))
                ]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                graph[path.stem] |= _package_modules(node, modules)
                if path.stem == "intform":
                    intform_imports |= {a.name for a in node.names} | {getattr(node, "module", None)}
    assert local == []
    assert graph["intform"] <= {"errors"}
    assert "fractions" not in intform_imports
    done, visiting = set(), []

    def visit(m):
        assert m not in visiting, f"import cycle {visiting + [m]}"
        if m not in done:
            visiting.append(m)
            for dep in sorted(graph[m]):
                visit(dep)
            visiting.pop()
            done.add(m)

    for m in sorted(graph):
        visit(m)


def test_python_dash_m_degmap_prints_the_version():
    src = str(Path(degmap.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "degmap", "--version"], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert proc.stdout == f"degmap {degmap.__version__}\n"


# documents near the input formats, so that the fuzz gets past the parsers
_DOC_KEYS = st.sampled_from([
    "matrix", "rows", "cols", "entries", "symmetry", "name", "n", "pi", "torsion_orders",
    "whitehead", "nu", "torsion", "homotopy_data", "simply_connected", "highly_connected",
])
_DOC_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 9), st.sampled_from(["symmetric", "x", ""])
)
_DOC_VALUES = st.recursive(
    _DOC_SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=5), st.dictionaries(_DOC_KEYS, inner, max_size=5)),
    max_leaves=16,
)
_MATRIX_TEXT = st.lists(st.lists(st.integers(-3, 3), max_size=5), max_size=5).map(
    lambda rows: "\n".join(" ".join(map(str, row)) for row in rows)
)
_FILE_BYTES = st.one_of(
    st.binary(max_size=40),
    _DOC_VALUES.map(lambda v: json.dumps(v).encode()),
    _MATRIX_TEXT.map(str.encode),
)
_LOADER_ARGV = [
    ["form-info", "--f"],
    ["degset", "--range", "1", "--L", "CP2", "--M"],
    ["selfmap", "--M", "CP2", "--k", "2", "--pi"],
]


@settings(
    max_examples=300,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(_FILE_BYTES, st.sampled_from([".mat", ".json"]), st.sampled_from(_LOADER_ARGV))
def test_loaders_survive_arbitrary_files(tmp_path, content, suffix, argv):
    path = tmp_path / f"doc{suffix}"
    path.write_bytes(content)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + [f"@{path}"])
    assert code in (0, 1, 2)
    if code == 1:
        assert err.getvalue().startswith("error:"), err.getvalue()


def test_degset_names_the_homotopy_obstruction_on_the_hc8_fixtures(capsys):
    # a scrambled I6 with torsion-free data onto I2 with torsion 1 and 2 mod
    # 3, Whitehead square torsion-free: every congruence witness fails the
    # column test in degrees 1 and 2, and the signature rules out -1 and -2
    args = ["degset", "--M", f"@{FIXTURES}/hc8-I6-obstructed.json",
            "--L", f"@{FIXTURES}/hc8-I2.json", "--range", "2", "--json"]
    code, raw, _ = run(capsys, *args)
    assert code == 0
    answers = {a["k"]: (a["kind"], a["reason"]) for a in json.loads(raw)["answers"]}
    assert answers == {
        -2: ("no", "SignatureFilter"),
        -1: ("no", "SignatureFilter"),
        1: ("no", "HomotopyObstruction"),
        2: ("no", "HomotopyObstruction"),
    }
