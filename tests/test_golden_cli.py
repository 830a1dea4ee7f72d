"""Byte-exact stdout and exit code of representative CLI calls.

The expected outputs live in ``fixtures/golden_cli.json``, keyed by case
name, text and ``--json`` each.  After an intended output change, rewrite
them with ``PYTHONPATH=src python tests/test_golden_cli.py`` and review the
diff.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from degmap.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden_cli.json"

CASES = {
    # the README examples
    "solve-yes": ["solve", "--A", "@diag1-1.mat", "--B", "@hyperbolic.mat", "--k", "2"],
    "degset": ["degset", "--M", "CP2#(-CP2)", "--L", "S2xS2", "--range", "8"],
    "deg1": ["deg1", "--M", "CP2#CP2", "--L", "CP2"],
    "selfmap": ["selfmap", "--M", "S2xS2", "--k", "3"],
    "dominate": ["dominate", "--M", "T4", "--range", "2"],
    "form-info": ["form-info", "--f", "@A3.mat"],
    "form-iso": ["form-iso", "--f", "@I2.mat", "--g", "@hyperbolic.mat"],
    "catalog-list": ["catalog-list"],
    # budget-stopped Unknowns where no fixed block fits (E8 + H has no
    # canonical basis), the same budget on H^3, which the blocks answer, a
    # filter No and a necessary-only degree set
    "solve-budget": ["solve", "--A", "@I33.mat", "--B", "@I33.mat", "--k", "6", "--budget", "10"],
    "deg1-budget": ["deg1", "--M", "@E8H.mat", "--L", "S2xS2", "--budget", "10"],
    "solve-blocks": ["solve", "--A", "@A3.mat", "--B", "@A3.mat", "--k", "5", "--budget", "10"],
    "deg1-blocks": ["deg1", "--M", "@A3.mat", "--L", "@A3.mat", "--budget", "10"],
    "solve-no": ["solve", "--A", "@diag1-1.mat", "--B", "@I2.mat", "--k", "2"],
    "degset-necessary": ["degset", "--M", "S2xS2", "--L", "FsxFr(0,1)", "--range", "1"],
    # fixed blocks between scrambled J^5 in degree 3, whose witness is as
    # small as its size-reduced canonical bases, and the definite column
    # search of a negative definite source, a scrambled -I_5
    "solve-antisymmetric": [
        "solve", "--A", "@J5-scrambled-a.mat", "--B", "@J5-scrambled-b.mat", "--k", "3",
        "--budget", "1",
    ],
    "solve-negative-definite": ["solve", "--A", "@minusI5-scrambled.mat", "--B", "minusCP2", "--k", "2"],
}


def _argv(name: str, as_json: bool) -> list:
    argv = [f"@{FIXTURES}/{a[1:]}" if a.startswith("@") else a for a in CASES[name]]
    return argv + ["--json"] if as_json else argv


def _run(argv: list) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue()}


def _key(name: str, as_json: bool) -> str:
    return f"{name} --json" if as_json else name


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_unchanged(name, as_json):
    expected = json.loads(GOLDEN.read_text())[_key(name, as_json)]
    assert _run(_argv(name, as_json)) == expected


def _regenerate() -> None:
    doc = {
        _key(name, as_json): _run(_argv(name, as_json))
        for name in sorted(CASES)
        for as_json in (False, True)
    }
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    _regenerate()
