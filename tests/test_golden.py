"""Golden-report regression test.

``tests/golden/`` holds reports of ``edgestab analyze`` (four family
fixtures) and of ``edgestab oracle`` (the grid scheme on an n = 2 family,
the random scheme on an n = 4 one), generated without ``--timing``.
Regenerating them must give the same statuses, reasons, configuration
indices and witness configurations, and the same numbers to 1e-9 relative;
analyze reports must also be byte-identical for one and two worker
processes.  Refresh a golden file only for an intended change of the
report, and say why in CHANGES.md.
"""

from __future__ import annotations

import json
import math
import pathlib

import pytest

from edgestab.cli import run

HERE = pathlib.Path(__file__).parent
FIXTURES = HERE / "fixtures"
GOLDEN = HERE / "golden"
REL_TOL = 1e-9


def _report(argv, tmp_path, name) -> str:
    out = tmp_path / name
    run(argv + ["--report", str(out)])
    return out.read_text()


def _normalised(text: str) -> dict:
    doc = json.loads(text)
    doc["input"] = pathlib.Path(doc["input"]).name
    return doc


def _assert_matches(got, want, path="report"):
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), path
        for key in want:
            _assert_matches(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_matches(g, w, f"{path}[{i}]")
    elif isinstance(want, float) and not isinstance(got, bool):
        assert isinstance(got, (int, float)), path
        assert math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0), f"{path}: {got} != {want}"
    else:
        assert got == want, f"{path}: {got!r} != {want!r}"


@pytest.mark.parametrize(
    "golden, argv",
    [
        ("analyze_demo3x3", ["analyze", "demo3x3.json"]),
        ("analyze_vertex_insufficiency", ["analyze", "vertex_insufficiency.json"]),
        ("analyze_degree_drop", ["analyze", "degree_drop.json"]),
        (
            "oracle_grid_vertex_insufficiency",
            ["oracle", "vertex_insufficiency.json", "--scheme", "grid", "--budget", "1000"],
        ),
        ("analyze_diagonal3", ["analyze", "diagonal3.json"]),
        (
            "oracle_random_dominant4_partial",
            ["oracle", "dominant4_partial.json", "--budget", "4096", "--seed", "43"],
        ),
    ],
)
def test_reports_match_golden(golden, argv, tmp_path):
    command, family, *flags = argv
    argv = [command, str(FIXTURES / family), *flags]
    want = _normalised((GOLDEN / f"{golden}.json").read_text())
    text = _report(argv, tmp_path, "serial.json")
    _assert_matches(_normalised(text), want)
    if command == "analyze":
        assert _report(argv + ["--jobs", "2"], tmp_path, "jobs2.json") == text


# ``tests/golden/oracle_bitwise.json`` pins ``sample_family(...).describe()``
# bit for bit: every float is compared through its ``repr``, which a change
# in the last bit alters.  Regenerate it with ``python tests/test_golden.py``
# only for an intended change of the oracle's numbers, and say why in
# CHANGES.md.
ORACLE_BITWISE = [
    ("demo3x3.json", None, "random", 4096, 43),
    ("dominant4_partial.json", "shifted:-0.2", "random", 4096, 43),
    ("dominant4_partial.json", "shifted:-0.2", "grid", 1000, 0),
    ("mixed_lengths.json", None, "grid", 1000, 0),
    ("diagonal3.json", "disk:-2,2.5", "random", 4096, 43),
    ("vertex_insufficiency.json", None, "grid", 1000, 0),
    ("cancellation.json", None, "random", 4096, 43),
]


def _bitwise(x):
    """``x`` with every float replaced by its ``repr``."""
    if isinstance(x, dict):
        return {k: _bitwise(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_bitwise(v) for v in x]
    if isinstance(x, float):
        return repr(x)
    return x


def _oracle_bitwise_report(family, region, scheme, budget, seed) -> dict:
    from edgestab.cli import _region_from_flag, parse_family
    from edgestab.oracle import sample_family

    fam = parse_family(str(FIXTURES / family), _region_from_flag(region) if region else None)
    return _bitwise(sample_family(fam, budget=budget, seed=seed, scheme=scheme).describe())


@pytest.mark.parametrize("case", ORACLE_BITWISE, ids=lambda c: "-".join(str(x) for x in c))
def test_oracle_reports_match_golden_bitwise(case):
    want = json.loads((GOLDEN / "oracle_bitwise.json").read_text())
    key = "|".join(str(x) for x in case)
    assert _oracle_bitwise_report(*case) == want[key]


if __name__ == "__main__":
    doc = {"|".join(str(x) for x in case): _oracle_bitwise_report(*case) for case in ORACLE_BITWISE}
    (GOLDEN / "oracle_bitwise.json").write_text(json.dumps(doc, indent=1) + "\n")
