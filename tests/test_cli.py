"""End-to-end tests of the command-line interface.

Everything runs through ``edgestab.cli.run`` in-process: exit codes, report
structure, schema diagnostics, determinism across worker counts, and the
flag plumbing for regions and tolerances.  The cold-start tests alone start a
fresh interpreter, to see what importing the package pulls in.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

import edgestab
from edgestab.cli import run

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
DEMO = str(FIXTURES / "demo3x3.json")
BAD_VERTEX = str(FIXTURES / "vertex_insufficiency.json")
DEGREE_DROP = str(FIXTURES / "degree_drop.json")
TRUNCATION = str(FIXTURES / "truncation.json")
# every member's determinant is about -1e-13 s^2 + s + 1: the leading
# coefficient cancels in the computation, not in the input
CANCELLATION = str(FIXTURES / "cancellation.json")
# interval bounds whose top coefficient, -1e-13, lies below the truncation floor
INTERVAL_TRUNCATION = str(FIXTURES / "interval_truncation.json")
# a vertex with an Infinity coefficient
NONFINITE = str(FIXTURES / "nonfinite_coefficient.json")
# finite vertices whose determinant, about 1e400 * (1 + s)^2, overflows float64
OVERFLOW = str(FIXTURES / "overflow.json")
# finite vertices whose edge difference, about -3e308 in the constant term, overflows
DELTA_OVERFLOW = str(FIXTURES / "delta_overflow.json")


def run_json(argv, capsys):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def write(tmp_path, doc, name="family.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


# ----------------------------------------------------------------------
# analyze: verdicts and exit codes


def test_analyze_stable_family(capsys):
    code, rep = run_json(["analyze", DEMO], capsys)
    assert code == 0
    assert rep["verdict"]["status"] == "RobustlyStable"
    assert rep["config_count"] == 384
    assert rep["configs_checked"] == 384
    assert all(c["status"] == "RobustlyStable" for c in rep["configs"])
    assert rep["mode"] == "polytope"
    assert rep["n"] == 3
    assert rep["wall_time_s"] is None
    assert rep["tool"]["name"] == "edgestab"
    digest = "sha256:" + hashlib.sha256(pathlib.Path(DEMO).read_bytes()).hexdigest()
    assert rep["input_digest"] == digest
    assert "lambda coordinates jointly" in rep["interpretation"]


def test_analyze_unstable_family_with_witness(capsys):
    code, rep = run_json(["analyze", BAD_VERTEX], capsys)
    assert code == 1
    assert rep["verdict"]["status"] == "Unstable"
    w = rep["witness_reproduction"]
    assert w is not None
    assert w["assembled_matches_direct"] is True
    assert w["reproduced_margin"] <= 1e-6
    assert isinstance(w["determinant_coeffs"], list)
    assert w["configuration"] is not None
    assert len(w["lambda"]) >= 1


def test_analyze_degenerate_family(capsys):
    code, rep = run_json(["analyze", DEGREE_DROP], capsys)
    assert code == 2
    assert rep["verdict"]["status"] == "Degenerate"
    assert "degree" in rep["verdict"]["reason"]


def test_analyze_truncated_input_is_degenerate(capsys):
    code, rep = run_json(["analyze", TRUNCATION], capsys)
    assert code == 2
    assert rep["verdict"]["status"] == "Degenerate"
    assert "truncation" in rep["verdict"]["reason"]


def test_analyze_cancelled_leading_coefficient_is_degenerate(capsys):
    code, rep = run_json(["analyze", CANCELLATION], capsys)
    assert code == 2
    assert rep["verdict"]["status"] == "Degenerate"
    assert "degree drop" in rep["verdict"]["reason"]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_analyze_overflowing_determinant_is_degenerate(capsys, jobs):
    code, rep = run_json(["analyze", OVERFLOW, "--jobs", jobs], capsys)
    assert code == 2
    assert rep["verdict"]["status"] == "Degenerate"
    assert "overflow" in rep["verdict"]["reason"]
    assert all(c["status"] == "Degenerate" for c in rep["configs"])


def test_analyze_overflowing_edge_difference_is_degenerate(capsys):
    code, rep = run_json(["analyze", DELTA_OVERFLOW], capsys)
    assert code == 2
    assert rep["verdict"]["status"] == "Degenerate"
    assert "overflow" in rep["verdict"]["reason"]


def test_analyze_inconclusive_via_loose_band(capsys):
    code, rep = run_json(["analyze", DEMO, "--zero-margin", "0.9"], capsys)
    assert code == 3
    assert rep["verdict"]["status"] == "Inconclusive"


def test_analyze_timing_flag(capsys):
    code, rep = run_json(["analyze", DEMO, "--timing"], capsys)
    assert code == 0
    assert isinstance(rep["wall_time_s"], float)


# ----------------------------------------------------------------------
# determinism across worker counts


def test_reports_identical_across_jobs(tmp_path, capsys):
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    assert run(["analyze", DEMO, "--jobs", "1", "--report", str(r1)]) == 0
    assert run(["analyze", DEMO, "--jobs", "2", "--report", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def mixed_length_doc():
    # off-diagonal vertices of lengths 1 and 2: consecutive configurations
    # change cell lengths, so determinant runs break inside every chunk
    diag = {"vertices": [[2.0, 3.0, 1.0], [2.2, 3.1, 1.05]]}
    off = {"vertices": [[0.05], [0.04, 0.03]]}
    entries = [[diag if i == j else off for j in range(3)] for i in range(3)]
    return {"n": 3, "region": {"type": "hurwitz"}, "mode": "polytope", "entries": entries}


def test_mixed_length_reports_identical_across_jobs(tmp_path):
    path = write(tmp_path, mixed_length_doc())
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    assert run(["analyze", path, "--jobs", "1", "--report", str(r1)]) == 0
    assert run(["analyze", path, "--jobs", "2", "--report", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()


@pytest.mark.parametrize("jobs", ["0", "-4"])
def test_analyze_rejects_jobs_below_one(capsys, jobs):
    assert run(["analyze", DEMO, "--jobs", jobs]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "jobs must be a positive integer" in captured.err


def test_unstable_reports_identical_across_jobs(tmp_path):
    r1 = tmp_path / "r1.json"
    r3 = tmp_path / "r3.json"
    assert run(["analyze", BAD_VERTEX, "--jobs", "1", "--report", str(r1)]) == 1
    assert run(["analyze", BAD_VERTEX, "--jobs", "3", "--report", str(r3)]) == 1
    assert r1.read_bytes() == r3.read_bytes()


# ----------------------------------------------------------------------
# enumerate


def test_enumerate_count_only(capsys):
    assert run(["enumerate", DEMO, "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == "384"


def test_enumerate_report(capsys):
    code, rep = run_json(["enumerate", DEMO], capsys)
    assert code == 0
    assert rep["config_count"] == 384
    assert "configs" not in rep


def test_enumerate_list_limit(capsys):
    code, rep = run_json(["enumerate", DEMO, "--list", "5"], capsys)
    assert code == 0
    assert len(rep["configs"]) == 5
    first = rep["configs"][0]
    assert first["index"] == 0
    assert first["sigma"] == [1, 2, 3]


def test_enumerate_rejects_negative_list(capsys):
    assert run(["enumerate", DEMO, "--list", "-3"]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--list must be nonnegative" in captured.err


# ----------------------------------------------------------------------
# validate


def test_validate_clean_file(capsys):
    code, rep = run_json(["validate", DEMO], capsys)
    assert code == 0
    assert all(d["level"] != "error" for d in rep["diagnostics"])


def test_validate_bound_order_error(tmp_path, capsys):
    doc = {
        "n": 1,
        "region": {"type": "hurwitz"},
        "entries": [[{"lower": [2.0, 1.0], "upper": [1.0, 1.0]}]],
    }
    code, rep = run_json(["validate", write(tmp_path, doc)], capsys)
    assert code == 64
    assert any(d["code"] == "bound-order" for d in rep["diagnostics"])


# ----------------------------------------------------------------------
# oracle


def test_oracle_stable(capsys):
    code, rep = run_json(["oracle", DEMO, "--budget", "200", "--seed", "4"], capsys)
    assert code == 0
    assert rep["sampling"]["verdict"] == "StableAtAllSamples"
    assert rep["sampling"]["samples"] == 200


def test_oracle_unstable_grid(capsys):
    code, rep = run_json(
        ["oracle", BAD_VERTEX, "--budget", "4000", "--scheme", "grid"], capsys
    )
    assert code == 1
    assert rep["sampling"]["verdict"] == "UnstableSampleFound"
    assert rep["sampling"]["worst_margin"] < 0


def test_oracle_sees_cancelled_leading_coefficient(capsys):
    code, rep = run_json(["oracle", CANCELLATION, "--budget", "200"], capsys)
    assert code == 1
    assert rep["sampling"]["verdict"] == "UnstableSampleFound"
    assert rep["sampling"]["worst_member"]["worst_root"][0] > 1e12


def test_oracle_refuses_truncated_input(capsys):
    assert run(["oracle", TRUNCATION, "--budget", "200"]) == 64
    assert "truncation" in capsys.readouterr().err


def test_oracle_refuses_truncated_interval_bounds(capsys):
    # analyze calls the family Degenerate; the oracle must not re-truncate
    # its worst member and report it stable
    assert run(["analyze", INTERVAL_TRUNCATION]) == 2
    capsys.readouterr()
    assert run(["oracle", INTERVAL_TRUNCATION, "--budget", "200"]) == 64
    assert "truncation" in capsys.readouterr().err


@pytest.mark.parametrize("scheme", ["random", "grid"])
def test_oracle_refuses_overflowing_determinant(capsys, scheme):
    assert run(["oracle", OVERFLOW, "--budget", "200", "--scheme", scheme]) == 64
    assert "overflow" in capsys.readouterr().err


# ----------------------------------------------------------------------
# input errors -> exit 64


SUBCOMMANDS = ["analyze", "oracle", "enumerate", "validate"]


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_missing_file(command, tmp_path, capsys):
    # every subcommand loads its file through one helper, so they all
    # name the path in the same message
    path = tmp_path / "family.json"
    assert run([command, str(path)]) == 64
    assert capsys.readouterr().err == f"error: cannot read {path}: No such file or directory\n"


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_invalid_json(command, tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert run([command, str(p)]) == 64
    err = capsys.readouterr().err
    assert err.startswith(f"error: {p} is not valid JSON: Expecting property name") and err.count("\n") == 1


@pytest.mark.parametrize(
    "doc",
    [
        {"region": {"type": "hurwitz"}, "entries": [[{"vertices": [[1.0]]}]]},  # no n
        {"n": 0, "region": {"type": "hurwitz"}, "entries": []},  # bad n
        {"n": 1, "region": {"type": "wedge"}, "entries": [[{"vertices": [[1.0]]}]]},
        {"n": 2, "region": {"type": "hurwitz"}, "entries": [[{"vertices": [[1.0]]}]]},
        {"n": 1, "region": {"type": "hurwitz"}, "entries": [[{"spam": 1}]]},
        {
            "n": 1,
            "region": {"type": "hurwitz"},
            "entries": [[{"vertices": [[1.0, "x"]]}]],
        },
        {
            "n": 1,
            "mode": "interval",
            "region": {"type": "hurwitz"},
            "entries": [[{"vertices": [[1.0]]}]],
        },  # declared mode mismatch
        {
            "n": 1,
            "region": {"type": "hurwitz"},
            "entries": [[{"lower": [1.0], "upper": [1.0, 2.0]}]],
        },  # ragged bounds
    ],
)
def test_schema_errors(tmp_path, capsys, doc):
    assert run(["analyze", write(tmp_path, doc)]) == 64


def test_schema_error_message_names_path(tmp_path, capsys):
    doc = {"n": 1, "region": {"type": "hurwitz"}, "entries": [[{"spam": 1}]]}
    assert run(["analyze", write(tmp_path, doc)]) == 64
    err = capsys.readouterr().err
    assert "$.entries[0][0]" in err


def test_interval_family_region_restriction(tmp_path, capsys):
    doc = {
        "n": 1,
        "region": {"type": "disk", "center": 0.0, "radius": 1.0},
        "entries": [[{"lower": [1.0, 1.0], "upper": [2.0, 2.0]}]],
    }
    assert run(["analyze", write(tmp_path, doc)]) == 64
    assert "rewrite the entries as explicit vertex polytopes" in capsys.readouterr().err


def test_bad_tolerance_rejected(tmp_path, capsys):
    # only zero_margin and degree_eps exist, as flags and as file tolerances
    for flag in ("--grid", "--refine-depth", "--box-depth"):
        assert run(["analyze", DEMO, flag, "2"]) == 64
    # margins must be finite
    assert run(["analyze", DEMO, "--zero-margin", "inf"]) == 64
    assert run(["analyze", DEMO, "--degree-eps", "nan"]) == 64
    doc = json.loads(pathlib.Path(DEMO).read_text())
    for block in (
        {"boundary_grid": math.inf},
        {"boundary_grid": 10**400},
        {"refine_depth": math.nan},
        {"box_depth": 2.7},
        {"zero_margin": math.inf},
        {"degree_eps": math.nan},
    ):
        doc["tolerances"] = block
        assert run(["analyze", write(tmp_path, doc)]) == 64, block


def one_cell(cell, region=None):
    return {"n": 1, "region": region or {"type": "hurwitz"}, "entries": [[cell]]}


NONFINITE_DOCS = {
    "fixture": json.loads(pathlib.Path(NONFINITE).read_text()),
    "vertex_infinity": one_cell({"vertices": [[1.0, 2.0, 1.0], [1.0, math.inf, 1.0]]}),
    "vertex_overflowing_integer": one_cell({"vertices": [[1.0, 2.0, 10**400]]}),
    "interval_nan_bound": one_cell({"lower": [1.0, math.nan], "upper": [2.0, 1.0]}),
    "shift_nan": one_cell(
        {"vertices": [[1.0, 1.0]]}, {"type": "shifted_half_plane", "sigma": math.nan}
    ),
    "disk_center_nan": one_cell(
        {"vertices": [[1.0, 1.0]]}, {"type": "disk", "center": [0.0, math.nan], "radius": 1.0}
    ),
    "disk_radius_infinity": one_cell(
        {"vertices": [[1.0, 1.0]]}, {"type": "disk", "center": 0.0, "radius": math.inf}
    ),
}


@pytest.mark.parametrize("name", sorted(NONFINITE_DOCS))
@pytest.mark.parametrize("command", ["analyze", "oracle", "validate", "enumerate"])
def test_nonfinite_family_file_is_schema_error(tmp_path, capsys, command, name):
    assert run([command, write(tmp_path, NONFINITE_DOCS[name])]) == 64
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("region", ["shifted:nan", "shifted:inf", "disk:nan,1", "disk:0,inf", "disk:0,-inf,1"])
@pytest.mark.parametrize("command", ["analyze", "oracle"])
def test_nonfinite_region_flag_is_schema_error(capsys, command, region):
    assert run([command, DEMO, "--region", region]) == 64
    assert "must be finite" in capsys.readouterr().err


def test_integral_float_tolerances_accepted(tmp_path, capsys):
    # a JSON integer is a number like any other: accepted as a tolerance,
    # and reported as the float it sets (zero_margin 1 leaves demo3x3
    # Inconclusive)
    doc = json.loads(pathlib.Path(DEMO).read_text())
    doc["tolerances"] = {"zero_margin": 1, "degree_eps": 1e-9}
    code, rep = run_json(["analyze", write(tmp_path, doc)], capsys)
    assert code == 3
    assert rep["tolerances"] == {"degree_eps": 1e-9, "zero_margin": 1.0}
    assert isinstance(rep["tolerances"]["zero_margin"], float)


def test_usage_error(capsys):
    assert run(["frobnicate", DEMO]) == 64


# ----------------------------------------------------------------------
# region override and tolerance precedence


def test_region_override_changes_verdict(tmp_path, capsys):
    # roots at -1: Hurwitz-stable, but not stable for the half-plane Re < -2
    doc = {
        "n": 1,
        "region": {"type": "hurwitz"},
        "entries": [[{"vertices": [[1.0, 1.0], [1.1, 1.0]]}]],
    }
    path = write(tmp_path, doc)
    assert run(["analyze", path]) == 0
    capsys.readouterr()
    code, rep = run_json(["analyze", path, "--region", "shifted:-2"], capsys)
    assert code == 1
    assert rep["region"]["type"] == "shifted_half_plane"


def test_region_flag_rejects_garbage(capsys):
    assert run(["analyze", DEMO, "--region", "pentagon:3"]) == 64


def test_tolerance_flag_beats_file_block(tmp_path, capsys):
    doc = json.loads(pathlib.Path(DEMO).read_text())
    doc["tolerances"] = {"zero_margin": 0.9}
    path = write(tmp_path, doc)
    # file block alone forces Inconclusive
    assert run(["analyze", path]) == 3
    capsys.readouterr()
    # flag restores the default band and the verdict
    assert run(["analyze", path, "--zero-margin", "1e-7"]) == 0
    capsys.readouterr()
    code, rep = run_json(["analyze", path, "--zero-margin", "1e-7"], capsys)
    assert rep["tolerances"]["zero_margin"] == 1e-7


def test_report_file_matches_stdout(tmp_path, capsys):
    via_file = tmp_path / "rep.json"
    assert run(["analyze", DEMO, "--report", str(via_file)]) == 0
    captured = capsys.readouterr().out
    assert captured == ""
    code, rep = run_json(["analyze", DEMO], capsys)
    assert via_file.read_text().strip() == json.dumps(
        rep, sort_keys=True, indent=2
    )


# ----------------------------------------------------------------------
# cold start: the analyzer needs numpy only

PACKAGE_ROOT = str(pathlib.Path(edgestab.__file__).resolve().parents[1])

BLOCKED_SCIPY_RUN = """
import json, os, sys
sys.modules["scipy"] = None  # any import of scipy now raises ModuleNotFoundError
from edgestab.cli import main
runs = json.loads(sys.argv[1])
with open(os.devnull, "w") as sink:
    sys.stdout = sink
    codes = [main(argv) for argv in runs]
sys.stdout = sys.__stdout__
print(json.dumps(codes))
"""


def fresh_python(*args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", *args], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_cli_runs_with_scipy_blocked():
    runs = [
        (["analyze", DEMO], 0),
        (["analyze", BAD_VERTEX, "--jobs", "2"], 1),
        (["oracle", BAD_VERTEX, "--scheme", "grid"], 1),
        (["analyze", DEGREE_DROP], 2),
    ]
    out = fresh_python(BLOCKED_SCIPY_RUN, json.dumps([argv for argv, _ in runs]))
    assert json.loads(out) == [code for _, code in runs]


def test_importing_the_cli_imports_no_scipy():
    out = fresh_python("import sys, edgestab.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert out.strip() == "[]"
