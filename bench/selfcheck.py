"""Quick self-check of the benchmark: about 15 seconds on two cores.

    python3 bench/selfcheck.py

1. The reference checker rejects planted wrong answers (an unstable family
   reported stable, a vertex-insufficiency family given any verdict but
   Unstable, a witness that is not one, a counterexample that is stable, a
   wrong configuration count, a wrong oracle report) and accepts the right
   ones.  Only the truncation family's documented failure is excused, and a
   witness the checker cannot rebuild counts as a failed operation.
2. Every workload runs one pass at a small size and reports a well-formed
   result; the only failed operation is the truncation family in ``triage``.
3. Two traced runs of the same seed give identical per-layer counts.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import numpy as np

import families
import reference
import run as bench_run

HERE = pathlib.Path(__file__).resolve().parent
EXPECTED_FAILED = {"certify": 0, "triage": 1, "oracle": 0, "parallel": 0}

problems: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        problems.append(what)


def planted_answers() -> None:
    unstable = families.anchor_unstable(7, "selfcheck", 2)
    check = reference.FamilyCheck(unstable, 7)
    expect(check.verdict({"status": "RobustlyStable", "witness": None}) is not None,
           "rejects a known-unstable family reported RobustlyStable")
    expect(check.verdict({"status": "Inconclusive", "witness": None}) is not None,
           "rejects Inconclusive where an all-vertex member is unstable")
    anchor = {"config_index": 0, "lambda": [0.0, 0.0], "root": None, "theta": None}
    expect(check.verdict({"status": "Unstable", "witness": anchor}) is None,
           "accepts the unstable anchor as a witness")
    expect(check.count(reference.count_formula(unstable) + 1) is not None,
           "rejects a wrong configuration count")
    expect(check.count(8) is None, "accepts the right count (8) of a 2x2 two-vertex family")

    stable = families.dominant(7, "selfcheck", 3, {(0, 0), (1, 1), (2, 2)})
    check = reference.FamilyCheck(stable, 7)
    expect(check.verdict({"status": "RobustlyStable", "witness": None}) is None,
           "accepts RobustlyStable on a diagonally dominant family")
    fake = {"config_index": 0, "lambda": [0.5, 0.5, 0.5], "root": None, "theta": None}
    expect(check.verdict({"status": "Unstable", "witness": fake}) is not None,
           "rejects a witness whose member is stable")
    vertex0 = [[1.0, 0.0] if i == j else [1.0] for i in range(3) for j in range(3)]
    expect(check.counterexample(vertex0, -0.5) is not None,
           "rejects a counterexample whose member is stable")
    margin, _ = reference.member_margin(stable["region"], reference.weights_member(stable, vertex0))
    report = {"samples": 100, "worst_margin": margin, "worst_member": {"weights": vertex0}}
    expect(check.sample_report(report, 100) is None,
           "accepts an oracle report that recomputes")
    expect(check.sample_report(dict(report, samples=99), 100) is not None,
           "rejects an oracle report with the wrong sample count")
    expect(check.sample_report(dict(report, worst_margin=margin + 0.1), 100) is not None,
           "rejects an oracle report whose worst member does not recompute")

    insufficient = families.insufficiency(7, "selfcheck")
    check = reference.FamilyCheck(insufficient, 7, unstable=True)
    for status in ("RobustlyStable", "Inconclusive", "Degenerate"):
        expect(check.verdict({"status": status, "witness": None}) is not None,
               f"rejects {status} on the vertex-insufficiency family")
    vertex0 = [[1.0] + [0.0] * (len(cell["vertices"]) - 1) for row in insufficient["entries"] for cell in row]
    margin, _ = reference.member_margin(insufficient["region"], reference.weights_member(insufficient, vertex0))
    worst = {"samples": 100, "worst_margin": margin, "worst_member": {"weights": vertex0}}
    expect(margin > 0.0 and check.sample_report(worst, 100) is not None,
           "rejects an oracle report with no unstable member on the vertex-insufficiency family")

    trunc = reference.FamilyCheck(families.TRUNCATION_DOC, 7)
    fault = trunc.verdict({"status": "RobustlyStable", "witness": None})
    expect(fault is not None, "rejects RobustlyStable on the truncation family")
    spec = next(s for s in families.triage(7, small=True) if s.known_fault)
    expect(bench_run.only_known_faults([(spec, "analyze", fault)]),
           "excuses the truncation family's documented failure")
    expect(not bench_run.only_known_faults([(spec, "call", "RuntimeError: boom")]),
           "does not excuse a crash on the truncation family")
    expect(not bench_run.only_known_faults([(spec, "count_configs", "count_configs gave 2, the closed formula 1")]),
           "does not excuse another failed operation on the truncation family")
    expect(trunc.verdict({"status": "Degenerate", "witness": None}) is None,
           "accepts Degenerate on the truncation family")
    det = reference.leibniz_det([[np.array([1.0, 2.0, 1.0, -1e-13])]])
    expect(np.max(np.roots(det).real) > 1e12, "reference roots keep the root near +1e13")

    def malformed(out):
        return [("analyze", check.witness({"config_index": 10**6, "lambda": []}))]

    ops = bench_run.judge([(bench_run.Step(spec, None, malformed), None, None)])
    expect(len(ops) == 1 and ops[0][1] == "judge" and ops[0][2] is not None,
           "counts a witness the checker cannot rebuild as a failed operation")


def run(workload: str, trace: int) -> dict | None:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "0", "--trace", str(trace), "--small"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        expect(False, f"{workload} trace={trace} exits 0 with a result ({proc.stderr.strip()[-300:]})")
        return None
    return json.loads(lines[-1])


def workloads() -> None:
    for workload, failed in EXPECTED_FAILED.items():
        result = run(workload, 0)
        if result is None:
            continue
        keys = set(result["metrics"])
        expect(keys == {"setup_s", "wall_ref", "peak_rss_mb"},
               f"{workload}: end-to-end metrics present")
        expect(result["correct"] and result["attempted"] > 0 and result["failed"] == failed,
               f"{workload}: correct, {result['attempted']} attempted, {result['failed']} failed "
               f"(expected {failed})")
        expect(all(m["value"] > 0 for m in result["metrics"].values()), f"{workload}: metrics nonzero")


def traced_counts() -> None:
    runs = [run("triage", 1) for _ in range(2)]
    if None in runs:
        return
    counts = [
        {k: m["value"] for k, m in r["metrics"].items() if m["unit"] == "count"} for r in runs
    ]
    expect(counts[0] == counts[1] and counts[0]["stab.box_stable_calls"] > 0,
           "two traced runs give identical per-layer counts")


if __name__ == "__main__":
    planted_answers()
    workloads()
    traced_counts()
    print("self-check", "FAILED: " + "; ".join(problems) if problems else "passed")
    sys.exit(1 if problems else 0)
