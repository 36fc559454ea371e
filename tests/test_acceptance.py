"""Acceptance gate: nine field criteria, one test and one printed line each.

Each test prints ``[acceptance] criterion N: PASS/FAIL - details`` straight
to the terminal (bypassing capture) so a test run leaves an auditable
one-line record per criterion, then asserts the same condition.
"""

from __future__ import annotations

import itertools
import json
import math
import pathlib
import time
from math import comb, factorial

import numpy as np
import pytest

from edgestab import (
    EdgeSegment,
    HurwitzHalfPlane,
    IntervalEntry,
    MatrixFamily,
    Polynomial,
    PolytopeEntry,
    Status,
    analyze_family,
    analyze_family_detailed,
    analyze_interval,
    config_at,
    count_configs,
    det_matrix,
    det_parametric,
    find_counterexample_near,
    iter_configs,
    member_margin,
    sample_family,
    segment_stable,
)
from edgestab.cli import _render, run
from edgestab.edges import permutations_in_order

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
REGION = HurwitzHalfPlane()


def announce(capsys, num: int, ok: bool, details: str) -> None:
    with capsys.disabled():
        print(f"[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'} - {details}")


# ----------------------------------------------------------------------
# shared generators (seeded; criterion 9 replays criterion 1's suite)


def _random_entry(rng, scale=5.0, max_deg=3):
    verts = []
    for _ in range(2):
        d = int(rng.integers(0, max_deg + 1))
        verts.append(Polynomial(rng.uniform(-scale, scale, d + 1)))
    return PolytopeEntry(verts)


def _biased_entry(rng, diagonal: bool):
    """Perturbed vertices around a stable-skeleton entry, coefficients in [-5, 5]."""
    if diagonal:
        a, b = rng.uniform(0.5, 1.8, 2)
        base = np.array([a * b, a + b, 1.0]) if rng.random() < 0.7 else np.array([a, 1.0])
    else:
        base = np.array([rng.uniform(-0.2, 0.2)])
    verts = []
    for _ in range(2):
        bump = rng.uniform(-0.1, 0.1, base.size)
        verts.append(Polynomial(np.clip(base + bump, -5.0, 5.0)))
    return PolytopeEntry(verts)


def consistency_suite():
    """200 seeded families, n in {2, 3}, two vertices per cell, degree <= 3.

    The first hundred are drawn uniformly (almost always unstable); the
    second hundred perturb diagonally dominant skeletons so that genuine
    robust-stability certificates are exercised too.
    """
    fams = []
    for i in range(200):
        rng = np.random.default_rng(20_000 + i)
        n = 2 + (i % 2)
        if i < 100:
            entries = [[_random_entry(rng) for _ in range(n)] for _ in range(n)]
        else:
            entries = [
                [_biased_entry(rng, diagonal=(r == c)) for c in range(n)]
                for r in range(n)
            ]
        fams.append(MatrixFamily(entries, REGION))
    return fams


_SUITE_REPORTS: dict[int, tuple[str, list]] = {}


def suite_reports(jobs: int) -> tuple[str, list]:
    """Analysis reports for the whole suite at a given worker count."""
    if jobs not in _SUITE_REPORTS:
        chunks = []
        verdicts = []
        for i, fam in enumerate(consistency_suite()):
            verdict, outcomes = analyze_family_detailed(fam, jobs=jobs)
            verdicts.append(verdict)
            chunks.append(
                _render(
                    {
                        "family": i,
                        "n": fam.n,
                        "config_count": count_configs(fam),
                        "verdict": verdict.describe(),
                        "configs": [
                            {
                                "index": o.index,
                                "status": o.status.value,
                                "margin": o.margin,
                                "reason": o.reason,
                            }
                            for o in outcomes
                        ],
                    }
                )
            )
        _SUITE_REPORTS[jobs] = ("\n".join(chunks), verdicts)
    return _SUITE_REPORTS[jobs]


# ----------------------------------------------------------------------
# 1. analyzer vs oracle over the random-family suite


def test_criterion_1_family_consistency_sweep(capsys):
    started = time.monotonic()
    _, verdicts = suite_reports(jobs=1)
    fams = consistency_suite()

    hard_failures = 0
    inconclusive = 0
    tally = {s: 0 for s in Status}
    for i, (fam, verdict) in enumerate(zip(fams, verdicts)):
        tally[verdict.status] += 1
        if verdict.status is Status.INCONCLUSIVE:
            inconclusive += 1
        corners = sample_family(fam, budget=2 ** (fam.n * fam.n), scheme="grid")
        randoms = sample_family(fam, budget=10_000, seed=i, scheme="random")
        found_bad = min(corners.worst_margin, randoms.worst_margin) <= 0.0
        if verdict.status is Status.ROBUSTLY_STABLE and found_bad:
            hard_failures += 1
    elapsed = time.monotonic() - started

    detail = (
        f"{hard_failures} hard failures, {inconclusive}/200 inconclusive, "
        f"statuses {{RS: {tally[Status.ROBUSTLY_STABLE]}, U: {tally[Status.UNSTABLE]}, "
        f"D: {tally[Status.DEGENERATE]}, I: {tally[Status.INCONCLUSIVE]}}}, "
        f"{elapsed:.1f}s"
    )
    ok = hard_failures == 0 and inconclusive < 20 and elapsed < 600.0
    announce(capsys, 1, ok, detail)
    assert hard_failures == 0, detail
    assert inconclusive < 20, detail
    assert elapsed < 600.0, detail


# ----------------------------------------------------------------------
# 2. interval analysis vs the classical four-polynomial check


def _classical_four_polynomial_status(lower, upper):
    """Hurwitz check of the four extreme-coefficient polynomials.

    Built from scratch: the alternation patterns are written out literally
    and each polynomial is root-tested with numpy, independent of the
    library's interval machinery.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    L = lower.size
    lower_phase = [(0, 1), (0, 3), (1, 2), (2, 3)]
    worst = math.inf
    for phases in lower_phase:
        coeffs = np.array(
            [lower[l] if l % 4 in phases else upper[l] for l in range(L)]
        )
        while coeffs.size > 1 and coeffs[-1] == 0.0:
            coeffs = coeffs[:-1]
        if coeffs.size == 1:
            continue  # constant: no roots to place
        roots = np.roots(coeffs[::-1])
        worst = min(worst, float(np.min(-roots.real)))
    stable = worst > 0.0
    return stable, worst


def test_criterion_2_interval_vs_kharitonov(capsys):
    started = time.monotonic()
    compared = 0
    mismatches = 0
    for i in range(100):
        rng = np.random.default_rng(31_000 + i)
        d = 1 + (i % 5)
        center = rng.uniform(-5.0, 5.0, d + 1)
        width = rng.uniform(0.0, 1.5, d + 1)
        center[d] = rng.uniform(0.5, 5.0)
        width[d] = rng.uniform(0.0, 0.4 * center[d])
        lower, upper = center - width, center + width

        fam = MatrixFamily([[IntervalEntry(lower, upper)]], REGION)
        verdict = analyze_interval(fam)
        classical_stable, classical_margin = _classical_four_polynomial_status(
            lower, upper
        )
        if verdict.status not in (Status.ROBUSTLY_STABLE, Status.UNSTABLE):
            continue
        if verdict.margin is None or abs(verdict.margin) <= 1e-6:
            continue
        if abs(classical_margin) <= 1e-6:
            continue
        compared += 1
        if (verdict.status is Status.ROBUSTLY_STABLE) != classical_stable:
            mismatches += 1
    elapsed = time.monotonic() - started

    detail = f"{mismatches} mismatches over {compared}/100 conclusive, {elapsed:.1f}s"
    ok = mismatches == 0 and compared > 0 and elapsed < 60.0
    announce(capsys, 2, ok, detail)
    assert mismatches == 0, detail
    assert compared > 0, detail
    assert elapsed < 60.0, detail


# ----------------------------------------------------------------------
# 3. configuration count and enumeration order of the 3x3 demo family


def test_criterion_3_enumeration_contract(capsys):
    doc = json.loads((FIXTURES / "demo3x3.json").read_text())
    entries = [
        [PolytopeEntry([Polynomial(v) for v in cell["vertices"]]) for cell in row]
        for row in doc["entries"]
    ]
    fam = MatrixFamily(entries, REGION)

    n, m = 3, 2
    formula = factorial(n) * comb(m, 2) ** n * m ** (n * n - n)
    counted = count_configs(fam)
    streamed = sum(1 for _ in iter_configs(fam))

    # one-line images j -> sigma(j), 1-based; the config stream holds each
    # permutation fixed while cycling the edge and vertex choices
    first_six = [
        [s + 1 for s in sigma] for sigma in permutations_in_order(3)
    ]
    per_sigma = counted // factorial(n)
    stream_six = [
        config_at(fam, b * per_sigma).describe()["sigma"] for b in range(6)
    ]
    expected_prefix = [
        [1, 2, 3],
        [2, 3, 1],
        [3, 1, 2],
        [1, 3, 2],
        [2, 1, 3],
        [3, 2, 1],
    ]

    code = run(["enumerate", str(FIXTURES / "demo3x3.json"), "--count-only"])
    cli_out = capsys.readouterr().out.strip()

    prefix_ok = first_six == expected_prefix and stream_six == expected_prefix
    ok = (
        formula == 384
        and counted == 384
        and streamed == 384
        and prefix_ok
        and code == 0
        and cli_out == "384"
    )
    detail = (
        f"formula {formula}, counted {counted}, streamed {streamed}, "
        f"cli '{cli_out}', permutation prefix ok {prefix_ok}"
    )
    announce(capsys, 3, ok, detail)
    assert ok, detail


# ----------------------------------------------------------------------
# 4. determinant engine vs an integer cofactor oracle


def _int_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _int_add(a, b):
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for j, y in enumerate(b):
        out[j] += y
    return out


def _int_trim(a):
    while len(a) > 1 and a[-1] == 0:
        a = a[:-1]
    return a


def _int_cofactor_det(rows):
    if len(rows) == 1:
        return rows[0][0]
    total = [0]
    for j, head in enumerate(rows[0]):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = _int_mul(head, _int_cofactor_det(minor))
        if j % 2:
            term = [-t for t in term]
        total = _int_add(total, term)
    return _int_trim(total)


def test_criterion_4_determinant_vs_cofactor_oracle(capsys):
    started = time.monotonic()
    mismatches = 0
    for i in range(500):
        rng = np.random.default_rng(44_000 + i)
        n = 1 + (i % 4)
        int_rows = []
        poly_rows = []
        for _ in range(n):
            int_row = []
            poly_row = []
            for _ in range(n):
                d = int(rng.integers(0, 4))
                coeffs = [int(c) for c in rng.integers(-9, 10, d + 1)]
                int_row.append(coeffs)
                poly_row.append(Polynomial([float(c) for c in coeffs]))
            int_rows.append(int_row)
            poly_rows.append(poly_row)
        expect = _int_trim(_int_cofactor_det(int_rows))
        got = det_matrix(poly_rows).as_list()
        if len(got) != len(expect) or any(g != float(e) for g, e in zip(got, expect)):
            mismatches += 1
    elapsed = time.monotonic() - started

    detail = f"{mismatches} mismatches over 500 matrices, {elapsed:.1f}s"
    ok = mismatches == 0 and elapsed < 30.0
    announce(capsys, 4, ok, detail)
    assert mismatches == 0, detail
    assert elapsed < 30.0, detail


# ----------------------------------------------------------------------
# 5. parametric determinant vs direct instantiation


def test_criterion_5_parametric_assembly(capsys):
    failures = 0
    for i in range(100):
        rng = np.random.default_rng(55_000 + i)
        n = 1 + (i % 3)
        entries = [[_random_entry(rng) for _ in range(n)] for _ in range(n)]
        fam = MatrixFamily(entries, REGION)
        idx = int(rng.integers(count_configs(fam)))
        cfg = config_at(fam, idx)
        pd = det_parametric(cfg)
        for _ in range(10):
            lam = rng.uniform(0.0, 1.0, pd.k)
            assembled = pd.assemble(lam)
            direct = det_matrix(cfg.instantiate(lam))
            a = np.asarray(assembled.coeffs)
            b = np.asarray(direct.coeffs)
            L = max(a.size, b.size)
            a = np.pad(a, (0, L - a.size))
            b = np.pad(b, (0, L - b.size))
            scale = max(1.0, float(np.max(np.abs(b))))
            if float(np.max(np.abs(a - b))) / scale > 1e-9:
                failures += 1

    detail = f"{failures} failures over 100 configurations x 10 points"
    ok = failures == 0
    announce(capsys, 5, ok, detail)
    assert ok, detail


# ----------------------------------------------------------------------
# 6. segment decision vs a dense parameter grid, plus the frozen fixture


def _grid_margin(p0: Polynomial, p1: Polynomial, points=1001) -> float:
    worst = math.inf
    c0 = np.asarray(p0.coeffs)
    c1 = np.asarray(p1.coeffs)
    L = max(c0.size, c1.size)
    c0 = np.pad(c0, (0, L - c0.size))
    c1 = np.pad(c1, (0, L - c1.size))
    for lam in np.linspace(0.0, 1.0, points):
        c = (1.0 - lam) * c0 + lam * c1
        c = np.trim_zeros(c, "b")
        if c.size <= 1:
            continue
        roots = np.roots(c[::-1])
        worst = min(worst, float(np.min(-roots.real)))
    return worst


def test_criterion_6_segment_vs_grid(capsys):
    compared = 0
    mismatches = 0
    for i in range(200):
        rng = np.random.default_rng(66_000 + i)
        d = 1 + (i % 5)
        c0 = rng.uniform(-5.0, 5.0, d + 1)
        c1 = rng.uniform(-5.0, 5.0, d + 1)
        c0[d] = rng.uniform(0.5, 5.0)
        c1[d] = rng.uniform(0.5, 5.0)
        p0, p1 = Polynomial(c0), Polynomial(c1)
        verdict = segment_stable(EdgeSegment(p0, p1), REGION)
        m_grid = _grid_margin(p0, p1)
        if abs(m_grid) <= 1e-5:
            continue
        compared += 1
        grid_stable = m_grid > 0.0
        if verdict.status not in (Status.ROBUSTLY_STABLE, Status.UNSTABLE):
            mismatches += 1
        elif (verdict.status is Status.ROBUSTLY_STABLE) != grid_stable:
            mismatches += 1

    # frozen pair: stable endpoints, interior boundary crossing
    pair = json.loads((FIXTURES / "segment_pair.json").read_text())
    p0 = Polynomial(pair["c0"])
    p1 = Polynomial(pair["c1"])
    verdict = segment_stable(EdgeSegment(p0, p1), REGION)
    fixture_unstable = verdict.status is Status.UNSTABLE
    lam_star = verdict.witness.lam[0] if verdict.witness and verdict.witness.lam else None
    reproduces = False
    if lam_star is not None:
        member = p0 * (1.0 - lam_star) + p1 * lam_star
        reproduces = float(np.max(member.roots().real)) >= -1e-6

    detail = (
        f"{mismatches} mismatches over {compared}/200 decisive segments; "
        f"fixture unstable {fixture_unstable}, lambda* {lam_star} "
        f"reproduces axis root {reproduces}"
    )
    ok = mismatches == 0 and compared > 100 and fixture_unstable and reproduces
    announce(capsys, 6, ok, detail)
    assert mismatches == 0, detail
    assert compared > 100, detail
    assert fixture_unstable and reproduces, detail


# ----------------------------------------------------------------------
# 7. degree drop yields Degenerate, never a certificate


def test_criterion_7_degree_drop(capsys):
    path = str(FIXTURES / "degree_drop.json")
    code = run(["analyze", path])
    capsys.readouterr()

    doc = json.loads(pathlib.Path(path).read_text())
    entries = [
        [PolytopeEntry([Polynomial(v) for v in cell["vertices"]]) for cell in row]
        for row in doc["entries"]
    ]
    verdict = analyze_family(MatrixFamily(entries, REGION))

    ok = code == 2 and verdict.status is Status.DEGENERATE
    detail = f"exit code {code}, status {verdict.status.value}"
    announce(capsys, 7, ok, detail)
    assert code == 2, detail
    assert verdict.status is Status.DEGENERATE, detail


# ----------------------------------------------------------------------
# 8. vertex matrices all stable, family unstable, counterexample found


def test_criterion_8_vertex_insufficiency(capsys):
    doc = json.loads((FIXTURES / "vertex_insufficiency.json").read_text())
    entries = [
        [PolytopeEntry([Polynomial(v) for v in cell["vertices"]]) for cell in row]
        for row in doc["entries"]
    ]
    fam = MatrixFamily(entries, REGION)

    # every all-vertex matrix is stable
    vertex_margins = []
    cells = [fam.entry(i, j) for i in range(fam.n) for j in range(fam.n)]
    for choice in itertools.product(*(range(c.m) for c in cells)):
        grid = []
        it = iter(choice)
        for i in range(fam.n):
            grid.append([cells[i * fam.n + j].vertices[next(it)] for j in range(fam.n)])
        det = det_matrix(grid)
        vertex_margins.append(float(np.min(-det.roots().real)))
    all_vertices_stable = min(vertex_margins) > 0.0

    verdict = analyze_family(fam)
    family_unstable = verdict.status is Status.UNSTABLE

    rec = None
    if family_unstable and verdict.witness is not None:
        rec = find_counterexample_near(
            fam,
            hint=(verdict.witness.config_index, verdict.witness.lam),
            budget=400,
            seed=0,
            target=-1e-4,
        )
    counterexample_margin = rec.margin if rec is not None else math.inf
    reproduced = (
        rec is not None
        and member_margin(fam, [np.asarray(w) for w in rec.weights])[0] == rec.margin
    )

    ok = (
        all_vertices_stable
        and family_unstable
        and counterexample_margin <= -1e-4
        and reproduced
    )
    detail = (
        f"min vertex-matrix margin {min(vertex_margins):.4f} > 0: {all_vertices_stable}, "
        f"family status {verdict.status.value}, counterexample margin "
        f"{counterexample_margin:.6f}, reproduced {reproduced}"
    )
    announce(capsys, 8, ok, detail)
    assert all_vertices_stable, detail
    assert family_unstable, detail
    assert counterexample_margin <= -1e-4, detail
    assert reproduced, detail


# ----------------------------------------------------------------------
# 9. byte-identical suite reports across worker counts


def test_criterion_9_determinism_across_workers(capsys):
    text_serial, _ = suite_reports(jobs=1)
    text_parallel, _ = suite_reports(jobs=2)
    ok = text_serial.encode() == text_parallel.encode()
    detail = (
        f"{len(text_serial.encode())} report bytes, "
        f"identical across 1 and 2 workers: {ok}"
    )
    announce(capsys, 9, ok, detail)
    assert ok, detail
