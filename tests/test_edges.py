"""Enumeration tests: configuration stream order, counts, reconstruction by
index, and instantiation.

Membership oracles solve small linear programs: every instantiated cell must
be a convex combination of its entry's vertices.
"""

import itertools
import math

import numpy as np
import pytest
from scipy.optimize import linprog

from edgestab.det import det_matrix
from edgestab.edges import (
    EdgeConfiguration,
    config_at,
    count_configs,
    entry_edges,
    entry_vertices,
    iter_configs,
    permutations_in_order,
)
from edgestab.errors import DimensionMismatch
from edgestab.family import IntervalEntry, MatrixFamily, PolytopeEntry
from edgestab.poly import Polynomial
from edgestab.region import HurwitzHalfPlane


def interval(lo, hi):
    return IntervalEntry(np.array(lo, dtype=float), np.array(hi, dtype=float))


def cell(*coeff_lists):
    return PolytopeEntry(tuple(Polynomial(list(c)) for c in coeff_lists))


def square(entry_fn, n):
    return MatrixFamily(
        [[entry_fn(i, j) for j in range(n)] for i in range(n)], HurwitzHalfPlane()
    )


def two_vertex_family(n, seed=0):
    rng = np.random.default_rng(seed)

    def mk(i, j):
        return cell(
            rng.integers(-4, 5, size=3).astype(float),
            rng.integers(-4, 5, size=3).astype(float),
        )

    return square(mk, n)


# ----------------------------------------------------------------------
# permutation stream order


def test_permutation_order_small():
    assert permutations_in_order(1) == [(0,)]
    assert permutations_in_order(2) == [(0, 1), (1, 0)]


def test_permutation_order_three():
    # one-based: identity and the two cycles first, then the transpositions
    got = [tuple(s + 1 for s in p) for p in permutations_in_order(3)]
    assert got == [
        (1, 2, 3),
        (2, 3, 1),
        (3, 1, 2),
        (1, 3, 2),
        (2, 1, 3),
        (3, 2, 1),
    ]


def test_permutation_order_is_complete():
    for n in (3, 4):
        got = permutations_in_order(n)
        assert len(got) == len(set(got))
        assert set(got) == set(itertools.permutations(range(n)))


def test_config_stream_exposes_permutation_prefix():
    fam = two_vertex_family(3)
    seen = []
    for cfg in iter_configs(fam):
        if cfg.sigma_one_line() not in seen:
            seen.append(cfg.sigma_one_line())
    assert seen == [
        (1, 2, 3),
        (2, 3, 1),
        (3, 1, 2),
        (1, 3, 2),
        (2, 1, 3),
        (3, 2, 1),
    ]


# ----------------------------------------------------------------------
# counts


def test_count_single_entry():
    fam = square(lambda i, j: cell([1.0, 1.0], [2.0, 1.0]), 1)
    assert count_configs(fam) == 1


def test_count_two_by_two():
    assert count_configs(two_vertex_family(2)) == 8


def test_count_three_by_three():
    assert count_configs(two_vertex_family(3)) == 384


def test_count_two_by_two_interval():
    fam = square(lambda i, j: interval([0.0, 1.0], [1.0, 2.0]), 2)
    assert count_configs(fam) == 512


def test_count_matches_stream_exhaustion():
    for fam in (
        two_vertex_family(2),
        two_vertex_family(3),
        square(lambda i, j: interval([0.0, 1.0], [1.0, 2.0]), 2),
        square(
            lambda i, j: cell([1.0], [2.0], [3.0]) if (i + j) % 2 else cell([1.0, 1.0]),
            2,
        ),
    ):
        assert count_configs(fam) == sum(1 for _ in iter_configs(fam))


def test_fixed_entries_still_enumerate():
    # m = 1 cells contribute one degenerate segment and one vertex choice
    fam = square(lambda i, j: cell([float(i + j + 1)]), 2)
    configs = list(iter_configs(fam))
    assert count_configs(fam) == len(configs) == 2
    assert all(cfg.k == 0 for cfg in configs)


# ----------------------------------------------------------------------
# indexing and reconstruction


def test_indices_are_contiguous():
    fam = two_vertex_family(2, seed=3)
    for pos, cfg in enumerate(iter_configs(fam)):
        assert cfg.index == pos


def test_config_at_matches_stream():
    fam = two_vertex_family(3, seed=4)
    total = count_configs(fam)
    rng = np.random.default_rng(0)
    picks = sorted(int(x) for x in rng.integers(0, total, size=12))
    streamed = {
        cfg.index: cfg for cfg in iter_configs(fam) if cfg.index in set(picks)
    }
    for idx in picks:
        direct = config_at(fam, idx)
        other = streamed[idx]
        assert direct.sigma == other.sigma
        assert direct.describe() == other.describe()


def reference_stream(fam):
    """Every configuration in stream order, as (sigma, segments, vertex choices).

    Per pattern, ``itertools.product`` over each column's segments, then the
    vertices of its other rows in ascending order, moves the last digit
    fastest.
    """
    n = fam.n
    for sigma in permutations_in_order(n):
        places, options = [], []
        for j in range(n):
            places.append(j)
            options.append(entry_edges(fam.entry(sigma[j], j)))
            for i in range(n):
                if i != sigma[j]:
                    places.append((i, j))
                    options.append(list(enumerate(entry_vertices(fam.entry(i, j)))))
        for combo in itertools.product(*options):
            segs = [c for place, c in zip(places, combo) if isinstance(place, int)]
            verts = {place: c for place, c in zip(places, combo) if not isinstance(place, int)}
            yield sigma, segs, verts


@pytest.mark.parametrize(
    "fam",
    [
        two_vertex_family(3, seed=5),
        square(lambda i, j: interval([0.0, 1.0, 0.0], [1.0, 2.0, 0.5]) if i == j else interval([0.1], [0.1]), 2),
        square(lambda i, j: cell([1.0], [2.0, 1.0], [3.0]) if (i + j) % 2 else cell([1.0, 1.0]), 2),
    ],
    ids=["two_vertex", "interval", "mixed_counts"],
)
def test_stream_matches_product_order(fam):
    streamed = list(iter_configs(fam))
    reference = list(reference_stream(fam))
    assert len(streamed) == len(reference) == count_configs(fam)
    for cfg, (sigma, segs, verts) in zip(streamed, reference):
        assert cfg.sigma == sigma, cfg.index
        assert cfg.edge_choice == tuple(segs), cfg.index
        assert cfg.vertex_index == {place: v for place, (v, _) in verts.items()}, cfg.index
        for (i, j), (_, poly) in verts.items():
            assert cfg.base[i][j] == poly, cfg.index


def test_config_at_beyond_int64_block_sizes():
    # n = 8 with three vertices per cell: each pattern block holds 3**64
    # configurations, more than int64 holds, so the digits of an index must
    # come out as they do in Python integers
    n = 8
    fam = square(lambda i, j: cell([1.0 + i, 1.0], [2.0 + j, 1.0], [3.0, 1.0 + j]), n)
    per_block = 3**64
    assert count_configs(fam) == math.factorial(n) * per_block
    for index in (per_block - 1, 5 * per_block + 2**70 + 12345):
        cfg = config_at(fam, index)
        assert cfg.sigma == permutations_in_order(n)[index // per_block]
        local = index % per_block
        # the last digit first: per column from the right, its other rows
        # from the bottom, then its segment
        for j in reversed(range(n)):
            for i in reversed(range(n)):
                if i != cfg.sigma[j]:
                    assert cfg.vertex_index[i, j] == local % 3
                    local //= 3
            seg = cfg.edge_choice[j]
            assert (seg.index0, seg.index1) == [(0, 1), (0, 2), (1, 2)][local % 3]
            local //= 3


def test_iter_configs_range_slicing():
    fam = two_vertex_family(3, seed=4)
    whole = [cfg.index for cfg in iter_configs(fam)]
    part = [cfg.index for cfg in iter_configs(fam, start=100, stop=130)]
    assert part == whole[100:130]


def test_config_at_out_of_range():
    fam = two_vertex_family(2)
    with pytest.raises(IndexError):
        config_at(fam, count_configs(fam))
    with pytest.raises(IndexError):
        config_at(fam, -1)


# ----------------------------------------------------------------------
# instantiation


def test_instantiate_endpoints():
    fam = two_vertex_family(2, seed=6)
    for cfg in iter_configs(fam, stop=4):
        lo = cfg.instantiate(np.zeros(cfg.k))
        hi = cfg.instantiate(np.ones(cfg.k))
        for slot, j in enumerate(cfg.lambda_columns):
            i = cfg.sigma[j]
            seg = cfg.edge_choice[j]
            assert lo[i][j] == seg.p0
            assert hi[i][j] == seg.p1
        mid = cfg.instantiate(np.full(cfg.k, 0.5))
        for slot, j in enumerate(cfg.lambda_columns):
            i = cfg.sigma[j]
            seg = cfg.edge_choice[j]
            assert mid[i][j].isclose((seg.p0 + seg.p1) * 0.5)


def test_instantiate_validates_lambda():
    fam = two_vertex_family(2, seed=6)
    cfg = next(iter(iter_configs(fam)))
    with pytest.raises(DimensionMismatch):
        cfg.instantiate(np.zeros(cfg.k + 1))
    with pytest.raises(DimensionMismatch):
        cfg.instantiate(np.full(cfg.k, 1.5))


def in_convex_hull(poly, vertices, tol=1e-7):
    """LP feasibility: is poly a convex combination of the vertex list?"""
    L = max([len(poly.as_list())] + [len(v.as_list()) for v in vertices])

    def pad(p):
        c = np.zeros(L)
        c[: p.coeffs.size] = p.coeffs
        return c

    target = pad(poly)
    mat = np.stack([pad(v) for v in vertices], axis=1)
    m = len(vertices)
    A_eq = np.vstack([mat, np.ones((1, m))])
    b_eq = np.concatenate([target, [1.0]])
    res = linprog(
        np.zeros(m),
        A_eq=A_eq,
        b_eq=b_eq,
        bounds=[(-tol, 1 + tol)] * m,
        method="highs",
    )
    return res.status == 0


def test_instantiated_members_belong_to_the_family():
    rng = np.random.default_rng(8)
    fam = two_vertex_family(2, seed=11)
    for cfg in iter_configs(fam, stop=8):
        lam = rng.random(cfg.k)
        grid = cfg.instantiate(lam)
        for i in range(fam.n):
            for j in range(fam.n):
                verts = entry_vertices(fam.entry(i, j))
                assert in_convex_hull(grid[i][j], list(verts))


def test_configuration_corners_cover_all_vertex_matrices():
    # every all-vertex matrix must appear among the box corners of the
    # configuration stream (endpoint consistency of the construction)
    fam = two_vertex_family(2, seed=13)
    n = fam.n

    def matrix_key(grid):
        return tuple(tuple(p.as_list()) for row in grid for p in row)

    all_vertex = set()
    choices = [
        [v.as_list() for v in entry_vertices(fam.entry(i, j))]
        for i in range(n)
        for j in range(n)
    ]
    for combo in itertools.product(*[range(len(c)) for c in choices]):
        key = tuple(tuple(choices[pos][pick]) for pos, pick in enumerate(combo))
        all_vertex.add(key)

    covered = set()
    for cfg in iter_configs(fam):
        for corner in itertools.product([0.0, 1.0], repeat=cfg.k):
            covered.add(matrix_key(cfg.instantiate(np.array(corner))))
    assert all_vertex <= covered


def test_value_sets_respect_vertex_hull():
    # a determinant value of any member lies in the convex hull of the
    # all-vertex determinant values (multi-affine dependence on the per-cell
    # mixing weights); checked at a fixed boundary point
    rng = np.random.default_rng(21)
    fam = two_vertex_family(2, seed=19)
    s = 0.7j
    verts = []
    choices = [
        list(entry_vertices(fam.entry(i, j))) for i in range(2) for j in range(2)
    ]
    for combo in itertools.product(*[range(len(c)) for c in choices]):
        grid = [
            [choices[i * 2 + j][combo[i * 2 + j]] for j in range(2)] for i in range(2)
        ]
        verts.append(complex(det_matrix(grid)(s)))
    hull_pts = np.array(verts)

    for _ in range(40):
        grid = []
        for i in range(2):
            row = []
            for j in range(2):
                e = fam.entry(i, j)
                w = rng.dirichlet(np.ones(e.m))
                mix = e.vertices[0] * float(w[0])
                for wi, v in zip(w[1:], e.vertices[1:]):
                    mix = mix + v * float(wi)
                row.append(mix)
            grid.append(row)
        val = complex(det_matrix(grid)(s))
        # val must be a convex combination of the vertex values
        m = hull_pts.size
        A_eq = np.vstack([hull_pts.real, hull_pts.imag, np.ones(m)])
        b_eq = np.array([val.real, val.imag, 1.0])
        res = linprog(
            np.zeros(m),
            A_eq=A_eq,
            b_eq=b_eq,
            bounds=[(-1e-9, 1 + 1e-9)] * m,
            method="highs",
        )
        assert res.status == 0
