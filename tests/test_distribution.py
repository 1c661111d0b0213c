"""Rasterization, normalization, and distribution divergences."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from poialias.distribution import (
    BoundingBox,
    DensityMatrix,
    Distribution,
    jaccard_distance,
    jaccard_overlap,
    kl_divergence,
    normalize,
    rasterize,
)
from poialias.errors import (
    AllPointsOutsideBboxError,
    GridMismatchError,
    InvalidConfigError,
    ZeroTotalError,
)

BBOX = BoundingBox(31.0, 32.0, 120.0, 121.0)


def from_dense(grid, bbox=BBOX) -> DensityMatrix:
    """A density matrix holding a square grid of non-negative counts."""
    arr = np.asarray(grid, dtype=np.int64)
    assert arr.ndim == 2 and arr.shape[0] == arr.shape[1] and (arr >= 0).all(), arr
    flat = arr.ravel()
    cells = np.flatnonzero(flat)
    return DensityMatrix(cells=cells, counts=flat[cells], n_grid=arr.shape[0], bbox=bbox)


def dense_counts(dm: DensityMatrix) -> np.ndarray:
    grid = np.zeros(dm.n_grid * dm.n_grid, dtype=np.int64)
    grid[dm.cells] = dm.counts
    return grid.reshape(dm.n_grid, dm.n_grid)


def dense_probs(d: Distribution) -> np.ndarray:
    grid = np.zeros(d.n_grid * d.n_grid, dtype=float)
    grid[d.cells] = d.probs
    return grid.reshape(d.n_grid, d.n_grid)


def _dist_from_counts(grid, bbox=BBOX):
    return normalize(from_dense(grid, bbox))


def dense_kl_oracle(p_grid, q_grid, epsilon):
    """Straightforward dense smoothed-KL computation."""
    p = np.asarray(p_grid, dtype=float)
    q = np.asarray(q_grid, dtype=float)
    n = p.size
    ps = (p + epsilon) / (p.sum() + epsilon * n)
    qs = (q + epsilon) / (q.sum() + epsilon * n)
    return float(np.sum(ps * np.log(ps / qs)))


def cell_index(lat: float, lon: float, bbox: BoundingBox, n_grid: int):
    """Oracle: (row, col) of one in-bbox point by scalar floor, else None.

    Cells are half-open in both axes except the last row/column, which is
    closed so points exactly on the max edges are kept.
    """
    if not (bbox.min_lat <= lat <= bbox.max_lat and bbox.min_lon <= lon <= bbox.max_lon):
        return None
    r = int((lat - bbox.min_lat) / (bbox.max_lat - bbox.min_lat) * n_grid)
    c = int((lon - bbox.min_lon) / (bbox.max_lon - bbox.min_lon) * n_grid)
    return min(r, n_grid - 1), min(c, n_grid - 1)


# ---------------------------------------------------------------- rasterize


def test_rasterize_single_cell():
    dm = rasterize(np.array([[31.5, 120.5]]), BBOX, 1)
    assert dense_counts(dm).tolist() == [[1]]


def test_rasterize_keeps_max_corner():
    dm = rasterize(np.array([[32.0, 121.0]]), BBOX, 4)
    dense = dense_counts(dm)
    assert dense[3, 3] == 1
    assert dm.dropped == 0


def test_rasterize_drops_and_reports_outside_points():
    pts = np.array([[31.5, 120.5], [35.0, 120.5], [31.5, 119.0]])
    dm = rasterize(pts, BBOX, 10)
    assert dm.total == 1
    assert dm.dropped == 2


def test_rasterize_all_outside_errors():
    with pytest.raises(AllPointsOutsideBboxError):
        rasterize(np.array([[40.0, 100.0]]), BBOX, 10)


def test_rasterize_invalid_grid():
    with pytest.raises(InvalidConfigError):
        rasterize(np.array([[31.5, 120.5]]), BBOX, 0)


def test_rasterize_matches_floor_index_oracle():
    rng = np.random.default_rng(13)
    n_grid = 50
    pts = np.column_stack(
        [rng.uniform(31.0, 32.0, 1000), rng.uniform(120.0, 121.0, 1000)]
    )
    dm = rasterize(pts, BBOX, n_grid)
    assert dm.total == 1000

    oracle = {}
    for lat, lon in pts:
        rc = cell_index(float(lat), float(lon), BBOX, n_grid)
        assert rc is not None
        oracle[rc] = oracle.get(rc, 0) + 1
    dense = dense_counts(dm)
    for (r, c), count in oracle.items():
        assert dense[r, c] == count
    assert sum(oracle.values()) == int(dense.sum())


def test_rasterize_sum_invariant_across_grids():
    rng = np.random.default_rng(21)
    pts = np.column_stack(
        [rng.uniform(31.0, 32.0, 500), rng.uniform(120.0, 121.0, 500)]
    )
    for n_grid in (1, 3, 7, 50, 128):
        assert rasterize(pts, BBOX, n_grid).total == 500


# ---------------------------------------------------------------- normalize


def test_normalize_direct_division():
    d = _dist_from_counts([[2, 2], [0, 0]])
    assert dense_probs(d).tolist() == [[0.5, 0.5], [0.0, 0.0]]


def test_normalize_uniform():
    d = _dist_from_counts(np.full((50, 50), 3))
    assert np.allclose(dense_probs(d), 1.0 / 2500.0)
    assert d.probs.sum() == pytest.approx(1.0, abs=1e-9)


def test_normalize_matches_division_oracle():
    rng = np.random.default_rng(31)
    counts = rng.integers(0, 40, (20, 20))
    counts[0, 0] = 1  # guarantee a nonzero total
    d = _dist_from_counts(counts)
    oracle = counts / counts.sum()
    assert np.abs(dense_probs(d) - oracle).max() < 1e-12


def test_normalize_zero_total_errors():
    with pytest.raises(ZeroTotalError):
        normalize(from_dense(np.zeros((3, 3), dtype=int)))


# ------------------------------------------------------------------------ KL


def test_kl_identity_is_zero():
    rng = np.random.default_rng(41)
    counts = rng.integers(0, 20, (50, 50))
    counts[10, 10] += 1
    p = _dist_from_counts(counts)
    q = _dist_from_counts(counts.copy())
    assert abs(kl_divergence(p, q)) <= 1e-12


def test_kl_hand_computed_two_cell_example():
    p = _dist_from_counts([[2, 2], [0, 0]])
    q = _dist_from_counts([[1, 3], [0, 0]])
    expected = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
    assert kl_divergence(p, q, epsilon=1e-9) == pytest.approx(expected, abs=1e-6)
    assert expected == pytest.approx(0.14384, abs=1e-5)


def test_kl_zero_mass_cells_finite_and_decreasing_in_epsilon():
    p = _dist_from_counts([[4, 0], [0, 0]])
    q = _dist_from_counts([[0, 4], [0, 0]])
    values = [kl_divergence(p, q, epsilon=e) for e in (1e-9, 1e-6, 1e-3)]
    assert all(math.isfinite(v) for v in values)
    assert values[0] > values[1] > values[2]


def test_kl_is_finite_down_to_the_smallest_normal_epsilon():
    p = _dist_from_counts([[4, 0], [1, 0]])
    q = _dist_from_counts([[0, 4], [1, 0]])
    values = [kl_divergence(a, b, epsilon=sys.float_info.min) for a, b in ((p, q), (q, p), (p, p))]
    assert all(math.isfinite(v) for v in values)
    # a subnormal epsilon overflows p / epsilon
    for epsilon in (sys.float_info.min / 2, 1e-320, 5e-324):
        with pytest.raises(InvalidConfigError, match="smallest normal float"):
            kl_divergence(p, q, epsilon=epsilon)


def test_kl_rejects_an_epsilon_whose_smoothed_mass_overflows():
    points = np.array([[31.2, 120.2], [31.7, 120.8], [31.7, 120.8]])
    p = normalize(rasterize(points, BBOX, 500))
    q = normalize(rasterize(points[:2], BBOX, 500))
    # 1e302 * 500**2 is finite: every term stays finite
    assert math.isfinite(kl_divergence(p, q, epsilon=1e302))
    # 1e303 * 500**2 overflows, and every smoothed cell would floor to 0
    with pytest.raises(InvalidConfigError, match="epsilon=1e\\+303 and n_grid=500"):
        kl_divergence(p, q, epsilon=1e303)


def test_kl_sparse_equals_dense_oracle():
    rng = np.random.default_rng(43)
    for _ in range(20):
        a = rng.integers(0, 5, (30, 30)) * (rng.random((30, 30)) < 0.1)
        b = rng.integers(0, 5, (30, 30)) * (rng.random((30, 30)) < 0.1)
        a[0, 0] += 1
        b[29, 29] += 1
        p = _dist_from_counts(a)
        q = _dist_from_counts(b)
        for eps in (1e-9, 1e-4):
            got = kl_divergence(p, q, eps)
            want = dense_kl_oracle(dense_probs(p), dense_probs(q), eps)
            assert got == pytest.approx(want, abs=1e-10)


def test_kl_nonnegative_on_random_pairs():
    rng = np.random.default_rng(47)
    for _ in range(50):
        a = rng.integers(0, 10, (25, 25))
        b = rng.integers(0, 10, (25, 25))
        a[0, 0] += 1
        b[0, 1] += 1
        assert kl_divergence(_dist_from_counts(a), _dist_from_counts(b)) >= -1e-12


def test_kl_grid_mismatch():
    p = _dist_from_counts([[1, 1], [1, 1]])
    q = _dist_from_counts(np.ones((3, 3), dtype=int))
    with pytest.raises(GridMismatchError):
        kl_divergence(p, q)


# -------------------------------------------------------------- Jaccard


def test_jaccard_identity():
    p = _dist_from_counts([[1, 2], [3, 4]])
    assert jaccard_overlap(p, p) == pytest.approx(1.0, abs=1e-15)
    assert jaccard_distance(p, p) == pytest.approx(0.0, abs=1e-15)


def test_jaccard_disjoint_supports():
    p = _dist_from_counts([[4, 0], [0, 0]])
    q = _dist_from_counts([[0, 0], [0, 4]])
    assert jaccard_overlap(p, q) == 0.0
    assert jaccard_distance(p, q) == 1.0


def test_jaccard_half_overlap_hand_example():
    # p on cells {a, b}, q on cells {b, c}, all masses 0.5:
    # overlap = (0.5 + 0.5) / 2 = 0.5
    p = _dist_from_counts([[1, 1], [0, 0]])
    q = _dist_from_counts([[0, 1], [1, 0]])
    assert jaccard_overlap(p, q) == pytest.approx(0.5, abs=1e-12)
    assert jaccard_distance(p, q) == pytest.approx(0.5, abs=1e-12)


def test_jaccard_symmetric_and_bounded():
    rng = np.random.default_rng(53)
    for _ in range(100):
        a = rng.integers(0, 4, (20, 20)) * (rng.random((20, 20)) < 0.15)
        b = rng.integers(0, 4, (20, 20)) * (rng.random((20, 20)) < 0.15)
        a[3, 3] += 1
        b[5, 5] += 1
        p = _dist_from_counts(a)
        q = _dist_from_counts(b)
        dpq = jaccard_distance(p, q)
        dqp = jaccard_distance(q, p)
        assert abs(dpq - dqp) <= 1e-15
        assert 0.0 <= dpq <= 1.0


def test_refinement_never_increases_overlap():
    # a coarse cell jointly occupied can split into disjoint fine cells,
    # never the reverse
    rng = np.random.default_rng(59)
    for trial in range(10):
        pa = np.column_stack(
            [rng.uniform(31.0, 32.0, 80), rng.uniform(120.0, 121.0, 80)]
        )
        pb = pa + rng.normal(0, 0.01, pa.shape)
        pb = pb.clip([31.0, 120.0], [32.0, 121.0])
        for n in (5, 10, 20, 40):
            p1 = normalize(rasterize(pa, BBOX, n))
            q1 = normalize(rasterize(pb, BBOX, n))
            p2 = normalize(rasterize(pa, BBOX, 2 * n))
            q2 = normalize(rasterize(pb, BBOX, 2 * n))
            assert jaccard_overlap(p2, q2) <= jaccard_overlap(p1, q1) + 1e-12


# ------------------------------------------------- kernels, hypothesis

EPSILONS = (1e-9, 1e-6, 1e-3)


@st.composite
def _count_pairs(draw):
    """Two count grids of one size whose supports are identical, disjoint
    or partly overlapping."""
    n = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["identical", "disjoint", "overlap"]))
    if kind == "disjoint":
        assume(n > 1)
    cells = draw(
        st.lists(st.integers(0, n * n - 1), min_size=2 if kind == "disjoint" else 1, max_size=60, unique=True)
    )
    if kind == "identical":
        p_cells = q_cells = cells
    elif kind == "disjoint":
        cut = draw(st.integers(1, len(cells) - 1))
        p_cells, q_cells = cells[:cut], cells[cut:]
    else:  # p and q share cells[lo:hi], each may hold cells the other lacks
        hi = draw(st.integers(1, len(cells)))
        lo = draw(st.integers(0, hi - 1))
        p_cells, q_cells = cells[:hi], cells[lo:]
    grids = []
    for side in (p_cells, q_cells):
        grid = np.zeros(n * n, dtype=np.int64)
        grid[side] = draw(st.lists(st.integers(1, 1000), min_size=len(side), max_size=len(side)))
        grids.append(grid.reshape(n, n))
    return grids


_KERNEL_SETTINGS = settings(max_examples=300, deadline=None)


@_KERNEL_SETTINGS
@given(grids=_count_pairs(), eps=st.sampled_from(EPSILONS))
def test_kl_matches_dense_oracle_and_vanishes_on_itself(grids, eps):
    p, q = (_dist_from_counts(g) for g in grids)
    assert abs(kl_divergence(p, q, eps) - dense_kl_oracle(dense_probs(p), dense_probs(q), eps)) <= 1e-10
    assert abs(kl_divergence(p, p, eps)) <= 1e-12
    assert abs(kl_divergence(q, q, eps)) <= 1e-12


@_KERNEL_SETTINGS
@given(grids=_count_pairs())
def test_jaccard_overlap_is_exact_and_symmetric(grids):
    a, b = grids
    p, q = _dist_from_counts(a), _dist_from_counts(b)
    both = (a > 0) & (b > 0)
    exact = (Fraction(int(a[both].sum()), int(a.sum())) + Fraction(int(b[both].sum()), int(b.sum()))) / 2
    got = jaccard_overlap(p, q)
    assert abs(Fraction(got) - exact) <= Fraction(math.ulp(float(exact)))
    assert jaccard_overlap(q, p) == got
    assert jaccard_distance(p, q) == jaccard_distance(q, p)


@_KERNEL_SETTINGS
@given(grids=_count_pairs(), eps=st.lists(st.sampled_from(EPSILONS), min_size=2, max_size=2, unique=True))
def test_kl_epsilon_cache_matches_fresh_distributions(grids, eps):
    e1, e2 = eps
    p, q = (_dist_from_counts(g) for g in grids)
    first, second, again = kl_divergence(p, q, e1), kl_divergence(p, q, e2), kl_divergence(p, q, e1)

    def fresh(e):
        return kl_divergence(_dist_from_counts(grids[0]), _dist_from_counts(grids[1]), e)

    assert first == again == fresh(e1)
    assert second == fresh(e2)
