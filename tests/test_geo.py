"""Geographic primitives: distances, centroids, projection, window search."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poialias.discovery import MetricConfig
from poialias.errors import EmptyInputError, InvalidConfigError
from poialias.geo import (
    EARTH_RADIUS_M,
    METERS_PER_DEG,
    GeoPoint,
    centroid,
    haversine,
    haversine_grid,
    local_region_centroid,
    max_coverage_window,
    project_local,
    unproject_local,
)

# ------------------------------------------------------------------ oracles


def law_of_cosines_distance(p: GeoPoint, q: GeoPoint) -> float:
    """Independent spherical-law-of-cosines formula."""
    f1, f2 = math.radians(p.lat), math.radians(q.lat)
    dl = math.radians(q.lon - p.lon)
    c = math.sin(f1) * math.sin(f2) + math.cos(f1) * math.cos(f2) * math.cos(dl)
    return EARTH_RADIUS_M * math.acos(max(-1.0, min(1.0, c)))


def brute_force_window_count(points: np.ndarray, side: float) -> int:
    """O(n^2) corner enumeration over all (p.x, q.y) candidate pairs."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    best = 0
    for x0 in pts[:, 0]:
        in_slab = (pts[:, 0] >= x0) & (pts[:, 0] <= x0 + side)
        if int(in_slab.sum()) <= best:
            continue
        ys = pts[in_slab, 1]
        for y0 in pts[:, 1]:
            c = int(((ys >= y0) & (ys <= y0 + side)).sum())
            if c > best:
                best = c
    return best


def brute_force_window_corner(points: np.ndarray, side: float):
    """Exhaustive point-anchored corners; returns (count, min corner)."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    best = 0
    corners = []
    for x0 in np.unique(pts[:, 0]):
        in_slab = (pts[:, 0] >= x0) & (pts[:, 0] <= x0 + side)
        ys = pts[in_slab, 1]
        for y0 in np.unique(ys):
            c = int(((ys >= y0) & (ys <= y0 + side)).sum())
            if c > best:
                best = c
                corners = [(float(x0), float(y0))]
            elif c == best:
                corners.append((float(x0), float(y0)))
    return best, min(corners)


# ---------------------------------------------------------------- haversine


def test_haversine_identity():
    p = GeoPoint(31.30, 120.57)
    assert haversine(p, p) == 0.0


def test_haversine_one_degree_arc():
    # closed-form great-circle arc: one degree along the equator
    expected = math.pi / 180.0 * EARTH_RADIUS_M
    got = haversine(GeoPoint(0.0, 0.0), GeoPoint(0.0, 1.0))
    assert got == pytest.approx(expected, abs=0.1)
    assert got == pytest.approx(111194.9, abs=0.1)


def test_haversine_matches_law_of_cosines():
    p = GeoPoint(31.30, 120.57)
    q = GeoPoint(31.31, 120.58)
    expected = law_of_cosines_distance(p, q)
    assert haversine(p, q) == pytest.approx(expected, rel=1e-4)


def test_haversine_symmetry_and_triangle_inequality():
    rng = np.random.default_rng(5)
    lats = rng.uniform(-80, 80, (1000, 3))
    lons = rng.uniform(-179, 179, (1000, 3))
    for (la, lb, lc), (oa, ob, oc) in zip(lats, lons):
        a, b, c = GeoPoint(la, oa), GeoPoint(lb, ob), GeoPoint(lc, oc)
        dab, dba = haversine(a, b), haversine(b, a)
        assert dab == pytest.approx(dba, rel=1e-12)
        dbc, dac = haversine(b, c), haversine(a, c)
        assert dac <= dab + dbc + 1e-6 * max(dac, 1.0)


def test_haversine_grid_is_haversine_bit_for_bit():
    # 40,000 pairs up to about 100 km apart: numpy's arcsin or square in
    # place of math.asin or `** 2` changes some of them in the last bit
    rng = np.random.default_rng(3)
    ps, qs = ([GeoPoint(31 + a, 120 + b) for a, b in rng.uniform(0, 0.6, (200, 2)).tolist()] for _ in range(2))
    grid = haversine_grid(ps, qs)
    assert grid.shape == (200, 200)
    assert grid.tolist() == [[haversine(p, q) for q in qs] for p in ps]
    assert haversine_grid([], qs).shape == (0, 200)


# ----------------------------------------------------------------- centroid


def test_centroid_single_point():
    c = centroid(np.array([[31.3, 120.5]]))
    assert (c.lat, c.lon) == (31.3, 120.5)


def test_centroid_symmetric_pair():
    c = centroid(np.array([[0.0, 0.0], [0.0, 2.0]]))
    assert (c.lat, c.lon) == (0.0, 1.0)


def test_centroid_matches_summation_oracle():
    rng = np.random.default_rng(11)
    pts = rng.uniform(-1, 1, (100, 2)) + [31.0, 120.0]
    c = centroid(pts)
    lat_oracle = math.fsum(float(v) for v in pts[:, 0]) / 100.0
    lon_oracle = math.fsum(float(v) for v in pts[:, 1]) / 100.0
    assert c.lat == pytest.approx(lat_oracle, rel=1e-12)
    assert c.lon == pytest.approx(lon_oracle, rel=1e-12)


def test_centroid_empty_errors():
    with pytest.raises(EmptyInputError):
        centroid(np.empty((0, 2)))


# --------------------------------------------------------------- projection


def test_project_origin_is_zero():
    origin = GeoPoint(31.3, 120.5)
    xy = project_local(np.array([[31.3, 120.5]]), origin)
    assert xy[0, 0] == 0.0 and xy[0, 1] == 0.0


def test_project_north_offset():
    origin = GeoPoint(31.3, 120.5)
    xy = project_local(np.array([[31.31, 120.5]]), origin)
    assert xy[0, 1] == pytest.approx(0.01 * METERS_PER_DEG, rel=1e-9)
    assert xy[0, 0] == 0.0


def test_project_round_trip():
    rng = np.random.default_rng(3)
    origin = GeoPoint(31.3, 120.5)
    pts = np.column_stack(
        [rng.uniform(31.0, 31.6, 200), rng.uniform(120.2, 120.8, 200)]
    )
    back = unproject_local(project_local(pts, origin), origin)
    assert np.abs(back - pts).max() < 1e-9


# ------------------------------------------------------------ window search


def test_window_single_point():
    win = max_coverage_window(np.array([[5.0, 5.0]]), 640.0)
    assert (win.x0, win.y0, win.count) == (5.0, 5.0, 1)


def test_window_full_coverage():
    rng = np.random.default_rng(9)
    pts = rng.uniform(0, 500, (40, 2))
    win = max_coverage_window(pts, 640.0)
    assert win.count == 40


def test_window_matches_brute_force_on_seeded_sets():
    for seed in range(30):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 201))
        extent = 5000.0
        pts = rng.uniform(0, extent, (n, 2))
        side = float(rng.uniform(0.05, 0.3) * extent)
        expected = brute_force_window_count(pts, side)
        win = max_coverage_window(pts, side)
        assert win.count == expected


def test_window_corner_is_lexicographic_minimum():
    for seed in range(25):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 60))
        # integer coordinates force plenty of ties
        pts = rng.integers(0, 12, (n, 2)).astype(float)
        side = float(rng.integers(1, 6))
        count, corner = brute_force_window_corner(pts, side)
        win = max_coverage_window(pts, side)
        assert win.count == count
        assert (win.x0, win.y0) == corner


@st.composite
def _integer_point_sets(draw):
    """Integer points on a narrow x range: many duplicate x values, and a
    side that often puts most points into the first anchor's slab."""
    n = draw(st.integers(1, 60))
    x_extent = draw(st.integers(0, 15))
    y_extent = draw(st.integers(0, 30))
    xs = draw(st.lists(st.integers(0, x_extent), min_size=n, max_size=n))
    ys = draw(st.lists(st.integers(0, y_extent), min_size=n, max_size=n))
    side = draw(st.integers(1, 12))
    return np.column_stack([xs, ys]).astype(float), float(side)


@settings(max_examples=400, deadline=None)
@given(_integer_point_sets())
def test_window_equals_exhaustive_corners_on_integer_points(case):
    pts, side = case
    count, corner = brute_force_window_corner(pts, side)
    win = max_coverage_window(pts, side)
    assert win.count == count
    assert (win.x0, win.y0) == corner


@st.composite
def _clustered_point_sets(draw):
    """A dense cluster of integer points plus outliers on a coarse grid far
    from it: the shape of a real profile, where the search skips most
    anchors. Small integer ranges give duplicate x values and tied counts,
    and outliers may pile up into groups that tie with the cluster."""
    side = draw(st.integers(2, 10))
    spread = draw(st.integers(0, 2 * side))
    coord = st.integers(0, spread)
    cluster = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=60))
    cell = st.integers(-4, 4).map(lambda k: 4 * side * k)
    jitter = st.integers(0, side)
    outliers = draw(
        st.lists(st.builds(lambda cx, cy, jx, jy: (cx + jx, cy + jy), cell, cell, jitter, jitter), max_size=20)
    )
    return np.array(cluster + outliers, dtype=float), float(side)


@settings(max_examples=200, deadline=None)
@given(_clustered_point_sets())
def test_window_equals_exhaustive_corners_on_clustered_points(case):
    pts, side = case
    count, corner = brute_force_window_corner(pts, side)
    win = max_coverage_window(pts, side)
    assert win.count == count
    assert (win.x0, win.y0) == corner


def test_window_with_every_point_in_one_slab():
    rng = np.random.default_rng(41)
    side = 50.0
    # x spans exactly one side, so the first anchor's slab holds everything
    pts = np.column_stack([rng.integers(0, 51, 120), rng.integers(0, 400, 120)]).astype(float)
    pts[0, 0], pts[1, 0] = 0.0, 50.0
    count, corner = brute_force_window_corner(pts, side)
    win = max_coverage_window(pts, side)
    assert (win.count, (win.x0, win.y0)) == (count, corner)


def test_window_with_every_x_more_than_a_side_apart():
    rng = np.random.default_rng(43)
    side = 10.0
    # every slab is one column of points sharing an x value
    xs = np.repeat(np.arange(12) * 25.0, 15)
    pts = np.column_stack([xs, rng.integers(0, 60, xs.size)]).astype(float)
    count, corner = brute_force_window_corner(pts, side)
    win = max_coverage_window(pts, side)
    assert (win.count, (win.x0, win.y0)) == (count, corner)


def test_window_count_on_every_sufficient_profile_of_a_city(small_city):
    # each profile projected as local_region_centroid projects it
    cfg = MetricConfig(method="loc_cent", threshold=0.0)
    profiles = [
        p
        for dd in small_city.city.districts.values()
        for p in dd.profiles.values()
        if p.point_count >= cfg.min_profile_points
    ]
    assert len(profiles) > 50
    for p in profiles:
        xy = project_local(p.points, centroid(p.points))
        win = max_coverage_window(xy, cfg.local_window_m)
        assert win.count == brute_force_window_count(xy, cfg.local_window_m), p.name


def test_window_translation_invariance():
    rng = np.random.default_rng(17)
    pts = rng.uniform(0, 2000, (80, 2))
    side = 300.0
    base = max_coverage_window(pts, side)
    shifted = max_coverage_window(pts + [1234.5, -987.25], side)
    assert shifted.count == base.count
    assert shifted.x0 == pytest.approx(base.x0 + 1234.5, abs=1e-9)
    assert shifted.y0 == pytest.approx(base.y0 - 987.25, abs=1e-9)


def test_window_count_monotone_in_side():
    rng = np.random.default_rng(23)
    pts = rng.uniform(0, 3000, (150, 2))
    counts = [max_coverage_window(pts, side).count for side in (100, 250, 500, 900, 1600)]
    assert counts == sorted(counts)


def test_window_rejects_bad_inputs():
    with pytest.raises(EmptyInputError):
        max_coverage_window(np.empty((0, 2)), 100.0)
    with pytest.raises(InvalidConfigError):
        max_coverage_window(np.array([[0.0, 0.0]]), 0.0)


def test_window_coverage_is_closed_on_every_edge():
    # x0 <= x <= x0 + side and y0 <= y <= y0 + side
    assert max_coverage_window(np.array([[0.0, 0.0], [10.0, 10.0]]), 10.0).count == 2
    assert max_coverage_window(np.array([[0.0, 0.0], [10.0001, 5.0]]), 10.0).count == 1
    assert max_coverage_window(np.array([[0.0, 0.0], [5.0, 10.0001]]), 10.0).count == 1


# --------------------------------------------------- local region centroid


def test_local_centroid_degenerates_to_overall():
    rng = np.random.default_rng(29)
    pts = np.column_stack(
        [31.3 + rng.normal(0, 0.0002, 50), 120.5 + rng.normal(0, 0.0002, 50)]
    )
    overall = centroid(pts)
    local = local_region_centroid(pts, 640.0)
    assert local.lat == pytest.approx(overall.lat, abs=1e-9)
    assert local.lon == pytest.approx(overall.lon, abs=1e-9)


def test_local_centroid_ignores_far_outliers():
    rng = np.random.default_rng(31)
    side = 640.0
    cluster = np.column_stack(
        [31.30 + rng.normal(0, 0.0003, 90), 120.50 + rng.normal(0, 0.0003, 90)]
    )
    cluster_center = centroid(cluster)

    results = []
    for outlier_lat in (31.38, 31.45):  # both far beyond one window side
        outliers = np.column_stack([np.full(10, outlier_lat), np.full(10, 120.50)])
        pts = np.vstack([cluster, outliers])
        results.append(local_region_centroid(pts, side))
    for res in results:
        assert haversine(res, cluster_center) < side / 2
    # moving the outliers does not move the estimate
    assert results[0].lat == pytest.approx(results[1].lat, abs=1e-12)
    assert results[0].lon == pytest.approx(results[1].lon, abs=1e-12)


def test_local_centroid_single_point():
    res = local_region_centroid(np.array([[31.3, 120.5]]), 640.0)
    assert res.lat == pytest.approx(31.3, abs=1e-12)
    assert res.lon == pytest.approx(120.5, abs=1e-12)


def test_local_centroid_permutation_invariant():
    rng = np.random.default_rng(37)
    pts = np.column_stack(
        [31.3 + rng.normal(0, 0.002, 60), 120.5 + rng.normal(0, 0.002, 60)]
    )
    base = local_region_centroid(pts, 640.0)
    for seed in range(3):
        perm = np.random.default_rng(seed).permutation(60)
        res = local_region_centroid(pts[perm], 640.0)
        assert res.lat == pytest.approx(base.lat, abs=1e-12)
        assert res.lon == pytest.approx(base.lon, abs=1e-12)
