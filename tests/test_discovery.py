"""Pairwise similarity scoring and threshold inference."""

import re
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poialias.discovery import (
    DECISION_ALIAS,
    DECISION_INSUFFICIENT,
    DECISION_NOT_ALIAS,
    METHODS,
    MIN_DIVERGENCE,
    MetricConfig,
    ScoredPair,
    apply_threshold,
    decide,
    score_pairs,
)
from poialias.distribution import (
    BoundingBox,
    jaccard_distance,
    kl_divergence,
    normalize,
    rasterize,
)
from poialias.errors import InvalidConfigError
from poialias.geo import METERS_PER_DEG, GeoPoint, haversine
from poialias.preprocess import normalized_edit_distance
from poialias.profile import MobilityProfile

BBOX = BoundingBox(31.0, 32.0, 120.0, 121.0)


def prof(name, points):
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    return MobilityProfile(name=name, points=pts, user_count=1, point_count=pts.shape[0])


def blob(name, lat, lon, n=8):
    return prof(name, [[lat, lon]] * n)


def offset_north(lat, meters):
    return lat + meters / METERS_PER_DEG


def pair_score(a, b, method, bbox=None, **config):
    """The score_pairs score of the single pair (a, b)."""
    [pair] = score_pairs([a], [b], MetricConfig(method=method, threshold=0.0, **config), bbox=bbox)
    return pair.score


# ------------------------------------------------------- distance similarity


def test_distance_similarity_identical_profiles_clamp():
    a = blob("a", 31.3, 120.5)
    b = blob("b", 31.3, 120.5)
    assert pair_score(a, b, "centroid") == 1.0


def test_distance_similarity_500m():
    a = blob("a", 31.3, 120.5)
    b = blob("b", offset_north(31.3, 500.0), 120.5)
    assert pair_score(a, b, "centroid") == pytest.approx(1.0 / 500.0, rel=1e-6)


def test_distance_similarity_analytic_centroid_oracle():
    # four points symmetric around each center: centroids are the centers
    d_lat, d_lon = 0.001, 0.0015
    center_a = GeoPoint(31.30, 120.50)
    center_b = GeoPoint(31.30, 120.52103)  # roughly 2 km east
    def cross(c):
        return [
            [c.lat + d_lat, c.lon],
            [c.lat - d_lat, c.lon],
            [c.lat, c.lon + d_lon],
            [c.lat, c.lon - d_lon],
            [c.lat, c.lon],
        ]
    a = prof("a", cross(center_a))
    b = prof("b", cross(center_b))
    expected = 1.0 / haversine(center_a, center_b)
    got = pair_score(a, b, "centroid")
    assert got == pytest.approx(expected, rel=0.05)


def test_distance_similarity_local_estimator_ignores_outliers():
    rng = np.random.default_rng(3)
    home_a = np.column_stack([31.300 + rng.normal(0, 1e-4, 40), 120.500 + rng.normal(0, 1e-4, 40)])
    home_b = np.column_stack([31.300 + rng.normal(0, 1e-4, 40), 120.500 + rng.normal(0, 1e-4, 40)])
    outliers = np.array([[31.95, 120.95]] * 5)
    a = prof("a", np.vstack([home_a, outliers]))
    b = prof("b", home_b)
    overall = pair_score(a, b, "centroid")
    local = pair_score(a, b, "loc_cent", local_window_m=640.0)
    assert local > overall  # outliers drag the overall centroid away


def test_distance_similarity_insufficient_is_none():
    a = blob("a", 31.3, 120.5, n=3)
    b = blob("b", 31.3, 120.5)
    for method in ("centroid", "loc_cent", "kl_div", "jaccard"):
        cfg = MetricConfig(method=method, threshold=0.0, min_profile_points=5)
        pairs = score_pairs([a], [b], cfg, bbox=BBOX)
        assert pairs[0].score is None
        assert apply_threshold(pairs, cfg.threshold, "d", ["a"], ["b"]) == set()


# --------------------------------------------------- distribution similarity


def test_distribution_similarity_identical_capped():
    a = blob("a", 31.3, 120.5)
    b = blob("b", 31.3, 120.5)
    got = pair_score(a, b, "jaccard", BBOX, grid_n=10)
    assert got == pytest.approx(1e9)


def test_distribution_similarity_disjoint_jaccard():
    a = blob("a", 31.2, 120.2)
    b = blob("b", 31.8, 120.8)
    got = pair_score(a, b, "jaccard", BBOX, grid_n=10)
    assert got == pytest.approx(1.0)


def test_distribution_similarity_half_overlap():
    # 2x2 grid; profile a occupies cells (0,0)+(0,1), b occupies (0,1)+(1,0)
    cell = lambda r, c: [31.25 + 0.5 * r, 120.25 + 0.5 * c]
    a = prof("a", [cell(0, 0)] * 4 + [cell(0, 1)] * 4)
    b = prof("b", [cell(0, 1)] * 4 + [cell(1, 0)] * 4)
    got = pair_score(a, b, "jaccard", BBOX, grid_n=2)
    assert got == pytest.approx(2.0, rel=1e-9)


def test_distribution_similarity_kl_order():
    rng = np.random.default_rng(11)
    base = np.column_stack([31.5 + rng.normal(0, 0.005, 50), 120.5 + rng.normal(0, 0.005, 50)])
    near = base + rng.normal(0, 0.0005, base.shape)
    far = np.column_stack([31.8 + rng.normal(0, 0.005, 50), 120.8 + rng.normal(0, 0.005, 50)])
    a, b, c = prof("a", base), prof("b", near), prof("c", far)
    close = pair_score(a, b, "kl_div", BBOX, grid_n=50)
    distant = pair_score(a, c, "kl_div", BBOX, grid_n=50)
    assert close > distant


def test_distribution_jaccard_symmetry():
    rng = np.random.default_rng(13)
    a = prof("a", np.column_stack([rng.uniform(31, 32, 30), rng.uniform(120, 121, 30)]))
    b = prof("b", np.column_stack([rng.uniform(31, 32, 30), rng.uniform(120, 121, 30)]))
    ab = pair_score(a, b, "jaccard", BBOX, grid_n=25)
    ba = pair_score(b, a, "jaccard", BBOX, grid_n=25)
    assert ab == ba


@pytest.mark.parametrize("grid_n", [20, 500])
def test_score_pairs_reproduce_the_kernels_on_fresh_distributions(small_city, grid_n):
    # the per-pair kernels on distributions built anew, as a caller outside
    # score_pairs would build them, give score_pairs' scores bit for bit
    kernels = {
        "kl_div": lambda p, q, cfg: kl_divergence(p, q, cfg.kl_epsilon),
        "jaccard": lambda p, q, cfg: jaccard_distance(p, q),
    }
    for method, kernel in kernels.items():
        cfg = MetricConfig(method=method, threshold=0.0, grid_n=grid_n)
        n_scored = 0
        for dd in small_city.city.districts.values():
            stds, cands = dd.standard_profiles(), dd.candidate_profiles()
            pairs = score_pairs(stds, cands, cfg, bbox=dd.bbox)
            expected = []
            for a in stds:
                for b in cands:
                    if min(a.point_count, b.point_count) < cfg.min_profile_points:
                        expected.append(None)
                        continue
                    p = normalize(rasterize(a, dd.bbox, grid_n))
                    q = normalize(rasterize(b, dd.bbox, grid_n))
                    expected.append(1.0 / max(kernel(p, q, cfg), MIN_DIVERGENCE))
            assert [pr.score for pr in pairs] == expected, (method, dd.district)
            assert [(pr.standard_name, pr.candidate_name) for pr in pairs] == [
                (a.name, b.name) for a in stds for b in cands
            ]
            n_scored += sum(s is not None for s in expected)
        assert n_scored > 0


# ------------------------------------------------------------------- config


def test_metric_config_validation():
    with pytest.raises(InvalidConfigError):
        MetricConfig(method="nonsense", threshold=0.0)
    with pytest.raises(InvalidConfigError):
        MetricConfig(method="jaccard", threshold=float("inf"))
    with pytest.raises(InvalidConfigError):
        MetricConfig(method="kl_div", threshold=0.0, kl_epsilon=0.0)
    with pytest.raises(InvalidConfigError):
        MetricConfig(method="jaccard", threshold=0.0, grid_n=0)
    for method in METHODS:
        with pytest.raises(InvalidConfigError, match="min_profile_points must be >= 1, got 0"):
            MetricConfig(method=method, threshold=0.0, min_profile_points=0)


def test_metric_config_rejects_a_kl_epsilon_whose_smoothed_mass_overflows():
    # kl_epsilon * grid_n**2: 1e302 * 500**2 is finite, 1e303 * 500**2 is not
    MetricConfig(method="kl_div", threshold=0.0, kl_epsilon=1e302, grid_n=500)
    MetricConfig(method="kl_div", threshold=0.0, kl_epsilon=1e303, grid_n=50)
    message = "kl_epsilon * grid_n**2 must be finite, got kl_epsilon=1e+303 and grid_n=500"
    with pytest.raises(InvalidConfigError, match=re.escape(message)):
        MetricConfig(method="kl_div", threshold=0.0, kl_epsilon=1e303, grid_n=500)
    # a cell count past the largest float
    with pytest.raises(InvalidConfigError, match="must be finite"):
        MetricConfig(method="jaccard", threshold=0.0, grid_n=10**200)


# ---------------------------------------------------------------- inference


def test_infer_links_above_threshold():
    a = blob("a", 31.3, 120.5)
    b = blob("b", offset_north(31.3, 250.0), 120.5)  # kappa = 1/250 = 0.004
    cfg = MetricConfig(method="centroid", threshold=0.002)
    pairs = score_pairs([a], [b], cfg, bbox=None)
    links = apply_threshold(pairs, cfg.threshold, "d", ["a"], ["b"])
    assert links == {(0, 0)}
    assert pairs[0].score == pytest.approx(0.004, rel=1e-6)


def test_infer_strict_inequality_at_boundary():
    a = blob("a", 31.3, 120.5)
    b = blob("b", 31.3, 120.5)  # kappa clamps to exactly 1.0
    cfg = MetricConfig(method="centroid", threshold=1.0)
    pairs = score_pairs([a], [b], cfg, bbox=None)
    links = apply_threshold(pairs, cfg.threshold, "d", ["a"], ["b"])
    assert links == set()
    assert pairs[0].score == 1.0


def test_infer_insufficient_profiles_excluded():
    a = blob("a", 31.3, 120.5)
    tiny = blob("t", 31.3, 120.5, n=2)
    cfg = MetricConfig(method="centroid", threshold=0.0, min_profile_points=5)
    pairs = score_pairs([a], [tiny], cfg, bbox=None)
    links = apply_threshold(pairs, cfg.threshold, "d", ["a"], ["t"])
    assert links == set()
    assert pairs[0].score is None


def test_decide_is_the_link_rule():
    above = float(np.nextafter(1.0, 2.0))
    assert decide(None, 0.0) == DECISION_INSUFFICIENT
    assert decide(None, -np.inf) == DECISION_INSUFFICIENT
    assert decide(1.0, 1.0) == DECISION_NOT_ALIAS
    assert decide(above, 1.0) == DECISION_ALIAS
    assert decide(0.0, -np.inf) == DECISION_ALIAS
    assert decide(1e300, np.inf) == DECISION_NOT_ALIAS


def test_apply_threshold_mutates_no_pair():
    pairs = [ScoredPair("s", "a", 2.0), ScoredPair("s", "b", 0.5), ScoredPair("s", "c", None)]
    before = [astuple(p) for p in pairs]
    assert apply_threshold(pairs, 1.0, "d", ["s"], ["a", "b", "c"]) == {(0, 0)}
    assert [astuple(p) for p in pairs] == before


def test_infer_pairs_exhaustive_and_ordered():
    standards = [blob(f"s{i}", 31.2 + 0.01 * i, 120.5) for i in range(3)]
    candidates = [blob(f"c{j}", 31.5, 120.2 + 0.01 * j) for j in range(4)]
    cfg = MetricConfig(method="centroid", threshold=0.5)
    pairs = score_pairs(standards, candidates, cfg, bbox=None)
    assert len(pairs) == 12
    expected_order = [(s.name, c.name) for s in standards for c in candidates]
    assert [(p.standard_name, p.candidate_name) for p in pairs] == expected_order


def test_threshold_monotonicity():
    rng = np.random.default_rng(17)
    names_s = [f"s{i}" for i in range(6)]
    names_c = [f"c{j}" for j in range(6)]
    pairs = [
        ScoredPair(s, c, float(rng.uniform(0, 1)))
        for s in names_s
        for c in names_c
    ]
    prev_links = None
    for theta in (0.1, 0.3, 0.5, 0.8):
        links = apply_threshold(pairs, theta, "d", names_s, names_c)
        if prev_links is not None:
            assert links <= prev_links
        prev_links = links


def test_threshold_scale_invariance():
    rng = np.random.default_rng(19)
    names_s = [f"s{i}" for i in range(5)]
    names_c = [f"c{j}" for j in range(5)]
    scores = {(s, c): float(rng.uniform(0, 1)) for s in names_s for c in names_c}
    theta = 0.42
    scale = 3.7

    def links(mult, th):
        ps = [ScoredPair(s, c, v * mult) for (s, c), v in scores.items()]
        return apply_threshold(ps, th, "d", names_s, names_c)

    assert links(1.0, theta) == links(scale, theta * scale)


def test_score_pairs_without_bbox_leaves_unlocated_pairs_insufficient():
    # a district without located points has no bbox; every profile is empty,
    # so every method but edit_distance leaves the pair unscored
    a = prof("a", np.empty((0, 2)))
    b = prof("b", np.empty((0, 2)))
    for method in METHODS:
        [pair] = score_pairs([a], [b], MetricConfig(method=method, threshold=0.0), bbox=None)
        assert (pair.score is None) == (method != "edit_distance"), method


def test_edit_distance_method_scores_text():
    a = prof("kitten", np.zeros((0, 2)))
    b = prof("sitting", np.zeros((0, 2)))
    cfg = MetricConfig(method="edit_distance", threshold=0.5)
    pairs = score_pairs([a], [b], cfg, bbox=None)
    links = apply_threshold(pairs, cfg.threshold, "d", ["kitten"], ["sitting"])
    # similarity = 1 - 3/7
    assert pairs[0].score == pytest.approx(1.0 - 3.0 / 7.0)
    assert links == {(0, 0)}


_EDIT_NAMES = ["kitten", "sitting", "", "\u4e2d\u6587", "\U0001f600" * 70, "a" * 64, "a" * 65 + "b", "\ud800b"]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sampled_from(_EDIT_NAMES) | st.text("ab\u4e2d", max_size=70), min_size=1, max_size=5),
    st.lists(st.sampled_from(_EDIT_NAMES) | st.text("ab\u4e2d", max_size=70), min_size=1, max_size=5),
)
def test_edit_distance_grid_equals_the_per_pair_scalar(std_names, cand_names):
    # the batched grid gives every pair 1 - normalized_edit_distance bit for
    # bit, as a Python float, whatever its points
    stds = [prof(n, np.zeros((0, 2))) for n in std_names]
    cands = [prof(n, [[31.5, 120.5]]) for n in cand_names]
    pairs = score_pairs(stds, cands, MetricConfig(method="edit_distance", threshold=0.0), bbox=None)
    assert [(p.standard_name, p.candidate_name) for p in pairs] == [(a, b) for a in std_names for b in cand_names]
    assert [p.score for p in pairs] == [1.0 - normalized_edit_distance(a, b) for a in std_names for b in cand_names]
    assert all(type(p.score) is float for p in pairs)


def test_planted_aliases_recovered_on_synthetic_district(tmp_path):
    from poialias.ingestion import load_corpus
    from poialias.pipeline import build_city_data, score_city
    from poialias.synth import SynthConfig, generate_city
    from poialias import evaluation

    cfg = SynthConfig(seed=5, n_districts=1, pois_per_district=40)
    generate_city(cfg, str(tmp_path))
    city = build_city_data(load_corpus(str(tmp_path)))
    mc = MetricConfig(method="jaccard", threshold=0.0)
    scores = score_city(city, mc)
    cal = evaluation.calibrate_on_districts(city, scores, sorted(scores))
    dd = city.districts["d00"]
    links = apply_threshold(
        scores["d00"], cal.theta, "d00", dd.standard_names, dd.candidate_names
    )
    planted = {pair for pair, pos in dd.labels.items() if pos}
    found = {(dd.standard_names[i], dd.candidate_names[j]) for i, j in links}
    assert len(found & planted) >= 0.9 * len(planted)
    assert len(found - planted) <= 0.1 * max(len(found), 1)
