"""Metrics, calibration, cross-validation, transfer, sweep, baseline."""

import math
from fractions import Fraction
from itertools import groupby
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from poialias import evaluation
from poialias.discovery import METHODS, MetricConfig, ScoreTable, apply_threshold, score_pairs
from poialias.errors import NoPositiveLabelsError, TooFewDistrictsError
from poialias.evaluation import (
    Calibration,
    cross_city_transfer,
    district_cross_validation,
    evaluate_districts,
    prf_from_counts,
    resolution_sweep,
)
from poialias.pipeline import CityData, DistrictData, build_city_data, score_city
from poialias.preprocess import CanonicalMap, normalized_edit_distance
from poialias.profile import MobilityProfile
from poialias.ingestion import load_corpus
from poialias.synth import SynthConfig, generate_city


def fraction_oracle(tp, pred, act):
    """Independent rational-arithmetic reference for P/R/F1."""
    p = Fraction(tp, pred) if pred else Fraction(0)
    r = Fraction(tp, act) if act else Fraction(0)
    f1 = 2 * p * r / (p + r) if p + r > 0 else Fraction(0)
    return float(p), float(r), float(f1)


#: a labeled pair's score that leaves the pair out of the scored grid
UNSCORABLE = "unscorable"


def labeled_city(districts):
    """A city of districts given as {(std, cand): (score, is_alias)} maps.

    Each district's score table is the grid of its names with NaN on the
    pairs the map does not give. A score None is NaN too (insufficient);
    UNSCORABLE labels the pair but leaves its candidate out of the grid.
    An is_alias None scores the pair without labeling it.
    """
    city = CityData(districts={})
    scores = {}
    for d, pairs in districts.items():
        stds = sorted({s for s, _ in pairs})
        cands = sorted({c for (_, c), (score, _) in pairs.items() if score is not UNSCORABLE})
        grid = np.full(len(stds) * len(cands), np.nan)
        for (s, c), (score, _) in pairs.items():
            if score is not UNSCORABLE:
                grid[stds.index(s) * len(cands) + cands.index(c)] = np.nan if score is None else score
        labels = [(s, c, pos) for (s, c), (_, pos) in pairs.items() if pos is not None]
        city.districts[d] = DistrictData(
            district=d,
            canonical_map=CanonicalMap(),
            profiles={},
            standard_names=stds,
            candidate_names=cands,
            label_pos=np.array(
                [stds.index(s) * len(cands) + cands.index(c) if c in cands else -1 for s, c, _ in labels],
                dtype=np.int64,
            ),
            label_is_alias=np.array([pos for _, _, pos in labels], dtype=bool),
        )
        scores[d] = ScoreTable(stds, cands, grid)
    return city, scores


def links_at(labels, links):
    """A one-district city where exactly `links` score above 0.5."""
    return labeled_city(
        {"d": {key: (1.0 if key in links else 0.0, pos) for key, pos in labels.items()}}
    )


# -------------------------------------------------------------------- PRF


def test_prf_hand_example():
    labels = {("a", "x"): True, ("a", "y"): False, ("b", "z"): True}
    rep = evaluate_districts(*links_at(labels, {("a", "x"), ("a", "y")}), 0.5)
    assert (rep.precision, rep.recall, rep.f1) == (0.5, 0.5, 0.5)
    assert (rep.true_positive, rep.predicted_positive, rep.actual_positive) == (1, 2, 2)
    assert prf_from_counts(1, 2, 2) == (0.5, 0.5, 0.5, [])


def test_prf_perfect_prediction():
    labels = {("a", "x"): True, ("b", "y"): True, ("a", "y"): False}
    rep = evaluate_districts(*links_at(labels, {("a", "x"), ("b", "y")}), 0.5)
    assert (rep.precision, rep.recall, rep.f1) == (1.0, 1.0, 1.0)


def test_prf_no_predictions_flagged_zero():
    labels = {("a", "x"): True}
    rep = evaluate_districts(*links_at(labels, set()), 0.5)
    assert rep.precision == 0.0 and rep.recall == 0.0 and rep.f1 == 0.0
    assert "no-predictions" in rep.flags
    assert prf_from_counts(0, 0, 1) == (0.0, 0.0, 0.0, ["no-predictions"])


def test_prf_ignores_unlabeled_predictions():
    # (a, q) scores above the threshold but is unlabeled
    city, scores = labeled_city({"d": {("a", "x"): (1.0, True), ("a", "q"): (1.0, None)}})
    rep = evaluate_districts(city, scores, 0.5)
    assert rep.predicted_positive == 1
    assert rep.precision == 1.0


def test_prf_matches_rational_oracle_randomized():
    rng = np.random.default_rng(23)
    for _ in range(200):
        pred = int(rng.integers(0, 40))
        act = int(rng.integers(0, 40))
        tp = int(rng.integers(0, min(pred, act) + 1))
        p, r, f1, _ = prf_from_counts(tp, pred, act)
        assert (p, r, f1) == fraction_oracle(tp, pred, act)


@st.composite
def confusion_counts(draw, high=2**64):
    """(tp, predicted, actual) with tp <= min(predicted, actual)."""
    predicted, actual = draw(st.integers(0, high)), draw(st.integers(0, high))
    return draw(st.integers(0, min(predicted, actual))), predicted, actual


@settings(max_examples=300, deadline=None)
@given(confusion_counts())
@example((0, 0, 0))
@example((0, 0, 2**64))
@example((0, 2**64, 0))
@example((0, 2**60, 2**64))
# float64 rounds both counts: (2**53 + 1) / (2**53 + 3) would read two ulps low
@example((2**53 + 1, 2**53 + 3, 2**64))
def test_prf_matches_rational_oracle_past_float_precision(counts):
    p, r, f1, _ = prf_from_counts(*counts)
    assert (p, r, f1) == fraction_oracle(*counts)


# -------------------------------------------------------------- calibration


def calibrate_threshold(scored, flags):
    """calibrate_on_districts on a one-district city whose pairs
    ("s", "c<i>") score `scored` (None: insufficient) and are labeled
    `flags`."""
    pairs = {("s", f"c{i}"): (score, bool(v)) for i, (score, v) in enumerate(zip(scored, flags))}
    city, scores = labeled_city({"d": pairs})
    return evaluation.calibrate_on_districts(city, scores, ["d"])


def test_calibrate_separable_example():
    scored = [0.9, 0.8, 0.1, 0.2]
    cal = calibrate_threshold(scored, [1, 1, 0, 0])
    assert cal.theta == 0.5
    assert cal.f1 == 1.0


def test_calibrate_all_positive_returns_minus_inf():
    scored = [0.3, 0.7, 0.5]
    cal = calibrate_threshold(scored, [1, 1, 1])
    assert cal.theta == float("-inf")
    assert cal.f1 == 1.0


def test_calibrate_identical_scores_tie_rule():
    scored = [0.4, 0.4]
    cal = calibrate_threshold(scored, [1, 0])
    # predict-all gives F1 = 2/3, predict-nothing 0; -inf wins
    assert cal.theta == float("-inf")
    assert cal.f1 == pytest.approx(2.0 / 3.0)


def test_calibrate_requires_positive_label():
    with pytest.raises(NoPositiveLabelsError):
        calibrate_threshold([0.5], [0])


def exhaustive_calibration_oracle(scores, flags, actual=None):
    """Brute-force sweep over every candidate threshold.

    `actual` also counts positive labels whose pairs have no score.
    """
    actual = sum(flags) if actual is None else actual
    distinct = sorted(set(scores))
    candidates = [float("-inf")]
    candidates += [(a + b) / 2 for a, b in zip(distinct, distinct[1:])]
    candidates += [float("inf")]
    best = None
    for theta in candidates:
        tp = sum(1 for s, v in zip(scores, flags) if v and s > theta)
        pred = sum(1 for s in scores if s > theta)
        if pred and actual:
            p = Fraction(tp, pred)
            r = Fraction(tp, actual)
            f1 = 2 * p * r / (p + r) if p + r > 0 else Fraction(0)
        else:
            f1 = Fraction(0)
        if best is None or f1 >= best[0]:
            best = (f1, theta)
    return float(best[0]), best[1]


def test_calibrate_matches_exhaustive_oracle():
    rng = np.random.default_rng(31)
    for _ in range(40):
        n = int(rng.integers(2, 60))
        scores = [float(x) for x in rng.choice([0.1, 0.25, 0.5, 0.75, 0.9], n)]
        flags = [bool(v) for v in rng.random(n) < 0.4]
        if not any(flags):
            flags[0] = True
        cal = calibrate_threshold(scores, flags)
        want_f1, want_theta = exhaustive_calibration_oracle(scores, flags)
        assert cal.f1 == want_f1
        assert cal.theta == want_theta


def test_calibrate_matches_oracle_at_scale():
    # a few thousand continuous scores, noisy separation
    rng = np.random.default_rng(37)
    n = 3000
    flags = [bool(v) for v in rng.random(n) < 0.1]
    scores = [
        float(rng.normal(0.7 if f else 0.4, 0.15)) for f in flags
    ]
    cal = calibrate_threshold(scores, flags)
    want_f1, want_theta = exhaustive_calibration_oracle(scores, flags)
    assert cal.f1 == want_f1
    assert cal.theta == want_theta


def test_calibrate_midpoint_rounding_onto_upper_score():
    a = 1.0 + 2.0**-52
    b = math.nextafter(a, 2.0)
    assert (a + b) / 2.0 == b  # so theta = b links neither pair
    cal = calibrate_threshold([a, b], [0, 1])
    assert (cal.f1, cal.theta) == exhaustive_calibration_oracle([a, b], [False, True])
    assert cal.theta == float("-inf")


def test_calibrate_skips_insufficient_pairs():
    # the third pair is positive but unscoreable
    cal = calibrate_threshold([0.9, 0.1, None], [1, 0, 1])
    # recall ceiling is 1/2: the insufficient positive cannot be predicted
    assert cal.recall == 0.5


SCORE_VALUES = [0.1, 0.25, 0.5, 0.75, 0.9]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.lists(st.tuples(st.sampled_from(SCORE_VALUES), st.booleans()), min_size=1, max_size=30),
        min_size=1,
        max_size=4,
    )
)
def test_calibrate_on_districts_matches_oracle_property(districts):
    # every district reuses the names ("s", "c<i>"), so pooled pairs collide
    # by name unless labels stay inside their own district
    assume(any(pos for pairs in districts for _, pos in pairs))
    city, scores = labeled_city(
        {f"d{k}": {("s", f"c{i}"): sp for i, sp in enumerate(pairs)} for k, pairs in enumerate(districts)}
    )
    cal = evaluation.calibrate_on_districts(city, scores, sorted(scores))
    pooled = [sp for pairs in districts for sp in pairs]
    want_f1, want_theta = exhaustive_calibration_oracle(
        [s for s, _ in pooled], [pos for _, pos in pooled]
    )
    assert (cal.f1, cal.theta) == (want_f1, want_theta)
    assert cal.n_candidates == len({s for s, _ in pooled}) + 1


def test_calibrate_on_districts_keeps_same_name_labels_apart():
    city, scores = labeled_city(
        {"d0": {("s", "c"): (0.9, True)}, "d1": {("s", "c"): (0.2, False)}}
    )
    cal = evaluation.calibrate_on_districts(city, scores, ["d0", "d1"])
    assert (cal.theta, cal.f1, cal.precision, cal.recall) == (0.55, 1.0, 1.0, 1.0)
    assert cal.n_candidates == 3


def reference_calibration(labeled, actual) -> Calibration:
    """The per-pair calibration sweep over (score, is_alias) pairs, as a
    loop over Python floats: the reference for calibrate_on_districts.
    `actual` also counts the positives left without a score."""
    labeled = sorted(labeled, key=itemgetter(0))
    distinct = [s for s, _ in groupby(s for s, _ in labeled)]
    candidates = [(a + b) / 2.0 for a, b in zip(distinct, distinct[1:])] + [math.inf]
    predicted, tp = len(labeled), sum(pos for _, pos in labeled)
    best = (-math.inf, tp, predicted)
    i = 0
    for theta in candidates:
        while i < len(labeled) and labeled[i][0] <= theta:
            predicted -= 1
            tp -= labeled[i][1]
            i += 1
        _, best_tp, best_pred = best
        if tp * (best_pred + actual) >= best_tp * (predicted + actual):
            best = (theta, tp, predicted)
    theta, tp, predicted = best
    p, r, f1, _ = prf_from_counts(tp, predicted, actual)
    return Calibration(theta=theta, f1=f1, precision=p, recall=r, n_candidates=len(candidates) + 1)


_A = 1.0 + 2.0**-52  # (A + next float) / 2 rounds onto the next float
_CALIBRATION_SCORES = sorted(
    {v for base in (0.1, 0.5, _A, 3.0, 1e9) for v in (math.nextafter(base, 0.0), base, math.nextafter(base, 2e9))}
) + [math.inf]  # equal infinities are one distinct score, though inf - inf is NaN


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.lists(
            st.tuples(st.sampled_from([*_CALIBRATION_SCORES, None, UNSCORABLE]), st.booleans()),
            min_size=1,
            max_size=25,
        ),
        max_size=3,
    )
)
@example([])  # no district: what a corpus without a usable label leaves to calibrate
def test_calibration_equals_the_per_pair_reference(districts):
    # ties, insufficient (None) and unscorable labels, float neighbours, and
    # a midpoint that rounds onto the upper score
    city, scores = labeled_city(
        {f"d{k}": {("s", f"c{i}"): sp for i, sp in enumerate(pairs)} for k, pairs in enumerate(districts)}
    )
    labeled = [(s, pos) for pairs in districts for s, pos in pairs if s not in (None, UNSCORABLE)]
    actual = sum(pos for pairs in districts for _, pos in pairs)
    if not any(pos for _, pos in labeled):
        with pytest.raises(NoPositiveLabelsError) as err:
            evaluation.calibrate_on_districts(city, scores, sorted(scores))

        def counted(kind):
            mine = [pos for pairs in districts for s, pos in pairs if kind(s)]
            return f"{len(mine)} ({sum(mine)} positive)"

        assert str(err.value) == (
            "no positive labels among the scored pairs: labeled pairs scored "
            f"{counted(lambda s: s not in (None, UNSCORABLE))}, insufficient {counted(lambda s: s is None)}, "
            f"unscorable {counted(lambda s: s is UNSCORABLE)}"
        )
        return
    cal = evaluation.calibrate_on_districts(city, scores, sorted(scores))
    assert cal == reference_calibration(labeled, actual)
    assert type(cal.theta) is float  # report.json keeps its bytes


@pytest.mark.parametrize("method", METHODS)
def test_calibrate_and_evaluate_match_brute_force_on_city(small_city, method):
    city = small_city.city
    scores = score_city(city, MetricConfig(method=method, threshold=0.0))
    districts = sorted(scores)
    score_of = {
        (d, p.standard_name, p.candidate_name): p.score for d in districts for p in scores[d]
    }
    labeled = []  # (district, score or None, is_alias) of each label, read by name
    for d in districts:
        dd = city.districts[d]
        m = len(dd.candidate_names)
        for at, pos in zip(dd.label_pos.tolist(), dd.label_is_alias.tolist()):
            pair = (dd.standard_names[at // m], dd.candidate_names[at % m]) if at >= 0 else None
            labeled.append((d, score_of.get((d, *pair)) if pair else None, pos))
    scored = [(v, pos) for _, v, pos in labeled if v is not None]
    actual = sum(pos for _, _, pos in labeled)
    cal = evaluation.calibrate_on_districts(city, scores, districts)
    want_f1, want_theta = exhaustive_calibration_oracle(
        [v for v, _ in scored], [pos for _, pos in scored], actual
    )
    assert (cal.f1, cal.theta) == (want_f1, want_theta)
    assert cal.n_candidates == len({v for v, _ in scored}) + 1
    tp = sum(1 for v, pos in scored if pos and v > cal.theta)
    pred = sum(1 for v, _ in scored if v > cal.theta)
    assert (cal.precision, cal.recall) == fraction_oracle(tp, pred, actual)[:2]

    rep = evaluate_districts(city, scores, cal.theta, method=method)
    assert (rep.true_positive, rep.predicted_positive, rep.actual_positive) == (tp, pred, actual)
    assert rep.f1 == want_f1
    for d in districts:
        mine = [(v, pos) for dd, v, pos in labeled if dd == d]
        got = rep.per_district[d]
        assert got["true_positive"] == sum(1 for v, pos in mine if pos and v is not None and v > cal.theta)
        assert got["predicted_positive"] == sum(1 for v, _ in mine if v is not None and v > cal.theta)
        assert got["actual_positive"] == sum(pos for _, pos in mine)
        assert got["n_insufficient"] == sum(v is None for v, _ in mine)


# ------------------------------------------------------------ cross-validation


def fake_city(n_districts, score_value=0.9):
    return labeled_city(
        {
            f"d{i:02d}": {("s", "c"): (score_value, True), ("s", "e"): (score_value / 3.0, False)}
            for i in range(n_districts)
        }
    )


def test_crossval_ten_districts_is_five_folds():
    city, scores = fake_city(10)
    rep = district_cross_validation(city, scores, train_frac=0.8)
    assert len(rep.folds) == 5
    tested = [d for fold in rep.folds for d in fold["test_districts"]]
    assert sorted(tested) == sorted(city.districts)  # each district once
    for fold in rep.folds:
        assert len(fold["train_districts"]) == 8
        assert len(fold["test_districts"]) == 2


def test_crossval_two_districts_one_one():
    city, scores = fake_city(2)
    rep = district_cross_validation(city, scores, train_frac=0.8)
    assert len(rep.folds) == 2
    for fold in rep.folds:
        assert len(fold["train_districts"]) == 1
        assert len(fold["test_districts"]) == 1


def test_crossval_seven_districts_covers_each_once():
    city, scores = fake_city(7)
    rep = district_cross_validation(city, scores, train_frac=0.8)
    tested = [d for fold in rep.folds for d in fold["test_districts"]]
    assert sorted(tested) == sorted(city.districts)


def test_crossval_deterministic():
    city, scores = fake_city(6)
    a = district_cross_validation(city, scores).to_dict()
    b = district_cross_validation(city, scores).to_dict()
    assert a == b


def test_crossval_pooled_counts_are_the_sums_over_the_folds():
    # each district has one labeled pair left unscored by an insufficient profile
    city, scores = labeled_city(
        {
            "d0": {("a", "x"): (0.9, True), ("a", "y"): (0.1, False), ("a", "z"): (None, True)},
            "d1": {("b", "x"): (0.8, True), ("b", "y"): (0.85, False), ("b", "w"): (None, False)},
        }
    )
    rep = district_cross_validation(city, scores)
    tests = [fold["test"] for fold in rep.folds]
    pooled = rep.to_dict()["pooled"]
    for key in ("true_positive", "predicted_positive", "actual_positive", "n_insufficient"):
        assert pooled[key] == sum(t[key] for t in tests), key
    assert pooled["n_insufficient"] == 2
    assert (pooled["precision"], pooled["recall"], pooled["f1"], pooled["flags"]) == (
        *fraction_oracle(pooled["true_positive"], pooled["predicted_positive"], pooled["actual_positive"]),
        [],
    )


def test_crossval_needs_two_districts():
    city, scores = fake_city(1)
    with pytest.raises(TooFewDistrictsError):
        district_cross_validation(city, scores)


def test_crossval_train_f1_dominates_test_on_average(tmp_path):
    # statistical sanity: a threshold fitted on the training districts can
    # only look worse when frozen and applied elsewhere, in expectation
    train_f1, test_f1 = [], []
    for seed in range(20):
        cfg = SynthConfig(
            seed=700 + seed,
            n_districts=2,
            pois_per_district=15,
            users_per_poi=(6, 10),
            points_per_user=(8, 14),
        )
        out = tmp_path / f"cv{seed}"
        generate_city(cfg, str(out))
        city = build_city_data(load_corpus(str(out)))
        scores = score_city(city, MetricConfig(method="jaccard", threshold=0.0))
        rep = district_cross_validation(city, scores)
        for fold in rep.folds:
            train_f1.append(fold["train_f1"])
            test_f1.append(fold["test"]["f1"])
    assert sum(train_f1) / len(train_f1) >= sum(test_f1) / len(test_f1)


# ----------------------------------------------------------------- transfer


def test_transfer_identity():
    city, scores = fake_city(3)
    rep = cross_city_transfer(city, scores, city, scores)
    assert rep.target_report.to_dict() == rep.source_report.to_dict()


def test_transfer_matched_generators_close(tmp_path):
    cities = []
    for seed in (910, 911):
        cfg = SynthConfig(seed=seed, n_districts=2, pois_per_district=40)
        out = tmp_path / f"m{seed}"
        generate_city(cfg, str(out))
        city = build_city_data(load_corpus(str(out)))
        scores = score_city(city, MetricConfig(method="jaccard", threshold=0.0))
        cities.append((city, scores))
    rep = cross_city_transfer(*cities[0], *cities[1])
    assert abs(rep.target_report.f1 - rep.source_report.f1) <= 0.05


def test_transfer_scale_shift_degrades(tmp_path):
    src_cfg = SynthConfig(seed=920, n_districts=2, pois_per_district=40, away_fraction=0.1)
    tgt_cfg = SynthConfig(seed=921, n_districts=2, pois_per_district=40, away_fraction=0.2)
    pairs = []
    for cfg, tag in ((src_cfg, "src"), (tgt_cfg, "tgt")):
        out = tmp_path / tag
        generate_city(cfg, str(out))
        city = build_city_data(load_corpus(str(out)))
        scores = score_city(city, MetricConfig(method="jaccard", threshold=0.0))
        pairs.append((city, scores))
    rep = cross_city_transfer(*pairs[0], *pairs[1])
    assert rep.target_report.f1 <= rep.source_report.f1


# -------------------------------------------------------------------- sweep


def test_sweep_singleton_equals_direct_evaluation(small_city):
    base = MetricConfig(method="jaccard", threshold=0.0)
    [(n, sweep_rep)] = resolution_sweep(small_city.city, "jaccard", [50], base)
    assert n == 50

    scores = score_city(small_city.city, base)
    cal = evaluation.calibrate_on_districts(small_city.city, scores, sorted(scores))
    direct = evaluation.evaluate_districts(small_city.city, scores, cal.theta)
    assert sweep_rep.f1 == direct.f1
    assert sweep_rep.precision == direct.precision


def test_sweep_rejects_empty_grid_list(small_city):
    from poialias.errors import InvalidConfigError

    base = MetricConfig(method="jaccard", threshold=0.0)
    with pytest.raises(InvalidConfigError):
        resolution_sweep(small_city.city, "jaccard", [], base)


# ----------------------------------------------------------------- baseline
# The text-only baseline is the edit_distance method: a distance cutoff
# theta_edit is the score threshold 1 - theta_edit.


def edit_distance_links(standards, candidates, theta_edit):
    profiles = lambda names: [MobilityProfile(n, np.zeros((0, 2)), 0, 0) for n in names]
    cfg = MetricConfig(method="edit_distance", threshold=1.0 - theta_edit)
    pairs = score_pairs(profiles(standards), profiles(candidates), cfg, bbox=None)
    links = apply_threshold(pairs, cfg.threshold, "", standards, candidates)
    expected = {
        (i, j)
        for i, s in enumerate(standards)
        for j, c in enumerate(candidates)
        if normalized_edit_distance(s, c) < theta_edit
    }
    assert links == expected
    return links


def test_baseline_identical_names_always_link():
    assert edit_distance_links(["kanilupo"], ["kanilupo"], 0.1) == {(0, 0)}


def test_baseline_disjoint_alphabets_never_link():
    assert edit_distance_links(["aaaa"], ["zzzz"], 1.0) == set()


def test_baseline_threshold_is_strict_on_distance():
    # kitten/sitting: distance 3/7
    assert edit_distance_links(["kitten"], ["sitting"], 0.5) == {(0, 0)}
    assert edit_distance_links(["kitten"], ["sitting"], 0.4) == set()


def test_baseline_agrees_with_edit_distance_method():
    rng = np.random.default_rng(61)
    alphabet = "abcdefgh"
    names = [
        "".join(alphabet[i] for i in rng.integers(0, len(alphabet), int(rng.integers(3, 9))))
        for _ in range(20)
    ]
    found = [edit_distance_links(names[:10], names[10:], t) for t in (0.37, 0.6, 0.8)]
    assert found[0] <= found[1] <= found[2] and found[2]
