"""Scoring inferred alias links against ground truth.

Evaluation is restricted to labeled pairs: the label set is a sample, not
a census, so predictions on unlabeled pairs are unknowable rather than
wrong. Precision/recall/F1 are exact: each is one ratio of Python int
counts, which int / int rounds correctly, as rational arithmetic would;
calibration compares F1s by cross-multiplied counts, since two F1 ratios
can round to one float. Also here: threshold calibration, district
cross-validation, cross-city transfer, and the grid-resolution sweep.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .discovery import MetricConfig, ScoreTable
from .errors import InvalidConfigError, NoPositiveLabelsError, TooFewDistrictsError
from .pipeline import CityData, DistrictData, score_city

DistrictScores = dict[str, ScoreTable]

DEFAULT_TRAIN_FRAC = 0.8


@dataclass
class EvalReport:
    precision: float
    recall: float
    f1: float
    true_positive: int
    predicted_positive: int
    actual_positive: int
    flags: list = field(default_factory=list)
    n_insufficient: int = 0
    n_unscorable: int = 0
    method: str = ""
    threshold: float | None = None
    per_district: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {**asdict(self), "threshold": json_safe(self.threshold)}


def json_safe(v):
    if isinstance(v, float) and not math.isfinite(v):
        return repr(v)
    return v


def prf_from_counts(tp: int, predicted: int, actual: int):
    """Precision/recall/F1 from confusion counts (tp <= predicted, actual).

    F1 = 2tp / (predicted + actual), which is 2 * P * R / (P + R) when tp > 0.
    Each value is one int / int, correctly rounded, so the counts must be
    Python ints: numpy integers round to float64 first, inexact past 2**53.
    Zero-denominator cases yield 0.0 and a flag instead of an error.
    """
    flags = []
    if not predicted:
        flags.append("no-predictions")
    if not actual:
        flags.append("no-actual-positives")
    precision = tp / predicted if predicted else 0.0
    recall = tp / actual if actual else 0.0
    f1 = 2 * tp / (predicted + actual) if tp else 0.0
    return precision, recall, f1, flags


_COUNTS = (
    "true_positive",
    "predicted_positive",
    "actual_positive",
    "n_insufficient",
    "n_unscorable",
)


def prf_record(tp: int, predicted: int, actual: int, insufficient: int, unscorable: int) -> dict:
    """The P/R/F1 record of confusion counts: an EvalReport's count fields,
    and one per_district entry. `insufficient` counts the labeled pairs of
    the scored grid left without a score by a thin profile; `unscorable`
    the labeled pairs outside the grid, which no method can ever score."""
    precision, recall, f1, flags = prf_from_counts(tp, predicted, actual)
    return {
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "true_positive": tp,
        "predicted_positive": predicted,
        "actual_positive": actual,
        "n_insufficient": insufficient,
        "n_unscorable": unscorable,
        "flags": flags,
    }


def _pooled_record(records) -> dict:
    """The P/R/F1 record of the summed counts of `records`."""
    records = list(records)
    return prf_record(*(sum(rec[k] for rec in records) for k in _COUNTS))


@dataclass
class _Labeled:
    """One district's labeled pairs, read from its score table: the scores
    and is_alias of the scored ones, then the is_alias of those left
    unscored by an insufficient profile (`insufficient`) and of those not
    in the scored grid at all (`unscorable`)."""

    score: np.ndarray
    is_alias: np.ndarray
    insufficient: np.ndarray
    unscorable: np.ndarray

    @property
    def actual(self) -> int:
        return int(self.is_alias.sum() + self.insufficient.sum() + self.unscorable.sum())


def _labeled(table: ScoreTable, dd: DistrictData) -> _Labeled:
    if table.standard_names != dd.standard_names or table.candidate_names != dd.candidate_names:
        raise ValueError(f"district {dd.district!r}: the score table is not over the district's grid")
    in_grid = dd.label_pos >= 0
    score, alias = table.score[dd.label_pos[in_grid]], dd.label_is_alias[in_grid]
    scored = ~np.isnan(score)
    return _Labeled(score[scored], alias[scored], alias[~scored], dd.label_is_alias[~in_grid])


@dataclass
class Calibration:
    theta: float
    f1: float
    precision: float
    recall: float
    n_candidates: int


def _district_record(table: ScoreTable, dd: DistrictData, theta: float) -> dict:
    lab = _labeled(table, dd)
    linked = lab.score > theta  # `decide`'s link rule
    tp, predicted = int(lab.is_alias[linked].sum()), int(linked.sum())
    return prf_record(tp, predicted, lab.actual, len(lab.insufficient), len(lab.unscorable))


def evaluate_districts(
    city: CityData,
    scores: DistrictScores,
    theta: float,
    districts: list[str] | None = None,
    method: str = "",
) -> EvalReport:
    """Pooled + per-district evaluation of scored pairs at one threshold;
    `districts` defaults to the city's labeled districts."""
    per_district = {
        d: _district_record(scores[d], city.districts[d], theta)
        for d in (city.labeled_districts() if districts is None else districts)
    }
    return EvalReport(
        **_pooled_record(per_district.values()),
        method=method,
        threshold=theta,
        per_district=per_district,
    )


def calibrate_on_districts(
    city: CityData, scores: DistrictScores, districts: list[str]
) -> Calibration:
    """One threshold fitted for F1 on the pooled labeled pairs of `districts`.

    Candidate thresholds are the midpoints between consecutive distinct
    scores plus -inf/+inf sentinels; F1 is piecewise constant between
    distinct scores, so this sweep is exhaustive. Ties break toward the
    largest threshold (fewest links). Labeled pairs left unscored by an
    insufficient profile still count as actual positives.

    A candidate links the scores strictly above it, so each candidate's
    counts come from one `searchsorted` over the sorted scores. F1 =
    2tp / (predicted + actual): the float quotient tp / (predicted +
    actual) rounds monotonically, so the best candidates are among those
    whose quotient is largest, and those compare exactly by
    cross-multiplied integer counts; only the winner's P/R/F1 is computed.
    """
    parts = [_labeled(scores[d], city.districts[d]) for d in districts]
    if not any(lab.is_alias.any() for lab in parts):
        raise NoPositiveLabelsError(_no_positives_message(parts))
    actual = sum(lab.actual for lab in parts)
    score = np.concatenate([lab.score for lab in parts])
    is_alias = np.concatenate([lab.is_alias for lab in parts])
    order = np.argsort(score, kind="stable")
    score = score[order]
    # != rather than a difference, which reads inf - inf as NaN
    distinct = score[np.concatenate(([True], score[1:] != score[:-1]))]
    # a midpoint of two adjacent floats can round onto the upper score,
    # which then does not link: searchsorted compares with the midpoint
    thetas = np.concatenate(([-math.inf], (distinct[:-1] + distinct[1:]) / 2.0, [math.inf]))
    unlinked = np.searchsorted(score, thetas, side="right")
    positives_unlinked = np.concatenate(([0], np.cumsum(is_alias[order])))[unlinked]
    tp = positives_unlinked[-1] - positives_unlinked
    predicted = len(score) - unlinked
    quotient = tp / (predicted + actual)
    top = np.flatnonzero(quotient == quotient.max())
    # Python ints, so the cross-multiplied products cannot overflow
    tp, predicted = tp[top].tolist(), predicted[top].tolist()
    best = 0
    for k in range(1, len(top)):
        # >= implements the tie rule: later candidates are larger thresholds
        if tp[k] * (predicted[best] + actual) >= tp[best] * (predicted[k] + actual):
            best = k
    p, r, f1, _ = prf_from_counts(tp[best], predicted[best], actual)
    return Calibration(
        theta=float(thetas[top[best]]), f1=f1, precision=p, recall=r, n_candidates=len(thetas)
    )


def _no_positives_message(parts: list[_Labeled]) -> str:
    def counted(arrays) -> str:
        arrays = list(arrays)
        return f"{sum(map(len, arrays))} ({sum(int(a.sum()) for a in arrays)} positive)"

    return (
        "no positive labels among the scored pairs: labeled pairs scored "
        f"{counted(lab.is_alias for lab in parts)}, insufficient "
        f"{counted(lab.insufficient for lab in parts)}, unscorable "
        f"{counted(lab.unscorable for lab in parts)}"
    )


@dataclass
class CrossValReport:
    folds: list
    mean_f1: float
    mean_precision: float
    mean_recall: float
    pooled: EvalReport

    def to_dict(self) -> dict:
        return asdict(self)  # the pooled report's threshold is None, which json_safe keeps


def district_cross_validation(
    city: CityData,
    scores: DistrictScores,
    train_frac: float = DEFAULT_TRAIN_FRAC,
    method: str = "",
) -> CrossValReport:
    """Calibrate on training districts, evaluate on held-out ones.

    Districts are sorted by name and assigned to folds round-robin, so the
    split is deterministic. With k labeled districts the training side
    holds min(ceil(train_frac * k), k - 1) districts; each district is
    tested exactly once across the folds. Reports both the per-fold mean
    and the pooled-count aggregate.
    """
    labeled = city.labeled_districts()
    k = len(labeled)
    if k < 2:
        raise TooFewDistrictsError(f"cross-validation needs >= 2 labeled districts, got {k}")
    train_size = min(math.ceil(train_frac * k), k - 1)
    test_size = k - train_size
    n_folds = math.ceil(k / test_size)

    folds = []
    for f in range(n_folds):
        test = labeled[f::n_folds]  # round-robin: district i tests in fold i % n_folds
        train = [d for d in labeled if d not in test]
        cal = calibrate_on_districts(city, scores, train)
        rep = evaluate_districts(city, scores, cal.theta, districts=test, method=method)
        folds.append(
            {
                "fold": f,
                "train_districts": train,
                "test_districts": test,
                "theta": json_safe(cal.theta),
                "train_f1": cal.f1,
                "test": rep.to_dict(),
            }
        )
    tests = [fold["test"] for fold in folds]
    return CrossValReport(
        folds=folds,
        mean_f1=sum(t["f1"] for t in tests) / n_folds,
        mean_precision=sum(t["precision"] for t in tests) / n_folds,
        mean_recall=sum(t["recall"] for t in tests) / n_folds,
        pooled=EvalReport(**_pooled_record(tests), method=method),
    )


@dataclass
class TransferReport:
    theta: float
    source_report: EvalReport
    target_report: EvalReport

    def to_dict(self) -> dict:
        return {
            "theta": json_safe(self.theta),
            "source": self.source_report.to_dict(),
            "target": self.target_report.to_dict(),
        }


def cross_city_transfer(
    source_city: CityData,
    source_scores: DistrictScores,
    target_city: CityData,
    target_scores: DistrictScores,
    method: str = "",
) -> TransferReport:
    """Calibrate on all source labels, apply unchanged to the target city."""
    cal = calibrate_on_districts(source_city, source_scores, source_city.labeled_districts())
    src = evaluate_districts(source_city, source_scores, cal.theta, method=method)
    tgt = evaluate_districts(target_city, target_scores, cal.theta, method=method)
    return TransferReport(theta=cal.theta, source_report=src, target_report=tgt)


def resolution_sweep(
    city: CityData,
    method: str,
    grid_values: list[int],
    base_config: MetricConfig,
    workers: int = 1,
) -> list[tuple[int, EvalReport]]:
    """Calibrate-and-evaluate once per grid resolution.

    Each grid size gets a full scoring pass, in-city calibration over all
    labeled pairs, and an evaluation at the calibrated threshold.
    """
    if not grid_values:
        raise InvalidConfigError("grid_values must be non-empty")
    results = []
    for n in grid_values:
        cfg = replace(base_config, method=method, grid_n=int(n))
        scores = score_city(city, cfg, workers=workers)
        cal = calibrate_on_districts(city, scores, city.labeled_districts())
        results.append((int(n), evaluate_districts(city, scores, cal.theta, method=method)))
    return results
