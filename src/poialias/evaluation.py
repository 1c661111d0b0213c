"""Scoring inferred alias links against ground truth.

Evaluation is restricted to labeled pairs: the label set is a sample, not
a census, so predictions on unlabeled pairs are unknowable rather than
wrong. Precision/recall/F1 use exact rational arithmetic on the counts.
Also here: threshold calibration, district cross-validation, cross-city
transfer, and the grid-resolution sweep.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from fractions import Fraction
from itertools import groupby
from operator import itemgetter

from .discovery import DECISION_ALIAS, MetricConfig, ScoredPair, decide
from .errors import InvalidConfigError, NoPositiveLabelsError, TooFewDistrictsError
from .pipeline import CityData, score_city

DistrictScores = dict[str, list[ScoredPair]]

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
    """Exact precision/recall/F1 from confusion counts.

    Zero-denominator cases yield 0.0 and a flag instead of an error.
    """
    flags = []
    if predicted > 0:
        precision = Fraction(tp, predicted)
    else:
        precision = Fraction(0)
        flags.append("no-predictions")
    if actual > 0:
        recall = Fraction(tp, actual)
    else:
        recall = Fraction(0)
        flags.append("no-actual-positives")
    if precision + recall > 0:
        f1 = 2 * precision * recall / (precision + recall)
    else:
        f1 = Fraction(0)
    return float(precision), float(recall), float(f1), flags


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


def _labeled_scores(scored: list[ScoredPair], labels: dict):
    """One district's labeled pairs, looked up in that district's own labels.

    Returns the (score, is_alias) list of the scored ones, the number of
    labeled pairs left unscored by an insufficient profile, and the number
    of labeled pairs that are not in the scored grid at all: a name with no
    profile, a standard and candidate that resolve to one name, or a
    candidate that is itself a standard.
    """
    out = []
    insufficient = 0
    for pair in scored:
        is_alias = labels.get((pair.standard_name, pair.candidate_name))
        if is_alias is None:
            continue
        if pair.score is None:
            insufficient += 1
        else:
            out.append((pair.score, is_alias))
    return out, insufficient, len(labels) - len(out) - insufficient


@dataclass
class Calibration:
    theta: float
    f1: float
    precision: float
    recall: float
    n_candidates: int


def _district_record(scored: list[ScoredPair], labels: dict, theta: float) -> dict:
    labeled, insufficient, unscorable = _labeled_scores(scored, labels)
    linked = [pos for score, pos in labeled if decide(score, theta) == DECISION_ALIAS]
    return prf_record(sum(linked), len(linked), sum(labels.values()), insufficient, unscorable)


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
        d: _district_record(scores.get(d, []), city.districts[d].labels, theta)
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

    F1 = 2tp / (predicted + actual), so candidates compare exactly by
    cross-multiplied integer counts; only the winner's P/R/F1 is computed.
    """
    labeled = []
    actual = 0
    for d in districts:
        labels = city.districts[d].labels
        labeled += _labeled_scores(scores.get(d, []), labels)[0]
        actual += sum(labels.values())
    if not any(pos for _, pos in labeled):
        raise NoPositiveLabelsError("no positive labels among the scored pairs")
    labeled.sort(key=itemgetter(0))
    distinct = [s for s, _ in groupby(s for s, _ in labeled)]
    candidates = [(a + b) / 2.0 for a, b in zip(distinct, distinct[1:])] + [math.inf]
    predicted, tp = len(labeled), sum(pos for _, pos in labeled)
    best = (-math.inf, tp, predicted)
    i = 0
    for theta in candidates:
        # compare with theta, not the next run: the midpoint of two adjacent
        # floats can round onto the upper score, which then does not link
        while i < len(labeled) and labeled[i][0] <= theta:
            predicted -= 1
            tp -= labeled[i][1]
            i += 1
        # >= implements the tie rule: later candidates are larger thresholds
        _, best_tp, best_pred = best
        if tp * (best_pred + actual) >= best_tp * (predicted + actual):
            best = (theta, tp, predicted)
    theta, tp, predicted = best
    p, r, f1, _ = prf_from_counts(tp, predicted, actual)
    return Calibration(
        theta=theta, f1=f1, precision=p, recall=r, n_candidates=len(candidates) + 1
    )


@dataclass
class CrossValReport:
    folds: list
    mean_f1: float
    mean_precision: float
    mean_recall: float
    pooled: EvalReport

    def to_dict(self) -> dict:
        return {
            "folds": self.folds,
            "mean_f1": self.mean_f1,
            "mean_precision": self.mean_precision,
            "mean_recall": self.mean_recall,
            "pooled": self.pooled.to_dict(),
        }


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

    assignments: dict[int, list[str]] = {f: [] for f in range(n_folds)}
    for i, d in enumerate(labeled):
        assignments[i % n_folds].append(d)

    folds = []
    f1s, ps, rs = [], [], []
    for f in range(n_folds):
        test = assignments[f]
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
        f1s.append(rep.f1)
        ps.append(rep.precision)
        rs.append(rep.recall)
    pooled = EvalReport(**_pooled_record(fold["test"] for fold in folds), method=method)
    return CrossValReport(
        folds=folds,
        mean_f1=sum(f1s) / len(f1s),
        mean_precision=sum(ps) / len(ps),
        mean_recall=sum(rs) / len(rs),
        pooled=pooled,
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
