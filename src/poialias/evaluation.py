"""Scoring inferred alias links against ground truth.

Evaluation is restricted to labeled pairs: the label set is a sample, not
a census, so predictions on unlabeled pairs are unknowable rather than
wrong. Precision/recall/F1 use exact rational arithmetic on the counts.
Also here: threshold calibration, district cross-validation, cross-city
transfer, and the grid-resolution sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import groupby
from operator import itemgetter

from .discovery import MetricConfig, ScoredPair
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
    method: str = ""
    threshold: float | None = None
    per_district: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "true_positive": self.true_positive,
            "predicted_positive": self.predicted_positive,
            "actual_positive": self.actual_positive,
            "flags": list(self.flags),
            "n_insufficient": self.n_insufficient,
            "method": self.method,
            "threshold": json_safe(self.threshold),
            "per_district": self.per_district,
        }
        if self.config:
            out["config"] = self.config
        return out


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


def _labeled_scores(scored: list[ScoredPair], labels: dict):
    """One district's labeled pairs, looked up in that district's own labels.

    Returns the (score, is_alias) list of the scored ones and the number of
    labeled pairs left unscored by an insufficient profile.
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
    return out, insufficient


@dataclass
class Calibration:
    theta: float
    f1: float
    precision: float
    recall: float
    n_candidates: int


def evaluate_districts(
    city: CityData,
    scores: DistrictScores,
    theta: float,
    districts: list[str] | None = None,
    method: str = "",
    config: dict | None = None,
) -> EvalReport:
    """Pooled + per-district evaluation of scored pairs at one threshold."""
    if districts is None:
        districts = sorted(d for d in scores if city.districts[d].labels)
    tot_tp = tot_pred = tot_act = tot_ins = 0
    per_district = {}
    for d in districts:
        dd = city.districts[d]
        labeled, ins = _labeled_scores(scores.get(d, []), dd.labels)
        above = [pos for score, pos in labeled if score > theta]
        tp, pred, act = sum(above), len(above), sum(dd.labels.values())
        p, r, f1, flags = prf_from_counts(tp, pred, act)
        per_district[d] = {
            "precision": p,
            "recall": r,
            "f1": f1,
            "true_positive": tp,
            "predicted_positive": pred,
            "actual_positive": act,
            "n_insufficient": ins,
            "flags": flags,
        }
        tot_tp += tp
        tot_pred += pred
        tot_act += act
        tot_ins += ins
    p, r, f1, flags = prf_from_counts(tot_tp, tot_pred, tot_act)
    return EvalReport(
        precision=p,
        recall=r,
        f1=f1,
        true_positive=tot_tp,
        predicted_positive=tot_pred,
        actual_positive=tot_act,
        flags=flags,
        n_insufficient=tot_ins,
        method=method,
        threshold=theta,
        per_district=per_district,
        config=config or {},
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
    labeled = [d for d in city.labeled_districts() if d in scores]
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
    tot_tp = tot_pred = tot_act = 0
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
        tot_tp += rep.true_positive
        tot_pred += rep.predicted_positive
        tot_act += rep.actual_positive
    p, r, f1, flags = prf_from_counts(tot_tp, tot_pred, tot_act)
    pooled = EvalReport(
        precision=p,
        recall=r,
        f1=f1,
        true_positive=tot_tp,
        predicted_positive=tot_pred,
        actual_positive=tot_act,
        flags=flags,
        method=method,
    )
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
    cal = calibrate_on_districts(source_city, source_scores, sorted(source_scores))
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
        cal = calibrate_on_districts(city, scores, sorted(scores))
        results.append((int(n), evaluate_districts(city, scores, cal.theta, method=method)))
    return results
