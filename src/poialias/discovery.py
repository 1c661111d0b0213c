"""Pairwise similarity scoring and threshold-based alias inference.

Every (standard name, candidate name) pair in a district is scored with
one similarity metric. Similarities are reciprocals of a dissimilarity
(geographic distance between estimated geolocations, or a distribution
divergence), clamped to avoid division by zero. A score is a fact that
nothing mutates; `decide` derives a pair's decision at a threshold, and
every decision and link count comes from it.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from . import distribution as dist
from .errors import InvalidConfigError
from .geo import centroid, haversine, local_region_centroid
from .preprocess import edit_distances
from .profile import MobilityProfile

METHODS = ("centroid", "loc_cent", "kl_div", "jaccard", "edit_distance")

#: floor for geographic distances (meters) before taking the reciprocal
MIN_GEO_DISTANCE_M = 1.0
#: floor for distribution divergences before taking the reciprocal
MIN_DIVERGENCE = 1e-9

DECISION_ALIAS = "alias"
DECISION_NOT_ALIAS = "not-alias"
DECISION_INSUFFICIENT = "insufficient"


@dataclass(frozen=True)
class MetricConfig:
    """Method choice plus every tunable the scoring loop needs."""

    method: str
    threshold: float
    local_window_m: float = 640.0
    grid_n: int = 50
    kl_epsilon: float = 1e-9
    min_profile_points: int = 5

    def __post_init__(self):
        if self.method not in METHODS:
            raise InvalidConfigError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if not np.isfinite(self.threshold):
            raise InvalidConfigError(f"threshold must be finite, got {self.threshold}")
        for name in ("local_window_m", "kl_epsilon"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise InvalidConfigError(f"{name} must be finite and positive, got {value}")
        # below the smallest normal float, 1 / kl_epsilon overflows
        if self.kl_epsilon < sys.float_info.min:
            raise InvalidConfigError(
                f"kl_epsilon must be at least {sys.float_info.min} (the smallest normal float), "
                f"got {self.kl_epsilon}"
            )
        if self.grid_n < 1:
            raise InvalidConfigError(f"grid_n must be >= 1, got {self.grid_n}")
        # kl smoothing adds kl_epsilon to each of the grid's grid_n**2 cells
        if not dist.kl_smoothing_is_finite(self.kl_epsilon, self.grid_n):
            raise InvalidConfigError(
                f"kl_epsilon * grid_n**2 must be finite, got kl_epsilon={self.kl_epsilon} "
                f"and grid_n={self.grid_n}"
            )
        if self.grid_n > dist.MAX_GRID_N:
            raise InvalidConfigError(f"grid_n must be at most {dist.MAX_GRID_N}, got {self.grid_n}")
        # a profile without points is then always insufficient, so no
        # feature is built from an empty point set or a missing bbox
        if self.min_profile_points < 1:
            raise InvalidConfigError(
                f"min_profile_points must be >= 1, got {self.min_profile_points}"
            )


@dataclass(slots=True)
class ScoredPair:
    standard_name: str
    candidate_name: str
    score: float | None  # None when either profile is insufficient


def decide(score: float | None, threshold: float) -> str:
    """The link rule: a pair with no score is insufficient, a score
    strictly above the threshold is an alias, anything else is not."""
    if score is None:
        return DECISION_INSUFFICIENT
    return DECISION_ALIAS if score > threshold else DECISION_NOT_ALIAS


def _kernel(config: MetricConfig):
    """The configured method's score of one pair of features."""
    if config.method in ("centroid", "loc_cent"):
        return lambda fi, fj: 1.0 / max(haversine(fi, fj), MIN_GEO_DISTANCE_M)
    if config.method == "kl_div":
        eps = config.kl_epsilon
        return lambda fi, fj: 1.0 / max(dist.kl_divergence(fi, fj, eps), MIN_DIVERGENCE)
    # jaccard; edit_distance scores whole grids in `_edit_similarities`
    return lambda fi, fj: 1.0 / max(dist.jaccard_distance(fi, fj), MIN_DIVERGENCE)


def _edit_similarities(standards, candidates) -> list[float]:
    """1 - normalized edit distance of every (standard, candidate) name
    pair in row-major order, as Python floats: a similarity in [0, 1]. A
    distance cutoff theta_edit corresponds to the score threshold
    1 - theta_edit."""
    names = [p.name for p in standards] + [p.name for p in candidates]
    n, m = len(standards), len(candidates)
    left, right = np.repeat(np.arange(n), m), n + np.tile(np.arange(m), n)
    lengths = np.array([len(s) for s in names], dtype=np.int64)
    longer = np.maximum(lengths[left], lengths[right])
    # two empty names are at distance 0, and 0 / 1 is 0.0
    return (1.0 - edit_distances(names, left, right) / np.maximum(longer, 1)).tolist()


def _feature(profile: MobilityProfile, config: MetricConfig, bbox: dist.BoundingBox | None):
    """The profile's feature for the configured method, or None when it has
    too few points."""
    if profile.point_count < config.min_profile_points:
        return None
    if config.method == "centroid":
        return centroid(profile.points)
    if config.method == "loc_cent":
        return local_region_centroid(profile.points, config.local_window_m)
    return dist.normalize(dist.rasterize(profile, bbox, config.grid_n))


def score_pairs(
    standards: list[MobilityProfile],
    candidates: list[MobilityProfile],
    config: MetricConfig,
    bbox: dist.BoundingBox | None,
) -> list[ScoredPair]:
    """Score the full N x M standard-by-candidate grid.

    Emits one ScoredPair per (i, j) in row-major order. Under a location
    method, pairs touching a profile with fewer than min_profile_points
    points get score None instead of a number, which `decide` reads as
    insufficient at every threshold; edit_distance reads names only and
    scores every pair. `bbox` is the district grid's extent for kl_div and
    jaccard; None means the district has no located points, so every
    profile is insufficient.
    """
    if not standards or not candidates:
        return []  # no pairs, so no features to build
    if config.method == "edit_distance":  # scored from the names alone, in one batch
        scores = iter(_edit_similarities(standards, candidates))
        return [ScoredPair(ci.name, cj.name, next(scores)) for ci in standards for cj in candidates]
    kernel = _kernel(config)
    cands = [(cj.name, _feature(cj, config, bbox)) for cj in candidates]
    pairs = []
    for ci in standards:
        name_i, fi = ci.name, _feature(ci, config, bbox)
        pairs += [
            ScoredPair(name_i, name_j, None if fi is None or fj is None else kernel(fi, fj))
            for name_j, fj in cands
        ]
    return pairs


def apply_threshold(
    pairs: list[ScoredPair],
    threshold: float,
    district: str,
    standard_names: list[str],
    candidate_names: list[str],
) -> set[tuple[int, int]]:
    """The links at one threshold, as (standard index, candidate index)
    pairs: the pairs that `decide` makes aliases. Mutates nothing.

    `district` names the district the pairs belong to and is not read.
    """
    std_idx = {n: i for i, n in enumerate(standard_names)}
    cand_idx = {n: j for j, n in enumerate(candidate_names)}
    return {
        (std_idx[pair.standard_name], cand_idx[pair.candidate_name])
        for pair in pairs
        if decide(pair.score, threshold) == DECISION_ALIAS
    }
