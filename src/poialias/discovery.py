"""Pairwise similarity scoring and threshold-based alias inference.

Every (standard name, candidate name) pair in a district is scored with
one similarity metric; pairs scoring strictly above the threshold become
links in the inferred alias matrix. Similarities are reciprocals of a
dissimilarity (geographic distance between estimated geolocations, or a
distribution divergence), clamped to avoid division by zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import distribution as dist
from .errors import InvalidConfigError
from .geo import centroid, haversine, local_region_centroid
from .preprocess import normalized_edit_distance
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
        if self.grid_n < 1:
            raise InvalidConfigError(f"grid_n must be >= 1, got {self.grid_n}")
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
    decision: str = DECISION_INSUFFICIENT


@dataclass
class AliasMatrix:
    """Sparse boolean matrix of inferred (standard, candidate) alias links."""

    district: str
    standard_names: list[str]
    candidate_names: list[str]
    links: set = field(default_factory=set)  # {(i, j)}


def _kernel(config: MetricConfig):
    """The configured method's score of one pair of features."""
    if config.method in ("centroid", "loc_cent"):
        return lambda fi, fj: 1.0 / max(haversine(fi, fj), MIN_GEO_DISTANCE_M)
    if config.method == "kl_div":
        eps = config.kl_epsilon
        return lambda fi, fj: 1.0 / max(dist.kl_divergence(fi, fj, eps), MIN_DIVERGENCE)
    if config.method == "jaccard":
        return lambda fi, fj: 1.0 / max(dist.jaccard_distance(fi, fj), MIN_DIVERGENCE)
    # edit_distance: similarity in [0, 1]; a distance cutoff theta_edit
    # corresponds to the score threshold 1 - theta_edit
    return lambda fi, fj: 1.0 - normalized_edit_distance(fi, fj)


def _feature(profile: MobilityProfile, config: MetricConfig, bbox: dist.BoundingBox | None):
    """The profile's feature for the configured method, or None when it has
    too few points."""
    if config.method == "edit_distance":
        return profile.name
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

    Emits one ScoredPair per (i, j) in row-major order. Pairs touching a
    profile with fewer than min_profile_points points get score None and
    an `insufficient` decision instead of a number. `bbox` is the district
    grid's extent for kl_div and jaccard; None means the district has no
    located points, so every profile is insufficient.
    """
    if not standards or not candidates:
        return []  # no pairs, so no features to build
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
) -> AliasMatrix:
    """Fill pair decisions and build the alias matrix for one threshold.

    A pair links iff its score is strictly greater than the threshold;
    insufficient pairs never link and keep their no-decision marker.
    """
    std_idx = {n: i for i, n in enumerate(standard_names)}
    cand_idx = {n: j for j, n in enumerate(candidate_names)}
    matrix = AliasMatrix(
        district=district,
        standard_names=list(standard_names),
        candidate_names=list(candidate_names),
    )
    for pair in pairs:
        if pair.score is None:
            pair.decision = DECISION_INSUFFICIENT
            continue
        if pair.score > threshold:
            pair.decision = DECISION_ALIAS
            matrix.links.add((std_idx[pair.standard_name], cand_idx[pair.candidate_name]))
        else:
            pair.decision = DECISION_NOT_ALIAS
    return matrix
