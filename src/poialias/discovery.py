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
        if self.method == "loc_cent" and not self.local_window_m > 0:
            raise InvalidConfigError(f"local_window_m must be positive, got {self.local_window_m}")
        if self.method in ("kl_div", "jaccard"):
            if self.grid_n < 1:
                raise InvalidConfigError(f"grid_n must be >= 1, got {self.grid_n}")
            if not self.kl_epsilon > 0:
                raise InvalidConfigError(f"kl_epsilon must be positive, got {self.kl_epsilon}")


@dataclass
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

    def link_names(self) -> set:
        return {
            (self.standard_names[i], self.candidate_names[j]) for i, j in self.links
        }


class _PairScorer:
    """Scores all pairs for one method, caching per-profile features."""

    def __init__(self, config: MetricConfig, bbox: dist.BoundingBox | None):
        self.config = config
        self.bbox = bbox
        self._features: dict[str, object] = {}

    def _feature(self, profile: MobilityProfile):
        name = profile.name
        if name in self._features:
            return self._features[name]
        cfg = self.config
        if cfg.method == "edit_distance":
            feat = name
        elif profile.point_count < cfg.min_profile_points:
            feat = None
        elif cfg.method == "centroid":
            feat = centroid(profile.points)
        elif cfg.method == "loc_cent":
            feat = local_region_centroid(profile.points, cfg.local_window_m)
        else:
            feat = dist.normalize(dist.rasterize(profile, self.bbox, cfg.grid_n))
        self._features[name] = feat
        return feat

    def score(self, ci: MobilityProfile, cj: MobilityProfile) -> float | None:
        fi = self._feature(ci)
        fj = self._feature(cj)
        if fi is None or fj is None:
            return None
        cfg = self.config
        if cfg.method in ("centroid", "loc_cent"):
            return 1.0 / max(haversine(fi, fj), MIN_GEO_DISTANCE_M)
        if cfg.method == "kl_div":
            return 1.0 / max(dist.kl_divergence(fi, fj, cfg.kl_epsilon), MIN_DIVERGENCE)
        if cfg.method == "jaccard":
            return 1.0 / max(dist.jaccard_distance(fi, fj), MIN_DIVERGENCE)
        # edit_distance: similarity in [0, 1]; a distance cutoff theta_edit
        # corresponds to the score threshold 1 - theta_edit
        return 1.0 - normalized_edit_distance(fi, fj)


def score_pairs(
    standards: list[MobilityProfile],
    candidates: list[MobilityProfile],
    config: MetricConfig,
    bbox: dist.BoundingBox | None = None,
) -> list[ScoredPair]:
    """Score the full N x M standard-by-candidate grid.

    Emits one ScoredPair per (i, j) in row-major order. Pairs touching a
    profile with fewer than min_profile_points points get score None and
    an `insufficient` decision instead of a number.
    """
    if config.method in ("kl_div", "jaccard") and bbox is None:
        pts = [p.points for p in list(standards) + list(candidates) if p.point_count]
        if not pts:
            raise InvalidConfigError("cannot derive a bounding box: all profiles are empty")
        bbox = dist.BoundingBox.from_points(np.concatenate(pts, axis=0))
    scorer = _PairScorer(config, bbox)
    pairs = []
    for ci in standards:
        for cj in candidates:
            s = scorer.score(ci, cj)
            pairs.append(ScoredPair(standard_name=ci.name, candidate_name=cj.name, score=s))
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
