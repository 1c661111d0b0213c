"""Pairwise similarity scoring and threshold-based alias inference.

Every (standard name, candidate name) pair in a district is scored with
one similarity metric. Similarities are reciprocals of a dissimilarity
(geographic distance between estimated geolocations, or a distribution
divergence), clamped to avoid division by zero. A score is a fact that
nothing mutates; `decide` derives a pair's decision at a threshold, and
every decision and link count comes from it. A district's scores are one
ScoreTable: its name lists and one float array over the grid.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import distribution as dist
from .errors import InvalidConfigError
from .geo import centroid, haversine_grid, local_region_centroid
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
#: `decide`'s codes 0, 1 and 2 name these objects, so no decision is a new string
_DECISIONS = np.array([DECISION_NOT_ALIAS, DECISION_ALIAS, DECISION_INSUFFICIENT], dtype=object)


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
        # counts of cells and of points, so neither 50.7 nor True; an
        # integral numpy scalar becomes the Python int that the rasterizer
        # and the sufficiency test take
        for name in ("grid_n", "min_profile_points"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise InvalidConfigError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
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
    """One row of a ScoreTable."""

    standard_name: str
    candidate_name: str
    score: float | None  # None when either profile is insufficient


@dataclass
class ScoreTable:
    """One district's scores over its standard x candidate grid.

    `score[i * len(candidate_names) + j]` scores the pair
    (standard_names[i], candidate_names[j]); NaN means insufficient.
    Iterating yields the pairs in that row-major order as ScoredPair rows,
    each score a Python float or None; nothing in the package iterates a
    table, and the row view stays for `bench/traced.py`, which does.
    """

    standard_names: list[str]
    candidate_names: list[str]
    score: np.ndarray

    def __len__(self) -> int:
        return len(self.score)

    def __iter__(self):
        names = ((s, c) for s in self.standard_names for c in self.candidate_names)
        for (s, c), v in zip(names, self.score.tolist()):
            yield ScoredPair(s, c, None if math.isnan(v) else v)


def decide(score, threshold: float):
    """The link rule: a pair with no score is insufficient, a score
    strictly above the threshold is an alias, anything else is not.

    `score` is one score, None when there is none, or an array of scores
    with NaN for none, which gives the list of their decisions.
    """
    score = np.asarray(score, dtype=float)  # None reads as NaN
    code = np.asarray(score > threshold, dtype=np.int8)
    code[np.isnan(score)] = 2
    return _DECISIONS[code.ravel()].reshape(code.shape).tolist()


def _edit_similarities(standards, candidates) -> np.ndarray:
    """1 - normalized edit distance of every (standard, candidate) name
    pair in row-major order: a similarity in [0, 1]. A distance cutoff
    theta_edit corresponds to the score threshold 1 - theta_edit."""
    names = [p.name for p in standards] + [p.name for p in candidates]
    n, m = len(standards), len(candidates)
    left, right = np.repeat(np.arange(n), m), n + np.tile(np.arange(m), n)
    lengths = np.array([len(s) for s in names], dtype=np.int64)
    longer = np.maximum(lengths[left], lengths[right])
    # two empty names are at distance 0, and 0 / 1 is 0.0
    return 1.0 - edit_distances(names, left, right) / np.maximum(longer, 1)


def _dissimilarities(standards, candidates, config: MetricConfig, bbox) -> np.ndarray:
    """The configured location method's dissimilarity of every pair of
    (sufficient) profiles, as a len(standards) x len(candidates) array."""
    if config.method == "centroid":
        feats = [[centroid(p.points) for p in ps] for ps in (standards, candidates)]
        return haversine_grid(*feats)
    if config.method == "loc_cent":
        window = config.local_window_m
        feats = [[local_region_centroid(p.points, window) for p in ps] for ps in (standards, candidates)]
        return haversine_grid(*feats)
    p, q = (dist.rasterize_all(ps, bbox, config.grid_n) for ps in (standards, candidates))
    if config.method == "kl_div":
        return dist.kl_divergences(p, q, config.kl_epsilon)
    return 1.0 - dist.jaccard_overlaps(p, q)


def score_pairs(
    standards: list[MobilityProfile],
    candidates: list[MobilityProfile],
    config: MetricConfig,
    bbox: dist.BoundingBox | None,
) -> ScoreTable:
    """Score the full N x M standard-by-candidate grid.

    A score is the reciprocal of the pair's dissimilarity, floored at
    MIN_GEO_DISTANCE_M (centroid, loc_cent) or MIN_DIVERGENCE (kl_div,
    jaccard); edit_distance scores names alone, as 1 - normalized edit
    distance. Each method scores the whole grid in one kernel, bit for bit
    as its per-pair function would (`geo.haversine`,
    `distribution.kl_divergence`, `distribution.jaccard_distance`). Under a
    location method, pairs touching a profile with fewer than
    min_profile_points points get NaN instead of a number, which `decide`
    reads as insufficient at every threshold. `bbox` is the district grid's
    extent for kl_div and jaccard; None means the district has no located
    points, so every profile is insufficient.
    """
    n, m = len(standards), len(candidates)
    table = ScoreTable([p.name for p in standards], [p.name for p in candidates], np.full(n * m, np.nan))
    if not n or not m:
        return table
    if config.method == "edit_distance":
        table.score[:] = _edit_similarities(standards, candidates)
        return table
    rows, cols = (
        [k for k, p in enumerate(ps) if p.point_count >= config.min_profile_points]
        for ps in (standards, candidates)
    )
    if rows and cols:
        d = _dissimilarities([standards[i] for i in rows], [candidates[j] for j in cols], config, bbox)
        floor = MIN_GEO_DISTANCE_M if config.method in ("centroid", "loc_cent") else MIN_DIVERGENCE
        np.maximum(d, floor, out=d)
        table.score.reshape(n, m)[np.ix_(rows, cols)] = np.divide(1.0, d, out=d)
    return table


def apply_threshold(
    table: ScoreTable,
    threshold: float,
    district: str,
    standard_names: list[str],
    candidate_names: list[str],
) -> set[tuple[int, int]]:
    """The links at one threshold, as (standard index, candidate index)
    pairs into `standard_names` and `candidate_names`: the pairs that
    `decide` makes aliases, those scored strictly above the threshold.
    Mutates nothing.

    `district` names the district the pairs belong to and is not read.
    Nothing in the package calls this: the CLI counts links as
    `(table.score > threshold).sum()`, and the function stays for
    `bench/traced.py`, which times it, until ROADMAP items 1 and 2.
    """
    std_idx = {n: i for i, n in enumerate(standard_names)}
    cand_idx = {n: j for j, n in enumerate(candidate_names)}
    rows, cols = np.divmod(np.flatnonzero(table.score > threshold), len(table.candidate_names))
    return {
        (std_idx[table.standard_names[i]], cand_idx[table.candidate_names[j]])
        for i, j in zip(rows.tolist(), cols.tolist())
    }
