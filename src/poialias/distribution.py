"""Spatial distributions of mobility profiles.

A profile is rasterized onto an n x n grid over a district bounding box,
giving a density matrix of per-cell point counts; normalizing yields a
discrete probability distribution. Two divergences compare distributions:
KL divergence (after epsilon smoothing, since raw KL blows up on
zero-mass cells) and a support-overlap Jaccard measure.

Grids are stored sparsely (occupied cells only): at fine resolutions a
profile touches a few hundred of potentially hundreds of thousands of
cells.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from operator import mul

import numpy as np

from .errors import (
    AllPointsOutsideBboxError,
    GridMismatchError,
    InvalidConfigError,
    ZeroTotalError,
)


@dataclass(frozen=True)
class BoundingBox:
    min_lat: float
    max_lat: float
    min_lon: float
    max_lon: float

    def __post_init__(self):
        if not (self.min_lat < self.max_lat and self.min_lon < self.max_lon):
            raise InvalidConfigError(
                f"degenerate bounding box: lat [{self.min_lat}, {self.max_lat}], "
                f"lon [{self.min_lon}, {self.max_lon}]"
            )

    @classmethod
    def from_points(cls, points: np.ndarray, pad_fraction: float = 0.01) -> "BoundingBox":
        """Tight data extent padded by a fraction of each axis span."""
        pts = np.asarray(points, dtype=float)
        if pts.size == 0:
            raise InvalidConfigError("bounding box from an empty point set")
        pts = pts.reshape(-1, 2)
        min_lat, max_lat = float(pts[:, 0].min()), float(pts[:, 0].max())
        min_lon, max_lon = float(pts[:, 1].min()), float(pts[:, 1].max())
        # degenerate spans (single point / collinear) get a nominal pad
        span_lat = max(max_lat - min_lat, 1e-6)
        span_lon = max(max_lon - min_lon, 1e-6)
        pad_lat = span_lat * pad_fraction
        pad_lon = span_lon * pad_fraction
        return cls(min_lat - pad_lat, max_lat + pad_lat, min_lon - pad_lon, max_lon + pad_lon)


@dataclass
class DensityMatrix:
    """Per-cell point counts of one profile over a bounding box.

    `cells` holds sorted flat indices (row * n_grid + col) of the occupied
    cells and `counts` their point counts; `dropped` counts points that
    fell outside the bounding box.
    """

    cells: np.ndarray
    counts: np.ndarray
    n_grid: int
    bbox: BoundingBox
    dropped: int = 0

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class _KLTerms:
    """The parts of smoothed KL that depend on one distribution and epsilon.

    With P_c = (p_c + eps) / denom on every cell c (floor = eps / denom on
    the cells p leaves empty): neg_entropy is sum_c P_c log P_c, mass is
    sum_c P_c, and log_ratio maps each occupied cell to log((p_c + eps) / eps),
    whose sum is log_ratio_sum. count_denom is p's point total times denom.
    """

    neg_entropy: float
    mass: float
    floor: float
    log_floor: float
    count_denom: float
    log_ratio: dict
    log_ratio_sum: float


@dataclass
class Distribution:
    """A normalized density matrix; probabilities over grid cells.

    `counts` keeps the integer point counts behind `probs`. The per-cell
    lookups and KL terms the divergences need are built on first use and
    cached on the object, so each costs once per distribution rather than
    once per pair; the arrays must not change after that.
    """

    cells: np.ndarray
    probs: np.ndarray
    counts: np.ndarray
    n_grid: int
    bbox: BoundingBox
    _kl: dict = field(default_factory=dict, init=False, repr=False, compare=False)  # epsilon -> terms

    @cached_property
    def n_points(self) -> int:
        return int(self.counts.sum())

    @cached_property
    def count_of(self) -> dict:
        """Occupied cell -> point count."""
        return dict(zip(self.cells.tolist(), self.counts.tolist()))

    @cached_property
    def cell_set(self) -> frozenset:
        """The occupied cells."""
        return frozenset(self.count_of)

    def kl_terms(self, epsilon: float) -> _KLTerms:
        terms = self._kl.get(epsilon)
        if terms is None:
            terms = self._kl[epsilon] = _kl_terms(self, epsilon)
        return terms


def rasterize(profile, bbox: BoundingBox, n_grid: int) -> DensityMatrix:
    """Count a profile's points per grid cell over `bbox`.

    `profile` may be a MobilityProfile or a raw (n, 2) lat/lon array.
    Points outside the bounding box are dropped and counted in the result's
    `dropped` field; if nothing remains the operation raises.
    """
    if not isinstance(n_grid, int) or n_grid < 1:
        raise InvalidConfigError(f"n_grid must be a positive integer, got {n_grid!r}")
    pts = np.asarray(getattr(profile, "points", profile), dtype=float).reshape(-1, 2)

    lat = pts[:, 0]
    lon = pts[:, 1]
    inside = (
        (lat >= bbox.min_lat)
        & (lat <= bbox.max_lat)
        & (lon >= bbox.min_lon)
        & (lon <= bbox.max_lon)
    )
    dropped = int(pts.shape[0] - inside.sum())
    lat = lat[inside]
    lon = lon[inside]
    if lat.size == 0:
        name = getattr(profile, "name", None)
        raise AllPointsOutsideBboxError(
            f"no points of {'profile ' + name if name else 'the input'} fall inside the bounding box"
        )
    rows = ((lat - bbox.min_lat) / (bbox.max_lat - bbox.min_lat) * n_grid).astype(np.int64)
    cols = ((lon - bbox.min_lon) / (bbox.max_lon - bbox.min_lon) * n_grid).astype(np.int64)
    # non-negative since every kept point is inside the box; only points
    # on the max edges land one past the last row or column
    np.minimum(rows, n_grid - 1, out=rows)
    np.minimum(cols, n_grid - 1, out=cols)
    flat = rows * n_grid + cols
    cells, counts = np.unique(flat, return_counts=True)
    return DensityMatrix(cells=cells, counts=counts, n_grid=n_grid, bbox=bbox, dropped=dropped)


def normalize(m: DensityMatrix) -> Distribution:
    """Divide each cell count by the total count."""
    total = m.total
    if total <= 0:
        raise ZeroTotalError("cannot normalize a density matrix with zero total")
    return Distribution(
        cells=m.cells.copy(),
        probs=m.counts.astype(float) / float(total),
        counts=m.counts.copy(),
        n_grid=m.n_grid,
        bbox=m.bbox,
    )


def _check_same_grid(p: Distribution, q: Distribution):
    if p.n_grid != q.n_grid or (p.bbox is not q.bbox and p.bbox != q.bbox):
        raise GridMismatchError(
            f"distributions disagree on grid/bbox: {p.n_grid} vs {q.n_grid}, {p.bbox} vs {q.bbox}"
        )


def kl_smoothing_is_finite(epsilon: float, n_grid: int) -> bool:
    """Whether epsilon * n_grid**2, the mass that smoothing adds to an
    n_grid x n_grid grid, is a finite float."""
    try:
        return math.isfinite(epsilon * (n_grid * n_grid))
    except OverflowError:  # a cell count past the largest float
        return False


def _kl_terms(p: Distribution, epsilon: float) -> _KLTerms:
    n_cells = p.n_grid * p.n_grid
    n_empty = n_cells - len(p.cells)
    denom = float(p.probs.sum()) + epsilon * n_cells
    floor = epsilon / denom
    log_floor = math.log(floor)
    smoothed = (p.probs + epsilon) / denom
    log_ratio = np.log1p(p.probs / epsilon)
    return _KLTerms(
        # the cells p leaves empty all smooth to `floor`: one closed-form term
        neg_entropy=math.fsum((smoothed * np.log(smoothed)).tolist()) + n_empty * floor * log_floor,
        mass=math.fsum(smoothed.tolist()) + n_empty * floor,
        floor=floor,
        log_floor=log_floor,
        count_denom=p.n_points * denom,
        log_ratio=dict(zip(p.count_of, log_ratio.tolist())),
        log_ratio_sum=math.fsum(log_ratio.tolist()),
    )


def kl_divergence(p: Distribution, q: Distribution, epsilon: float = 1e-9) -> float:
    """KL divergence of epsilon-smoothed distributions, natural log.

    Both sides are smoothed by adding epsilon to every cell and
    renormalizing, which keeps the value finite when q has zero mass where
    p does not. Non-negative; zero iff the smoothed distributions match.
    Asymmetric in (p, q) as usual.

    With P and Q the smoothed distributions, log Q_c is q's log floor plus,
    on q's occupied cells, log((q_c + eps) / eps). Splitting the cross
    entropy there leaves one sum that needs both distributions:

        KL = sum P log P - log_floor_q * sum P - floor_p * G_q - X / (T_p * denom_p)

    where G_q sums q's log ratios and X = sum over cells occupied by both
    of k_c * log((q_c + eps) / eps), with k_c p's point count in cell c
    (p_c = k_c / T_p). Every other term depends on one distribution and
    epsilon and is cached on it (`Distribution.kl_terms`), so a pair costs
    one set intersection and one exactly rounded sum.
    """
    _check_same_grid(p, q)
    # a subnormal epsilon overflows p / epsilon, and every divergence with it
    if not (epsilon >= sys.float_info.min):
        raise InvalidConfigError(
            f"epsilon must be at least {sys.float_info.min} (the smallest normal float), got {epsilon}"
        )
    # past the largest float, the smoothed mass is inf and every floor 0
    if not kl_smoothing_is_finite(epsilon, p.n_grid):
        raise InvalidConfigError(
            f"epsilon * n_grid**2 must be finite, got epsilon={epsilon} and n_grid={p.n_grid}"
        )
    tp = p.kl_terms(epsilon)
    tq = q.kl_terms(epsilon)
    kl = tp.neg_entropy - tq.log_floor * tp.mass - tp.floor * tq.log_ratio_sum
    common = p.cell_set & q.cell_set
    if common:  # else X is 0 and kl - 0.0 is kl
        counts, ratios = map(p.count_of.__getitem__, common), map(tq.log_ratio.__getitem__, common)
        kl -= math.fsum(map(mul, counts, ratios)) / tp.count_denom
    return kl


def jaccard_overlap(p: Distribution, q: Distribution) -> float:
    """Mass fraction sitting on jointly occupied cells.

    Sum of (p + q) over cells where both are non-zero, divided by the sum
    of (p + q) over all cells. 1.0 for identical supports, 0.0 for
    disjoint ones.

    Computed from integer point counts as (C_p / T_p + C_q / T_q) / 2, with
    C_p the points of p on cells q occupies and T_p p's total. The integer
    sums are exact and the one division rounds correctly, so the value
    does not depend on summation order or argument order.
    """
    _check_same_grid(p, q)
    common = p.cell_set & q.cell_set
    if not common:
        return 0.0
    shared_p = sum(map(p.count_of.__getitem__, common))
    shared_q = sum(map(q.count_of.__getitem__, common))
    total_p, total_q = p.n_points, q.n_points
    return (shared_p * total_q + shared_q * total_p) / (2 * total_p * total_q)


def jaccard_distance(p: Distribution, q: Distribution) -> float:
    """1 minus the overlap fraction; symmetric, in [0, 1].

    The complement makes 1/distance a genuine similarity: identical
    profiles score highest. The raw overlap stays available via
    `jaccard_overlap`.
    """
    return 1.0 - jaccard_overlap(p, q)
