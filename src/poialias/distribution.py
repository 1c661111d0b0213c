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
from dataclasses import dataclass

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

    def dense_counts(self) -> np.ndarray:
        grid = np.zeros(self.n_grid * self.n_grid, dtype=np.int64)
        grid[self.cells] = self.counts
        return grid.reshape(self.n_grid, self.n_grid)

    @classmethod
    def from_dense(cls, grid, bbox: BoundingBox) -> "DensityMatrix":
        arr = np.asarray(grid, dtype=np.int64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise InvalidConfigError(f"density grid must be square, got shape {arr.shape}")
        if (arr < 0).any():
            raise InvalidConfigError("density counts must be non-negative")
        flat = arr.ravel()
        cells = np.flatnonzero(flat)
        return cls(cells=cells, counts=flat[cells], n_grid=arr.shape[0], bbox=bbox)


@dataclass
class Distribution:
    """A normalized density matrix; probabilities over grid cells."""

    cells: np.ndarray
    probs: np.ndarray
    n_grid: int
    bbox: BoundingBox

    @property
    def total(self) -> float:
        return float(self.probs.sum())

    def dense_probs(self) -> np.ndarray:
        grid = np.zeros(self.n_grid * self.n_grid, dtype=float)
        grid[self.cells] = self.probs
        return grid.reshape(self.n_grid, self.n_grid)


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
    np.clip(rows, 0, n_grid - 1, out=rows)
    np.clip(cols, 0, n_grid - 1, out=cols)
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
        n_grid=m.n_grid,
        bbox=m.bbox,
    )


def _check_same_grid(p: Distribution, q: Distribution):
    if p.n_grid != q.n_grid or p.bbox != q.bbox:
        raise GridMismatchError(
            f"distributions disagree on grid/bbox: {p.n_grid} vs {q.n_grid}, {p.bbox} vs {q.bbox}"
        )


def kl_divergence(p: Distribution, q: Distribution, epsilon: float = 1e-9) -> float:
    """KL divergence of epsilon-smoothed distributions, natural log.

    Both sides are smoothed by adding epsilon to every cell and
    renormalizing, which keeps the value finite when q has zero mass where
    p does not. Non-negative; zero iff the smoothed distributions match.
    Asymmetric in (p, q) as usual.

    The sparse evaluation below is exact: cells empty in both
    distributions smooth to identical values, so their log-ratio terms
    reduce to a single closed-form contribution.
    """
    _check_same_grid(p, q)
    if not (epsilon > 0.0):
        raise InvalidConfigError(f"epsilon must be positive, got {epsilon}")
    n_cells = p.n_grid * p.n_grid
    sp = float(p.probs.sum())
    sq = float(q.probs.sum())
    denom_p = sp + epsilon * n_cells
    denom_q = sq + epsilon * n_cells
    floor_p = epsilon / denom_p
    floor_q = epsilon / denom_q

    common, pi, qi = np.intersect1d(p.cells, q.cells, assume_unique=True, return_indices=True)
    p_common = (p.probs[pi] + epsilon) / denom_p
    q_common = (q.probs[qi] + epsilon) / denom_q

    p_only_mask = np.ones(len(p.cells), dtype=bool)
    p_only_mask[pi] = False
    q_only_mask = np.ones(len(q.cells), dtype=bool)
    q_only_mask[qi] = False
    p_solo = (p.probs[p_only_mask] + epsilon) / denom_p
    q_solo = (q.probs[q_only_mask] + epsilon) / denom_q

    total = float(np.sum(p_common * np.log(p_common / q_common)))
    if p_solo.size:
        total += float(np.sum(p_solo * (np.log(p_solo) - math.log(floor_q))))
    if q_solo.size:
        total += float(np.sum(floor_p * (math.log(floor_p) - np.log(q_solo))))
    n_untouched = n_cells - len(p.cells) - len(q.cells) + len(common)
    if n_untouched:
        total += n_untouched * floor_p * (math.log(floor_p) - math.log(floor_q))
    return total


def jaccard_overlap(p: Distribution, q: Distribution) -> float:
    """Mass fraction sitting on jointly occupied cells.

    Sum of (p + q) over cells where both are non-zero, divided by the sum
    of (p + q) over all cells. 1.0 for identical supports, 0.0 for
    disjoint ones.
    """
    _check_same_grid(p, q)
    common, pi, qi = np.intersect1d(p.cells, q.cells, assume_unique=True, return_indices=True)
    num = float(p.probs[pi].sum() + q.probs[qi].sum())
    den = float(p.probs.sum() + q.probs.sum())
    return num / den


def jaccard_distance(p: Distribution, q: Distribution) -> float:
    """1 minus the overlap fraction; symmetric, in [0, 1].

    The complement makes 1/distance a genuine similarity: identical
    profiles score highest. The raw overlap stays available via
    `jaccard_overlap`.
    """
    return 1.0 - jaccard_overlap(p, q)
