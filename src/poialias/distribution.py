"""Spatial distributions of mobility profiles.

A profile is rasterized onto an n x n grid over a district bounding box,
giving a density matrix of per-cell point counts; normalizing yields a
discrete probability distribution. Two divergences compare distributions:
KL divergence (after epsilon smoothing, since raw KL blows up on
zero-mass cells) and a support-overlap Jaccard measure.

Grids are stored sparsely (occupied cells only): at fine resolutions a
profile touches a few hundred of potentially hundreds of thousands of
cells. `rasterize_all` grids many profiles in a few numpy passes, and
`kl_divergences` and `jaccard_overlaps` compare every profile of one set
with every profile of another at once, bit for bit as the per-pair
functions do.
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
    sum_c P_c, and log_ratio holds log((p_c + eps) / eps) of each occupied
    cell, in cell order; log_ratio_sum is its sum. count_denom is p's point
    total times denom.
    """

    neg_entropy: float
    mass: float
    floor: float
    log_floor: float
    count_denom: float
    log_ratio: np.ndarray
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
    _kl: dict = field(default_factory=dict, init=False, repr=False, compare=False)  # epsilon -> (terms, ratio_of)

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

    def kl_terms(self, epsilon: float) -> tuple[_KLTerms, dict]:
        """The KL terms at `epsilon`, and their log ratios by occupied cell."""
        cached = self._kl.get(epsilon)
        if cached is None:
            terms = _kl_terms(self.probs, self.n_points, self.n_grid, epsilon)
            cached = self._kl[epsilon] = (terms, dict(zip(self.count_of, terms.log_ratio.tolist())))
        return cached


#: the largest grid whose flat cell indices (row * n_grid + col) fit in int64
MAX_GRID_N = math.isqrt(np.iinfo(np.int64).max)


#: points gridded per numpy pass of `rasterize_all`: its temporaries stay
#: near 1 MB however many points a district holds
_CHUNK_POINTS = 1 << 13


@dataclass
class ProfileGrids:
    """Per-cell point counts of many profiles over one bounding box.

    Entry e is cell `cells[e]` (row * n_grid + col) holding `counts[e]`
    points; profile i owns entries `starts[i]:starts[i + 1]`, in increasing
    cell order, as `rasterize` gives that profile alone. `dropped[i]` counts
    profile i's points outside the bounding box.
    """

    cells: np.ndarray
    counts: np.ndarray
    starts: np.ndarray
    dropped: np.ndarray
    n_grid: int
    bbox: BoundingBox

    def __len__(self) -> int:
        return len(self.starts) - 1

    @cached_property
    def owner(self) -> np.ndarray:
        """The profile of each entry."""
        return np.repeat(np.arange(len(self)), np.diff(self.starts))

    @cached_property
    def totals(self) -> np.ndarray:
        """Each profile's point count inside the box."""
        return np.add.reduceat(self.counts, self.starts[:-1]) if len(self) else self.counts[:0]


def rasterize_all(profiles, bbox: BoundingBox, n_grid: int) -> ProfileGrids:
    """Count the points of each profile per grid cell over `bbox`.

    Each profile may be a MobilityProfile or a raw (n, 2) lat/lon array.
    Points outside the bounding box are dropped and counted per profile; a
    profile with no point left raises. Profiles are gridded together, a
    few thousand points per numpy pass.
    """
    if not isinstance(n_grid, int) or not 1 <= n_grid <= MAX_GRID_N:
        raise InvalidConfigError(f"n_grid must be an integer in [1, {MAX_GRID_N}], got {n_grid!r}")
    sets = [np.asarray(getattr(p, "points", p), dtype=float).reshape(-1, 2) for p in profiles]
    empty = np.zeros(0, dtype=np.int64)
    parts = [[empty] for _ in range(4)]  # cells, counts, cells per set, dropped per set
    lo = 0
    while lo < len(sets):
        hi, n_points = lo + 1, len(sets[lo])
        while hi < len(sets) and n_points + len(sets[hi]) <= _CHUNK_POINTS:
            n_points += len(sets[hi])
            hi += 1
        chunk = _rasterize_chunk(sets[lo:hi], bbox, n_grid)
        for k, n_cells in zip(range(lo, hi), chunk[2].tolist()):
            if not n_cells:
                name = getattr(profiles[k], "name", None)
                raise AllPointsOutsideBboxError(
                    f"no points of {'profile ' + name if name else 'the input'} fall inside the bounding box"
                )
        for out, part in zip(parts, chunk):
            out.append(part)
        lo = hi
    cells, counts, n_cells, dropped = (np.concatenate(p) for p in parts)
    return ProfileGrids(cells, counts, np.concatenate(([0], np.cumsum(n_cells))), dropped, n_grid, bbox)


def _rasterize_chunk(sets: list, bbox: BoundingBox, n_grid: int):
    """One numpy pass of `rasterize_all`: the occupied cells and counts of
    `sets`, sorted by set then cell, plus each set's cell and dropped counts."""
    pts = np.concatenate(sets) if len(sets) > 1 else sets[0]
    owner = np.repeat(np.arange(len(sets)), [len(s) for s in sets])
    lat = pts[:, 0]
    lon = pts[:, 1]
    inside = (
        (lat >= bbox.min_lat)
        & (lat <= bbox.max_lat)
        & (lon >= bbox.min_lon)
        & (lon <= bbox.max_lon)
    )
    dropped = np.bincount(owner[~inside], minlength=len(sets))
    owner, lat, lon = owner[inside], lat[inside], lon[inside]
    rows = ((lat - bbox.min_lat) / (bbox.max_lat - bbox.min_lat) * n_grid).astype(np.int64)
    cols = ((lon - bbox.min_lon) / (bbox.max_lon - bbox.min_lon) * n_grid).astype(np.int64)
    # non-negative since every kept point is inside the box; only points
    # on the max edges land one past the last row or column
    np.minimum(rows, n_grid - 1, out=rows)
    np.minimum(cols, n_grid - 1, out=cols)
    flat = rows * n_grid + cols
    order = np.lexsort((flat, owner))
    flat, owner = flat[order], owner[order]
    new = np.ones(len(flat), dtype=bool)
    new[1:] = (flat[1:] != flat[:-1]) | (owner[1:] != owner[:-1])
    first = np.flatnonzero(new)
    counts = np.diff(np.append(first, len(flat)))
    return flat[first], counts, np.bincount(owner[first], minlength=len(sets)), dropped


def rasterize(profile, bbox: BoundingBox, n_grid: int) -> DensityMatrix:
    """Count a profile's points per grid cell over `bbox`.

    `profile` may be a MobilityProfile or a raw (n, 2) lat/lon array.
    Points outside the bounding box are dropped and counted in the result's
    `dropped` field; if nothing remains the operation raises.
    """
    grids = rasterize_all([profile], bbox, n_grid)
    return DensityMatrix(
        cells=grids.cells, counts=grids.counts, n_grid=n_grid, bbox=bbox, dropped=int(grids.dropped[0])
    )


def normalize(m: DensityMatrix) -> Distribution:
    """Divide each cell count by the total count."""
    total = m.total
    if total <= 0:
        raise ZeroTotalError("cannot normalize a density matrix with zero total")
    return Distribution(
        cells=m.cells.copy(),
        probs=_probabilities(m.counts, total),
        counts=m.counts.copy(),
        n_grid=m.n_grid,
        bbox=m.bbox,
    )


def _probabilities(counts: np.ndarray, total: int) -> np.ndarray:
    return counts.astype(float) / float(total)


def _check_same_grid(p, q):
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


def _kl_terms(probs: np.ndarray, n_points: int, n_grid: int, epsilon: float) -> _KLTerms:
    """The _KLTerms of one distribution: its occupied cells' probabilities
    and its point total on an n_grid x n_grid grid."""
    n_cells = n_grid * n_grid
    n_empty = n_cells - len(probs)
    denom = float(probs.sum()) + epsilon * n_cells
    floor = epsilon / denom
    log_floor = math.log(floor)
    smoothed = (probs + epsilon) / denom
    log_ratio = np.log1p(probs / epsilon)
    return _KLTerms(
        # the cells p leaves empty all smooth to `floor`: one closed-form term
        neg_entropy=math.fsum((smoothed * np.log(smoothed)).tolist()) + n_empty * floor * log_floor,
        mass=math.fsum(smoothed.tolist()) + n_empty * floor,
        floor=floor,
        log_floor=log_floor,
        count_denom=n_points * denom,
        log_ratio=log_ratio,
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
    tp, _ = p.kl_terms(epsilon)
    tq, ratio_of = q.kl_terms(epsilon)
    kl = tp.neg_entropy - tq.log_floor * tp.mass - tp.floor * tq.log_ratio_sum
    common = p.cell_set & q.cell_set
    if common:  # else X is 0 and kl - 0.0 is kl
        counts, ratios = map(p.count_of.__getitem__, common), map(ratio_of.__getitem__, common)
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


def _shared_cells(p: ProfileGrids, q: ProfileGrids):
    """The entry pairs of p and q on a common cell, grouped by profile pair.

    Returns each group's pair key (i * len(q) + j for p's profile i and q's
    profile j), in increasing order, the offsets where the groups start,
    and the p and q entry of every shared cell.
    """
    order = np.argsort(q.cells, kind="stable")
    q_cells = q.cells[order]
    lo = np.searchsorted(q_cells, p.cells, "left")
    n_match = np.searchsorted(q_cells, p.cells, "right") - lo
    p_entry = np.repeat(np.arange(len(p.cells)), n_match)
    # the k-th match of a p entry is the q entry k places past its first
    rank = np.arange(len(p_entry)) - np.repeat(np.cumsum(n_match) - n_match, n_match)
    q_entry = order[np.repeat(lo, n_match) + rank]
    key = p.owner[p_entry] * len(q) + q.owner[q_entry]
    by_pair = np.argsort(key, kind="stable")
    key, p_entry, q_entry = key[by_pair], p_entry[by_pair], q_entry[by_pair]
    new = np.ones(len(key), dtype=bool)
    new[1:] = key[1:] != key[:-1]
    starts = np.flatnonzero(new)
    return key[starts], starts, p_entry, q_entry


def _overlap_ratios(shared_p, shared_q, total_p, total_q) -> np.ndarray:
    """(C_p * T_q + C_q * T_p) / (2 * T_p * T_q) per element of four int64
    arrays, correctly rounded as Python's integer division rounds it, for
    any totals.

    Below 2**53 every operand is an exact float64, so numpy's one division
    rounds correctly; larger denominators are divided as Python ints.
    """
    # float products round monotonically, so a small estimate is truly small
    small = 2.0 * total_p.astype(float) * total_q.astype(float) < 2.0**53
    out = np.empty(len(shared_p))
    tp, tq = total_p[small], total_q[small]
    out[small] = (shared_p[small] * tq + shared_q[small] * tp).astype(float) / (2 * tp * tq).astype(float)
    big = ~small
    out[big] = [
        (cp * tq + cq * tp) / (2 * tp * tq)
        for cp, cq, tp, tq in zip(*(a[big].tolist() for a in (shared_p, shared_q, total_p, total_q)))
    ]
    return out


def jaccard_overlaps(p: ProfileGrids, q: ProfileGrids) -> np.ndarray:
    """`jaccard_overlap` of every (p profile, q profile) pair, bit for bit,
    as a len(p) x len(q) array.

    One join over the entries of shared cells sums each pair's integer
    counts C_p and C_q; pairs with no shared cell overlap 0.0.
    """
    _check_same_grid(p, q)
    out = np.zeros((len(p), len(q)))
    key, starts, p_entry, q_entry = _shared_cells(p, q)
    if len(key):
        i, j = np.divmod(key, len(q))
        shared_p = np.add.reduceat(p.counts[p_entry], starts)
        shared_q = np.add.reduceat(q.counts[q_entry], starts)
        out.flat[key] = _overlap_ratios(shared_p, shared_q, p.totals[i], q.totals[j])
    return out


def kl_divergences(p: ProfileGrids, q: ProfileGrids, epsilon: float) -> np.ndarray:
    """`kl_divergence` of every (p profile, q profile) pair, bit for bit,
    as a len(p) x len(q) array.

    Each profile's terms come from `_kl_terms` once; the terms that need
    both profiles broadcast, and X, the sum over shared cells of k_c times
    q's log ratio, is one exactly rounded `math.fsum` per pair over the
    products of one join.
    """
    _check_same_grid(p, q)
    tp, tq = (
        [
            _kl_terms(_probabilities(g.counts[a:b], total), total, g.n_grid, epsilon)
            for a, b, total in zip(g.starts[:-1].tolist(), g.starts[1:].tolist(), g.totals.tolist())
        ]
        for g in (p, q)
    )

    def column(terms, name: str) -> np.ndarray:
        return np.array([getattr(t, name) for t in terms])

    kl = (
        column(tp, "neg_entropy")[:, None]
        - column(tq, "log_floor") * column(tp, "mass")[:, None]
        - column(tp, "floor")[:, None] * column(tq, "log_ratio_sum")
    )
    key, starts, p_entry, q_entry = _shared_cells(p, q)
    if len(key):
        q_ratio = np.concatenate([t.log_ratio for t in tq])
        products = (p.counts[p_entry] * q_ratio[q_entry]).tolist()
        bounds = zip(starts.tolist(), starts[1:].tolist() + [len(products)])
        x = np.array([math.fsum(products[a:b]) for a, b in bounds])
        kl.flat[key] -= x / column(tp, "count_denom")[key // len(q)]
    return kl
