"""Geographic primitives: great-circle distance, centroids, a local planar
projection, and the fixed-size max-coverage window search used for the
local-region centroid."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import EmptyInputError, InvalidConfigError

EARTH_RADIUS_M = 6_371_000.0
#: meters per degree of arc on the reference sphere
METERS_PER_DEG = math.pi / 180.0 * EARTH_RADIUS_M


@dataclass(frozen=True)
class GeoPoint:
    """A latitude/longitude pair in decimal degrees."""

    lat: float
    lon: float

    def __post_init__(self):
        if not (math.isfinite(self.lat) and math.isfinite(self.lon)):
            raise InvalidConfigError(f"non-finite coordinates: {self.lat}, {self.lon}")
        if not (-90.0 <= self.lat <= 90.0 and -180.0 <= self.lon <= 180.0):
            raise InvalidConfigError(f"coordinates out of range: {self.lat}, {self.lon}")


@dataclass(frozen=True)
class Window:
    """An axis-aligned square window in local planar meters.

    Coverage is closed on all four edges: a point (x, y) is covered when
    x0 <= x <= x0 + side and y0 <= y <= y0 + side.
    """

    x0: float
    y0: float
    side: float
    count: int


def haversine(p: GeoPoint, q: GeoPoint) -> float:
    """Great-circle distance in meters on a 6371 km sphere."""
    lat1 = math.radians(p.lat)
    lat2 = math.radians(q.lat)
    dlat = lat2 - lat1
    dlon = math.radians(q.lon - p.lon)
    a = math.sin(dlat / 2.0) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(a)))


def haversine_grid(ps: list[GeoPoint], qs: list[GeoPoint]) -> np.ndarray:
    """`haversine` of every (p, q) pair, bit for bit, as a len(ps) x
    len(qs) array.

    numpy does the arithmetic, `sqrt` and `radians`, which round as
    `math`'s do. `sin`, `cos`, `asin` and the squares go through `math`
    and Python's `**` per element: numpy's `arcsin` and square differ from
    libm's `asin` and `pow` in the last bit on some arguments.
    """

    def each(fn, values: np.ndarray, *args) -> np.ndarray:
        out = map(fn, values.ravel().tolist(), *(repeat(a) for a in args))
        return np.fromiter(out, dtype=float, count=values.size).reshape(values.shape)

    def sin_squared(x: np.ndarray) -> np.ndarray:
        return each(pow, each(math.sin, x), 2)  # pow(v, 2) is v ** 2

    lat1, lat2 = (np.radians([p.lat for p in pts]) for pts in (ps, qs))
    dlat = lat2[None, :] - lat1[:, None]
    dlon = np.radians(np.array([q.lon for q in qs])[None, :] - np.array([p.lon for p in ps])[:, None])
    cos_cos = each(math.cos, lat1)[:, None] * each(math.cos, lat2)[None, :]
    a = sin_squared(dlat / 2.0) + cos_cos * sin_squared(dlon / 2.0)
    return 2.0 * EARTH_RADIUS_M * each(math.asin, np.minimum(1.0, np.sqrt(a)))


def centroid(points: np.ndarray) -> GeoPoint:
    """Arithmetic mean of latitudes and longitudes.

    `points` is an (n, 2) array of [lat, lon] rows. Plain coordinate means
    are used rather than a spherical mean; at district scale the difference
    is negligible. Each sum is `math.fsum`, correctly rounded, so the mean
    does not depend on the order of the points.
    """
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        raise EmptyInputError("centroid of an empty point set")
    n = len(pts)
    return GeoPoint(math.fsum(pts[:, 0].tolist()) / n, math.fsum(pts[:, 1].tolist()) / n)


def project_local(points: np.ndarray, origin: GeoPoint) -> np.ndarray:
    """Equirectangular projection to meters east/north of `origin`.

    x = (lon - lon0) * cos(lat0) * K and y = (lat - lat0) * K with
    K = (pi/180) * 6,371,000. Valid at district scale (points within a
    degree or so of the origin); exactly invertible by `unproject_local`.
    """
    pts = np.asarray(points, dtype=float)
    coslat = math.cos(math.radians(origin.lat))
    xy = np.empty_like(pts)
    xy[:, 0] = (pts[:, 1] - origin.lon) * coslat * METERS_PER_DEG
    xy[:, 1] = (pts[:, 0] - origin.lat) * METERS_PER_DEG
    return xy


def unproject_local(xy: np.ndarray, origin: GeoPoint) -> np.ndarray:
    """Inverse of `project_local`."""
    xy = np.asarray(xy, dtype=float)
    coslat = math.cos(math.radians(origin.lat))
    pts = np.empty_like(xy)
    pts[:, 0] = origin.lat + xy[:, 1] / METERS_PER_DEG
    pts[:, 1] = origin.lon + xy[:, 0] / (coslat * METERS_PER_DEG)
    return pts


def max_coverage_window(points: np.ndarray, side: float) -> Window:
    """Find the side x side axis-aligned window covering the most points.

    `points` is an (n, 2) array of planar [x, y] meters. An optimal window
    can always be slid until its left and bottom edges pass through input
    points, so the search visits anchors x0 left to right over the distinct
    x values. An anchor's slab holds the points with x0 <= x <= x0 + side.

    Most anchors are skipped unevaluated. An anchor covers at most its slab
    size, and at most the count of the last anchor evaluated plus the
    points that entered the slab since then: every other point of its slab
    was in that earlier slab, where no window covered more than that count.
    An anchor whose bound does not beat the best count so far is skipped.
    On clustered data nearly every anchor is; on uniform data the bound
    rarely prunes, which is the search's worst case.

    An anchor that is evaluated is evaluated exactly. With the slab's y
    values sorted, the window whose bottom edge is the k-th of them covers
    m of them when y[k + m - 1] <= y[k] + side, so its best count is the
    largest m for which some k passes; m is bisected below the bound.

    Returns the optimal Window with the lexicographically smallest
    (x0, y0) among point-anchored optima: anchors are visited in x order
    and replace the best only on a strictly larger count, and within a slab
    the lowest bottom edge at the maximum wins.
    """
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        raise EmptyInputError("max_coverage_window of an empty point set")
    if not (side > 0.0) or not math.isfinite(side):
        raise InvalidConfigError(f"window side must be positive and finite, got {side}")
    pts = pts.reshape(-1, 2)

    xorder = np.argsort(pts[:, 0], kind="stable")
    xs = pts[xorder, 0]
    ys = pts[xorder, 1]
    # anchors are the first point of each distinct x; the slab of the
    # anchor at i ends before slab_end[i]
    anchors = np.flatnonzero(np.diff(xs, prepend=-np.inf)).tolist()
    slab_end = np.searchsorted(xs, xs + side, side="right").tolist()
    x_l = xs.tolist()

    best = 0
    best_x0 = 0.0
    best_y0 = 0.0
    last_count = 0  # the count and slab end of the last anchor evaluated
    last_end = 0
    for i in anchors:
        end = slab_end[i]
        n = end - i
        # this anchor's count lies in [lo, hi]
        lo, hi = 1, min(n, last_count + end - last_end)
        if hi <= best:
            continue
        slab = np.sort(ys[i:end])
        top = slab + side
        while lo < hi:  # bisect for the largest m that some bottom edge reaches
            m = (lo + hi + 1) // 2
            if (slab[m - 1 :] <= top[: n - m + 1]).any():
                lo = m
            else:
                hi = m - 1
        last_count = lo
        last_end = end
        if lo > best:
            best = lo
            best_x0 = x_l[i]
            best_y0 = float(slab[int((slab[lo - 1 :] <= top[: n - lo + 1]).argmax())])
    return Window(x0=best_x0, y0=best_y0, side=float(side), count=best)


def local_region_centroid(points: np.ndarray, side: float) -> GeoPoint:
    """Centroid of the points inside the best max-coverage window.

    Projects about the overall centroid, finds the side x side window
    covering the most points with `max_coverage_window` (the optimum with
    the lexicographically smallest (x0, y0) corner, so ties between equal
    clusters resolve the same way every run), and returns the mean lat/lon
    of the covered subset, closed on every edge. Robust to outliers far
    from the dominant cluster, unlike the overall centroid: the window
    settles on the densest cluster, and the search evaluates only the few
    anchors near it.
    """
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        raise EmptyInputError("local_region_centroid of an empty point set")
    pts = pts.reshape(-1, 2)
    origin = centroid(pts)
    xy = project_local(pts, origin)
    win = max_coverage_window(xy, side)
    mask = (
        (xy[:, 0] >= win.x0)
        & (xy[:, 0] <= win.x0 + win.side)
        & (xy[:, 1] >= win.y0)
        & (xy[:, 1] <= win.y0 + win.side)
    )
    # the window always covers at least its anchoring points
    return centroid(pts[mask])
