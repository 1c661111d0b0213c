"""Geographic primitives: great-circle distance, centroids, a local planar
projection, and the fixed-size max-coverage window search used for the
local-region centroid."""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    points, so the search sweeps anchors x0 left to right over the distinct
    x values and keeps, for every candidate y0 (one slot per point, in y
    order), the number of points in the slab x0 <= x <= x0 + side that a
    window at (x0, y0) covers. A point entering the slab adds 1 to the
    slots of its own candidate interval; a point leaving subtracts 1.

    Per anchor, one max over the span of the slots its insertions raised
    tracks the optimum exactly. After every anchor no slot exceeds `best`,
    so a slot this anchor did not raise, inside the span or not, has only
    lost points since it was last checked and cannot beat `best`; a later
    anchor never wins a tie, because its x0 is larger. The corner is
    searched only when the span's max beats `best`, and then every slot at
    that max is one this anchor raised.

    Returns the optimal Window with the lexicographically smallest
    (x0, y0) among point-anchored optima.
    """
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        raise EmptyInputError("max_coverage_window of an empty point set")
    if not (side > 0.0) or not math.isfinite(side):
        raise InvalidConfigError(f"window side must be positive and finite, got {side}")
    pts = pts.reshape(-1, 2)
    n = pts.shape[0]

    xorder = np.argsort(pts[:, 0], kind="stable")
    xs = pts[xorder, 0]
    ys_in_xorder = pts[xorder, 1]

    yorder = np.argsort(pts[:, 1], kind="stable")
    ycand = pts[yorder, 1]
    slot_of_point = np.empty(n, dtype=np.int64)
    slot_of_point[yorder] = np.arange(n)
    slots = slot_of_point[xorder]

    # candidate y0 slots covered by a point at y: ycand[k] <= y <= ycand[k] + side
    lo = np.searchsorted(ycand + side, ys_in_xorder, side="left")
    hi = np.searchsorted(ycand, ys_in_xorder, side="right")  # exclusive
    # anchors are the first point of each distinct x; the slab of the
    # anchor at i ends before slab_end[i]
    anchors = np.flatnonzero(np.diff(xs, prepend=-np.inf)).tolist()
    slab_end = np.searchsorted(xs, xs + side, side="right").tolist()

    x_l = xs.tolist()
    lo_l = lo.tolist()
    hi_l = hi.tolist()
    slot_l = slots.tolist()

    depth = np.zeros(n, dtype=np.int32)
    active = bytearray(n)  # per-slot slab membership, viewed by numpy on demand

    best = 0
    best_x0 = 0.0
    best_y0 = 0.0
    ins = 0
    rem = 0
    for i in anchors:
        for k in range(rem, i):
            active[slot_l[k]] = 0
            depth[lo_l[k]:hi_l[k]] -= 1
        rem = i
        end = slab_end[i]
        if end <= ins:
            continue
        for k in range(ins, end):
            active[slot_l[k]] = 1
            depth[lo_l[k]:hi_l[k]] += 1
        # the span of the slots this anchor raised
        l = min(lo_l[ins:end])
        h = max(hi_l[ins:end])
        ins = end
        view = depth[l:h]
        q = int(view.max())
        if q > best:
            # the lowest slot at q whose y belongs to a point inside the
            # current slab (point-anchored bottom edge)
            act = np.frombuffer(active, dtype=np.uint8)[l:h]
            k = int(np.flatnonzero((view == q) & (act != 0))[0])
            best = q
            best_x0 = x_l[i]
            best_y0 = float(ycand[l + k])
    return Window(x0=best_x0, y0=best_y0, side=float(side), count=best)


def local_region_centroid(points: np.ndarray, side: float) -> GeoPoint:
    """Centroid of the points inside the best max-coverage window.

    Projects about the overall centroid, finds the side x side window
    covering the most points, and returns the mean lat/lon of the covered
    subset. Robust to outliers far from the dominant cluster, unlike the
    overall centroid.
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
