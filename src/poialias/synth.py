"""Seeded synthetic city generator.

Builds a city of named POIs with planted alias relationships, users whose
addresses carry either a standard name or an alias, and per-user GPS logs
that cluster around each user's home POI plus a few secondary places.
Alias spellings share no characters with their standard names, so text
similarity is useless on this data by construction; misspelled
near-duplicates exercise the preprocessing stage. The emitted label file
covers every (standard, candidate) pair per district, making evaluation
exhaustive.

All randomness flows from one integer seed through numpy's PCG64 streams
(one spawned child stream per district), so a fixed seed reproduces the
output files byte for byte.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InvalidConfigError
from .geo import METERS_PER_DEG, GeoPoint, unproject_local
from .preprocess import limited_edit_distance
from .ingestion import (
    AddressRecord,
    GroundTruthLabel,
    write_address_records,
    write_json,
    write_labels,
    write_location_log,
)

_STD_SYLLABLES = [c + v for c in "bcdfgrst" for v in "ae"]
_ALIAS_SYLLABLES = [c + v for c in "klmnpvwz" for v in "iou"]
_ALIAS_ALPHABET = "klmnpvwziou"
_STD_ALPHABET = "bcdfgrstae"

# distinct base names stay at least this far apart (normalized edit
# distance), so near-duplicate clustering can only merge planted typo
# variants with their own base, never two different names
_NAME_MARGIN = 0.45


@dataclass(frozen=True)
class SynthConfig:
    seed: int = 42
    n_districts: int = 2
    pois_per_district: int = 100
    alias_fraction: float = 0.3
    aliases_per_poi: tuple = (1, 2)
    users_per_poi: tuple = (16, 24)
    points_per_user: tuple = (32, 48)
    home_scatter_m: float = 60.0
    away_fraction: float = 0.1
    away_places_per_user: tuple = (1, 3)
    typo_rate: float = 0.08
    district_extent_m: float = 8000.0
    min_separation_m: float = 200.0
    city_name: str = "synthcity"
    province_name: str = "synthprov"
    base_lat: float = 31.0
    base_lon: float = 120.0

    def __post_init__(self):
        for name in ("aliases_per_poi", "users_per_poi", "points_per_user", "away_places_per_user"):
            lo, hi = getattr(self, name)
            if not (0 <= lo <= hi):
                raise InvalidConfigError(f"{name} range ({lo}, {hi}) is empty or negative")
        for name in ("alias_fraction", "away_fraction", "typo_rate"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise InvalidConfigError(f"{name} must lie in [0, 1], got {v}")
        if self.n_districts < 1 or self.pois_per_district < 1:
            raise InvalidConfigError("need at least one district and one POI per district")
        # checked before generation: numpy rejects a negative scatter with a
        # bare ValueError, and an infinite extent only shows as NaN coordinates
        if not (math.isfinite(self.home_scatter_m) and self.home_scatter_m >= 0):
            raise InvalidConfigError(f"home_scatter_m must be finite and non-negative, got {self.home_scatter_m}")
        if not (math.isfinite(self.district_extent_m) and self.district_extent_m > 0):
            raise InvalidConfigError(f"district_extent_m must be finite and positive, got {self.district_extent_m}")
        if not (math.isfinite(self.min_separation_m) and self.min_separation_m >= 0):
            raise InvalidConfigError(f"min_separation_m must be finite and non-negative, got {self.min_separation_m}")
        for name, bound in (("base_lat", 90.0), ("base_lon", 180.0)):
            v = getattr(self, name)
            if not -bound <= v <= bound:  # NaN and inf fail too
                raise InvalidConfigError(f"{name} must be finite and lie in [{-bound:g}, {bound:g}], got {v}")
        if self.min_separation_m > self.district_extent_m / 2:
            raise InvalidConfigError("min_separation_m too large for the district extent")


class _NameIndex:
    """The names accepted so far in one district, with their character counts.

    `clear_of` keeps a drawn name at least `_NAME_MARGIN` from every accepted
    name. Edit distance is at least the bag distance max(|a|, |b|) - |a & b|,
    where a & b is the multiset intersection of the two names' characters
    (Ukkonen 1992's counting filter), so one vectorised step over the count
    matrix rules out most names, every name of the other syllable set among
    them, and only the rest reach the exact `limited_edit_distance` check.
    The decision is the same as that check against every accepted name.
    """

    def __init__(self):
        self.names: list[str] = []
        self._columns: dict[str, int] = {}  # character -> column of _counts
        self._counts = np.zeros((8, 8), dtype=np.int32)  # one row per name, one column per character
        self._lengths = np.zeros(8, dtype=np.int64)

    def clear_of(self, name: str) -> bool:
        n = len(self.names)
        # characters no accepted name holds add nothing to any intersection
        known = [(self._columns[ch], c) for ch, c in Counter(name).items() if ch in self._columns]
        cols = [col for col, _ in known]
        common = np.minimum(self._counts[:n, cols], [c for _, c in known]).sum(axis=1)
        lm = np.maximum(self._lengths[:n], len(name))
        k = (_NAME_MARGIN * lm).astype(np.int64)  # int(_NAME_MARGIN * lm), name by name
        for i in np.flatnonzero(lm - common <= k).tolist():
            ki = int(k[i])
            if limited_edit_distance(name, self.names[i], ki) <= ki:
                return False
        return True

    def add(self, name: str) -> None:
        row = len(self.names)
        counts = Counter(name)
        for ch in counts:
            self._columns.setdefault(ch, len(self._columns))
        if row == len(self._lengths):  # full: double the rows
            self._counts = np.pad(self._counts, ((0, row), (0, 0)))
            self._lengths = np.pad(self._lengths, (0, row))
        if len(self._columns) > self._counts.shape[1]:
            self._counts = np.pad(self._counts, ((0, 0), (0, len(self._columns))))
        for ch, c in counts.items():
            self._counts[row, self._columns[ch]] = c
        self._lengths[row] = len(name)
        self.names.append(name)


def _random_name(rng, syllables, taken: _NameIndex, n_range=(4, 6)) -> str:
    while True:
        k = int(rng.integers(n_range[0], n_range[1] + 1))
        name = "".join(syllables[int(i)] for i in rng.integers(0, len(syllables), k))
        if taken.clear_of(name):
            taken.add(name)
            return name


def _perturb(rng, name: str, alphabet: str) -> str:
    """One random in-alphabet edit: substitute, insert, or delete."""
    op = int(rng.integers(0, 3))
    pos = int(rng.integers(0, len(name)))
    if op == 0:
        ch = alphabet[int(rng.integers(0, len(alphabet)))]
        return name[:pos] + ch + name[pos + 1:]
    if op == 1:
        ch = alphabet[int(rng.integers(0, len(alphabet)))]
        return name[:pos] + ch + name[pos:]
    if len(name) <= 2:
        return name
    return name[:pos] + name[pos + 1:]


def _place_pois(rng, n: int, extent: float, min_sep: float) -> np.ndarray:
    """Uniform placement with a minimum-separation rejection rule."""
    placed = np.empty((n, 2))
    count = 0
    attempts = 0
    while count < n:
        attempts += 1
        if attempts > 200_000:
            raise InvalidConfigError(
                f"could not place {n} POIs with {min_sep} m separation in a "
                f"{extent} m square"
            )
        xy = rng.uniform(0.0, extent, 2)
        if count:
            d2 = ((placed[:count] - xy) ** 2).sum(axis=1)
            if d2.min() < min_sep * min_sep:
                continue
        placed[count] = xy
        count += 1
    return placed


def _generate_district(cfg: SynthConfig, district_idx: int, rng):
    district = f"d{district_idx:02d}"
    extent = cfg.district_extent_m
    lat0 = cfg.base_lat
    # districts sit side by side with a half-extent gap
    lon0 = cfg.base_lon + district_idx * (extent * 1.5) / (
        METERS_PER_DEG * math.cos(math.radians(cfg.base_lat))
    )
    origin = GeoPoint(lat0, lon0)

    n_pois = cfg.pois_per_district
    poi_xy = _place_pois(rng, n_pois, extent, cfg.min_separation_m)
    poi_latlon = unproject_local(poi_xy, origin)

    taken = _NameIndex()
    standards = [_random_name(rng, _STD_SYLLABLES, taken) for _ in range(n_pois)]

    n_aliased = int(round(cfg.alias_fraction * n_pois))
    aliased = sorted(int(i) for i in rng.choice(n_pois, size=n_aliased, replace=False))
    aliases: dict[int, list[str]] = {}
    for poi in aliased:
        lo, hi = cfg.aliases_per_poi
        k = int(rng.integers(lo, hi + 1)) if hi > lo else lo
        aliases[poi] = [_random_name(rng, _ALIAS_SYLLABLES, taken) for _ in range(k)]

    addresses: list[AddressRecord] = []
    locations: dict[str, np.ndarray] = {}
    serial = 0
    for poi in range(n_pois):
        names = [standards[poi]] + aliases.get(poi, [])
        lo, hi = cfg.users_per_poi
        n_users = int(rng.integers(lo, hi + 1)) if hi > lo else lo
        for k in range(n_users):
            user_id = f"u{district_idx:02d}x{serial:05d}"
            serial += 1
            # first users cover each name once so no planted name ends up
            # writerless; the rest pick uniformly
            if k < len(names):
                name = names[k]
            else:
                name = names[int(rng.integers(0, len(names)))]
            spelling = name
            if cfg.typo_rate > 0 and rng.random() < cfg.typo_rate:
                alphabet = _ALIAS_ALPHABET if name != standards[poi] else _STD_ALPHABET
                spelling = _perturb(rng, name, alphabet)
            addresses.append(
                AddressRecord(
                    user_id=user_id,
                    province=cfg.province_name,
                    city=cfg.city_name,
                    district=district,
                    poi_name=spelling,
                )
            )

            plo, phi = cfg.points_per_user
            n_points = int(rng.integers(plo, phi + 1)) if phi > plo else plo
            alo, ahi = cfg.away_places_per_user
            n_away = int(rng.integers(alo, ahi + 1)) if ahi > alo else alo
            away_places = rng.uniform(0.0, extent, (max(n_away, 1), 2))

            pts = np.empty((n_points, 2))
            away_mask = rng.random(n_points) < cfg.away_fraction
            if n_away == 0:
                away_mask[:] = False
            scatter = rng.normal(0.0, cfg.home_scatter_m, (n_points, 2))
            pts[:] = poi_xy[poi] + scatter
            n_away_pts = int(away_mask.sum())
            if n_away_pts:
                which = rng.integers(0, n_away, n_away_pts)
                pts[away_mask] = away_places[which] + scatter[away_mask]
            locations[user_id] = unproject_local(pts, origin)

    labels: list[GroundTruthLabel] = []
    all_aliases = sorted(a for names in aliases.values() for a in names)
    alias_of: dict[str, set] = {}
    for poi, names in aliases.items():
        for a in names:
            alias_of.setdefault(a, set()).add(standards[poi])
    for std in sorted(standards):
        for cand in all_aliases:
            labels.append(
                GroundTruthLabel(
                    district=district,
                    standard_name=std,
                    candidate_name=cand,
                    is_alias=std in alias_of.get(cand, ()),
                )
            )

    latlon = np.concatenate([poi_latlon, *locations.values()])
    bad = ~((np.abs(latlon[:, 0]) <= 90.0) & (np.abs(latlon[:, 1]) <= 180.0))
    if bad.any():  # rows the location parser would reject
        lat, lon = latlon[np.argmax(bad)].tolist()
        raise InvalidConfigError(
            f"district {district}: generated coordinate {lat!r},{lon!r} lies outside lat [-90, 90], "
            f"lon [-180, 180]; base_lat={cfg.base_lat}, base_lon={cfg.base_lon} and "
            f"district_extent_m={cfg.district_extent_m} put the city too near a pole or the antimeridian"
        )

    meta = {
        "district": district,
        "origin": {"lat": lat0, "lon": lon0},
        "extent_m": extent,
        "pois": [
            {
                "standard_name": standards[i],
                "aliases": aliases.get(i, []),
                "x_m": float(poi_xy[i, 0]),
                "y_m": float(poi_xy[i, 1]),
                "lat": float(poi_latlon[i, 0]),
                "lon": float(poi_latlon[i, 1]),
            }
            for i in range(n_pois)
        ],
        "n_users": serial,
        "n_points": int(sum(len(v) for v in locations.values())),
        "n_positive_labels": sum(1 for lb in labels if lb.is_alias),
        "n_labels": len(labels),
    }
    return addresses, locations, labels, meta


def generate_city(config: SynthConfig, out_dir: str) -> dict:
    """Generate one synthetic city into `out_dir`.

    Writes addresses.csv, locations.csv, labels.csv (the exact ingestion
    formats) plus truth_meta.json holding the planted POI geolocations and
    alias clusters for white-box assertions. Returns a summary dict.
    Raises InvalidConfigError, before writing anything, when a generated
    point or POI lies outside the coordinate range the parser accepts.
    """
    root = np.random.SeedSequence(config.seed)
    children = root.spawn(config.n_districts)

    addresses: list[AddressRecord] = []
    locations: dict[str, np.ndarray] = {}
    labels: list[GroundTruthLabel] = []
    district_meta = []
    for di in range(config.n_districts):
        rng = np.random.default_rng(children[di])
        a, loc, lb, meta = _generate_district(config, di, rng)
        addresses.extend(a)
        locations.update(loc)
        labels.extend(lb)
        district_meta.append(meta)

    write_address_records(os.path.join(out_dir, "addresses.csv"), addresses)
    write_location_log(os.path.join(out_dir, "locations.csv"), locations)
    write_labels(os.path.join(out_dir, "labels.csv"), labels)

    meta = {
        "config": asdict(config),
        "rng": "numpy PCG64 via SeedSequence(seed).spawn(district)",
        "districts": district_meta,
    }
    write_json(os.path.join(out_dir, "truth_meta.json"), meta)

    return {
        "out_dir": out_dir,
        "n_districts": config.n_districts,
        "n_addresses": len(addresses),
        "n_users": len(locations),
        "n_points": int(sum(len(v) for v in locations.values())),
        "n_labels": len(labels),
        "n_positive_labels": sum(1 for lb in labels if lb.is_alias),
    }
