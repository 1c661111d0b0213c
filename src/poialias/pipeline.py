"""District-level orchestration: corpus in, scored pairs out.

For each district this builds the canonical name map, the associated-user
index, and the mobility profiles, splits names into standards (those
appearing as standard names in the label registry) and candidates
(everything else), and scores the full standard-by-candidate grid.

`load_city` keeps each built city in one content-keyed file beside the
inputs, so the scoring commands of an analysis build it once.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, dataclass

import numpy as np

from . import distribution, ingestion, preprocess, profile
from .discovery import MetricConfig, ScoreTable, score_pairs
from .distribution import BoundingBox
from .errors import ConflictingLabelError
from .ingestion import (
    Corpus,
    _corpus_key,
    _expect,
    _file_sha256,
    _input_paths,
    _interned,
    _keyed_corpus,
    _read_keyed,
    _string_arrays,
    _string_table,
    _write_keyed,
    partition_by_district,
)
from .preprocess import CanonicalMap, check_cluster_threshold, clean_text, cluster_near_duplicates
from .profile import MobilityProfile, build_all_profiles, build_associated_users

logger = logging.getLogger(__name__)

DEFAULT_CLUSTER_THRESHOLD = 0.2


@dataclass
class DistrictData:
    """One district's names, profiles and labels.

    The labels are two arrays in order of each canonical (standard,
    candidate) pair's first occurrence: `label_pos`, the pair's row-major
    position in the standard x candidate grid, -1 for a pair outside it,
    and `label_is_alias`. A pair is outside the grid when a name has no
    profile, when the standard and candidate resolve to one name, or when
    the candidate is itself a standard.
    """

    district: str
    canonical_map: CanonicalMap
    profiles: dict[str, MobilityProfile]
    standard_names: list[str]
    candidate_names: list[str]
    label_pos: np.ndarray
    label_is_alias: np.ndarray
    bbox: BoundingBox | None = None

    def standard_profiles(self) -> list[MobilityProfile]:
        return [self.profiles[n] for n in self.standard_names]

    def candidate_profiles(self) -> list[MobilityProfile]:
        return [self.profiles[n] for n in self.candidate_names]


@dataclass
class CityData:
    districts: dict[str, DistrictData]

    def labeled_districts(self) -> list[str]:
        return sorted(d for d, dd in self.districts.items() if len(dd.label_is_alias))


def build_district_data(
    district: str,
    addresses,
    locations,
    strings: list[str],
    label_ids: np.ndarray,
    is_alias: np.ndarray,
    cluster_threshold: float = DEFAULT_CLUSTER_THRESHOLD,
) -> DistrictData:
    """Assemble one district's canonical map, profiles, and name split.

    The district's labels are columnar, as `Corpus` holds them: rows of
    `label_ids` (district, standard, candidate indices into `strings`) in
    file order, and their `is_alias` values. The standard registry is taken
    from them: a name is a standard iff some label lists it as one; every
    other canonical name becomes a candidate. A district with no usable
    address names gets an empty canonical map and no profiles; its labels
    stay, so its positives count against recall. Raw labels that resolve to
    one canonical pair merge when they agree and raise
    ConflictingLabelError when they do not.
    """
    freq: dict[str, int] = {}
    for rec in addresses:
        cleaned = clean_text(rec.poi_name)
        if cleaned:
            freq[cleaned] = freq.get(cleaned, 0) + 1
    canonical = CanonicalMap()
    if freq:
        canonical = cluster_near_duplicates(sorted(freq.items()), cluster_threshold)
    index = build_associated_users(addresses, canonical)
    profiles = build_all_profiles(index, locations)
    standard_names, candidate_names, label_pos, label_is_alias = _labels(
        district, canonical, profiles, strings, label_ids, is_alias
    )

    # each profile's (min, max) rows hold its extremes: no copy of every point
    corners = [np.stack((p.points.min(0), p.points.max(0))) for p in profiles.values() if p.point_count]
    bbox = BoundingBox.from_points(np.concatenate(corners)) if corners else None

    return DistrictData(
        district=district,
        canonical_map=canonical,
        profiles=profiles,
        standard_names=standard_names,
        candidate_names=candidate_names,
        label_pos=label_pos,
        label_is_alias=label_is_alias,
        bbox=bbox,
    )


def _labels(district, canonical: CanonicalMap, profiles, strings, label_ids, is_alias):
    """The standard and candidate names, then each canonical label's grid
    position (-1 outside the grid) and is_alias, in order of first occurrence.

    Each distinct raw name is cleaned and resolved once; the labels then
    group by their canonical pair's ids. A group whose values disagree
    raises for its first label and the earliest label that differs from it.
    The standards are the profiled names that some label lists as one.
    """
    named = np.zeros(len(strings), dtype=bool)
    named[label_ids[:, 1:]] = True
    raw = np.flatnonzero(named)
    ids: dict[str, int] = {}  # canonical name -> its id here
    canonical_id = np.zeros(len(strings), dtype=np.int32)  # a raw name's index -> its canonical id
    canonical_id[raw] = [
        ids.setdefault(canonical.resolve(clean_text(strings[i])), len(ids)) for i in raw.tolist()
    ]
    names = list(ids)
    pairs = canonical_id[label_ids[:, 1:]]  # each label's canonical (std, cand) ids
    key = pairs[:, 0].astype(np.int64) * len(names) + pairs[:, 1]
    _, first, group = np.unique(key, return_index=True, return_inverse=True)
    differs = is_alias != is_alias[first[group]]
    if differs.any():
        later = int(np.argmax(differs))
        prev = int(first[group[later]])
        (p_std, p_cand), (l_std, l_cand) = (
            [strings[i] for i in row] for row in label_ids[[prev, later], 1:].tolist()
        )
        std, cand = (names[i] for i in pairs[later].tolist())
        raise ConflictingLabelError(
            f"district {district!r}: labels ({p_std!r}, {p_cand!r}) and ({l_std!r}, {l_cand!r}) "
            f"both resolve to ({std!r}, {cand!r}) with different is_alias values"
        )
    registry = {names[i] for i in set(pairs[:, 0].tolist())}
    standard_names = sorted(n for n in profiles if n in registry)
    candidate_names = sorted(n for n in profiles if n not in registry)

    def grid_index(grid_names: list[str]) -> np.ndarray:  # each id's index in `grid_names`, or -1
        id_of = np.fromiter((ids.get(n, -1) for n in grid_names), np.int64, len(grid_names))
        at = np.full(len(names), -1)
        at[id_of[id_of >= 0]] = np.flatnonzero(id_of >= 0)
        return at

    firsts = np.sort(first)
    row = grid_index(standard_names)[pairs[firsts, 0]]
    col = grid_index(candidate_names)[pairs[firsts, 1]]
    pos = np.where((row >= 0) & (col >= 0), row * len(candidate_names) + col, -1)
    return standard_names, candidate_names, pos, is_alias[firsts]


#: the built-city file `load_city` keeps beside the inputs
CITY_FILE = ".poialias-city.{fmt}.npz"
#: the per-district runs of the city file's arrays; row d of its `counts`
#: holds district d's length in each
_SECTIONS = ("mapping", "clusters", "profiles", "standards", "candidates", "labels")


def _city_arrays(corpus: Corpus, cluster_threshold: float) -> dict[str, np.ndarray]:
    """Build every district of `corpus` into the city file's arrays.

    One string table holds every name, as int32 indices in `districts` (the
    built ones, sorted), `skipped` (those with neither usable names nor
    labels), `mapping` (each canonical map's (spelling, canonical) entries),
    `clusters` (its canonical names, with `cluster_sizes`), `profiles`
    (with `user_counts` and `point_counts`), `standards` and `candidates`.
    These, `label_pos` and `label_is_alias` run district after district,
    each in its dict's or list's order; `bbox` has a row per district (NaN
    for none), and `points` holds every profile's points in profile order.
    """
    by_district = partition_by_district(corpus.addresses)
    # each district's label rows, in file order
    col = corpus.label_ids[:, 0]
    order = np.argsort(col, kind="stable")
    district_ids, starts = np.unique(col[order], return_index=True)
    label_rows = {
        corpus.strings[i]: rows for i, rows in zip(district_ids.tolist(), np.split(order, starts[1:]))
    }

    built: list[DistrictData] = []
    skipped: list[str] = []
    for district in sorted(by_district.keys() | label_rows.keys()):
        rows = label_rows.get(district, order[:0])
        dd = build_district_data(
            district,
            by_district.get(district, []),
            corpus.locations,
            corpus.strings,
            corpus.label_ids[rows],
            corpus.is_alias[rows],
            cluster_threshold,
        )
        if dd.canonical_map.mapping or len(dd.label_is_alias):
            built.append(dd)
        else:
            skipped.append(district)

    index: dict[str, int] = {}

    def ids(names) -> np.ndarray:
        return _interned(index, ((name,) for name in names), 1).ravel()

    maps = [dd.canonical_map for dd in built]
    profiles = [p for dd in built for p in dd.profiles.values()]
    arrays = {
        "districts": ids(dd.district for dd in built),
        "skipped": ids(skipped),
        "counts": np.array(
            [
                [len(m.mapping), len(m.cluster_sizes), len(dd.profiles)]
                + [len(dd.standard_names), len(dd.candidate_names), len(dd.label_pos)]
                for m, dd in zip(maps, built)
            ],
            dtype=np.int64,
        ).reshape(-1, len(_SECTIONS)),
        "mapping": _interned(index, (entry for m in maps for entry in m.mapping.items()), 2),
        "clusters": ids(name for m in maps for name in m.cluster_sizes),
        "cluster_sizes": np.array([n for m in maps for n in m.cluster_sizes.values()], dtype=np.int64),
        "profiles": ids(p.name for p in profiles),
        "user_counts": np.array([p.user_count for p in profiles], dtype=np.int64),
        "point_counts": np.array([p.point_count for p in profiles], dtype=np.int64),
        "points": np.concatenate([*(p.points for p in profiles), np.empty((0, 2))], dtype=np.float64),
        "standards": ids(name for dd in built for name in dd.standard_names),
        "candidates": ids(name for dd in built for name in dd.candidate_names),
        "label_pos": np.concatenate([*(dd.label_pos for dd in built), np.empty(0, np.int64)], dtype=np.int64),
        "label_is_alias": np.concatenate([*(dd.label_is_alias for dd in built), np.empty(0, bool)]),
        "bbox": np.array(
            [astuple(dd.bbox) if dd.bbox else [np.nan] * 4 for dd in built], dtype=np.float64
        ).reshape(-1, 4),
    }
    return {**arrays, **_string_arrays(index)}  # the table is complete once every name has an id


def _city_from_arrays(arrays: dict[str, np.ndarray]) -> CityData:
    """The city that the city file's arrays hold; raises unless they are
    complete and consistent. Each profile's points are a slice of `points`.

    Then logs each district as it is built: a skipped one at WARNING, a
    built one's sizes at INFO.
    """
    s = _string_table(arrays)
    counts = arrays["counts"]
    n = len(arrays["districts"])
    _expect(counts.dtype == np.int64 and counts.shape == (n, len(_SECTIONS)) and bool(np.all(counts >= 0)))
    # per section, where each district's run starts, then where the last ends
    starts = np.vstack([np.zeros((1, len(_SECTIONS)), np.int64), counts.cumsum(0)])
    bounds = dict(zip(_SECTIONS, starts.T.tolist()))
    total = {section: b[-1] for section, b in bounds.items()}

    def numbers(name: str, dtype, shape: tuple) -> np.ndarray:
        a = arrays[name]
        _expect(a.dtype == dtype and a.shape == shape)
        return a

    def names(name: str, shape: tuple) -> list[str]:
        a = numbers(name, np.int32, shape)
        _expect(bool(np.all((a >= 0) & (a < len(s)))))
        return [s[i] for i in a.ravel().tolist()]

    def split(items, section: str) -> list:
        b = bounds[section]
        return [items[lo:hi] for lo, hi in zip(b, b[1:])]

    district_names = names("districts", (n,))
    skipped = names("skipped", (len(arrays["skipped"]),))
    _expect(len(set(district_names + skipped)) == n + len(skipped))
    spellings = names("mapping", (total["mapping"], 2))
    sizes = numbers("cluster_sizes", np.int64, (total["clusters"],))
    n_profiles = total["profiles"]
    user_counts = numbers("user_counts", np.int64, (n_profiles,))
    point_counts = numbers("point_counts", np.int64, (n_profiles,))
    _expect(bool(np.all(user_counts >= 0) and np.all(point_counts >= 0)))
    points = numbers("points", np.float64, (int(point_counts.sum()), 2))
    stops = point_counts.cumsum().tolist()
    profile_names = names("profiles", (n_profiles,))
    profiles = [
        MobilityProfile(name, points[a:b], users, b - a)
        for name, users, a, b in zip(profile_names, user_counts.tolist(), [0, *stops], stops)
    ]
    label_pos = numbers("label_pos", np.int64, (total["labels"],))
    label_is_alias = numbers("label_is_alias", bool, (total["labels"],))
    bboxes = numbers("bbox", np.float64, (n, 4))

    districts: dict[str, DistrictData] = {}
    for district, pairs, clusters, cluster_sizes, profs, stds, cands, pos, alias, box in zip(
        district_names,
        split(list(zip(spellings[::2], spellings[1::2])), "mapping"),
        split(names("clusters", (total["clusters"],)), "clusters"),
        split(sizes.tolist(), "clusters"),
        split(profiles, "profiles"),
        split(names("standards", (total["standards"],)), "standards"),
        split(names("candidates", (total["candidates"],)), "candidates"),
        split(label_pos, "labels"),
        split(label_is_alias, "labels"),
        bboxes.tolist(),
    ):
        canonical = CanonicalMap(dict(pairs), dict(zip(clusters, cluster_sizes)))
        by_name = {p.name: p for p in profs}
        _expect(len(canonical.mapping) == len(pairs) and len(canonical.cluster_sizes) == len(clusters))
        _expect(len(by_name) == len(profs) and all(name in by_name for name in stds + cands))
        _expect(bool(np.all((pos >= -1) & (pos < len(stds) * len(cands)))))
        districts[district] = DistrictData(
            district=district,
            canonical_map=canonical,
            profiles=by_name,
            standard_names=stds,
            candidate_names=cands,
            label_pos=pos,
            label_is_alias=alias,
            bbox=None if all(map(math.isnan, box)) else BoundingBox(*box),
        )

    for district in sorted(districts.keys() | set(skipped)):
        dd = districts.get(district)
        if dd is None:
            logger.warning("district=%s skipped reason=no-usable-names", district)
            continue
        logger.info(
            "stage=build district=%s names=%d standards=%d candidates=%d labels=%d",
            district,
            len(dd.profiles),
            len(dd.standard_names),
            len(dd.candidate_names),
            len(dd.label_is_alias),
        )
    return CityData(districts=districts)


def build_city_data(
    corpus: Corpus, cluster_threshold: float = DEFAULT_CLUSTER_THRESHOLD
) -> CityData:
    """District-partitioned pipeline state for one corpus: one DistrictData
    for every district with usable address names or labels.

    The city is built through the city file's arrays, as `load_city`
    builds a hit, so a built city and a loaded one are alike to the last
    bit; no file is read or written.
    """
    return _city_from_arrays(_city_arrays(corpus, cluster_threshold))


def _city_key(corpus_key: str, cluster_threshold: float) -> str:
    """sha256 over everything that decides a built city: the corpus key,
    the cluster threshold and the source of every module the build runs."""
    sources = (ingestion.__file__, preprocess.__file__, profile.__file__, __file__, distribution.__file__)
    parts = [corpus_key, repr(cluster_threshold), [_file_sha256(f) for f in sources]]
    return hashlib.sha256(json.dumps(parts).encode()).hexdigest()


def load_city(
    data_dir: str,
    fmt: str = "csv",
    cluster_threshold: float = DEFAULT_CLUSTER_THRESHOLD,
    require_labels: bool = False,
) -> CityData:
    """`build_city_data(load_corpus(data_dir, fmt, require_labels),
    cluster_threshold)`, kept in `<data_dir>/.poialias-city.<fmt>.npz`.

    The file is keyed by a sha256 over the corpus file's key (the format,
    each input's name and bytes, the Python and numpy versions),
    repr(cluster_threshold) and the source of ingestion, preprocess,
    profile, pipeline and distribution. With the same key the city is
    loaded from the file and the corpus is not read. A file that is
    absent, unreadable or does not match in full is a miss: the city is
    built and the file rewritten. A failed write costs only the next
    call's rebuild. The cluster threshold, the format and a required
    labels file are checked before either file is consulted.
    """
    check_cluster_threshold(cluster_threshold)
    paths = _input_paths(data_dir, fmt, require_labels)
    cache = os.path.join(data_dir, CITY_FILE.format(fmt=fmt))
    corpus_key = _corpus_key(fmt, paths)
    key = _city_key(corpus_key, cluster_threshold)
    try:
        city = _city_from_arrays(_read_keyed(cache, key))
    except Exception as exc:
        # as for the corpus file: an absent, damaged or mismatched file is a miss
        logger.info("city=%s cache=miss reason=%r", cache, exc)
    else:
        logger.info("city=%s cache=hit", cache)
        return city
    corpus, keyed = _keyed_corpus(data_dir, fmt, paths, corpus_key)
    arrays = _city_arrays(corpus, cluster_threshold)
    del corpus  # the city holds no reference to it
    city = _city_from_arrays(arrays)
    # a corpus parsed while an input was rewritten is not the one `key` names
    if keyed:
        _write_keyed(cache, key, arrays, "city")
    return city


def score_city(city: CityData, config: MetricConfig, workers: int = 1) -> dict[str, ScoreTable]:
    """The score table of every district's N x M grid; districts may score
    in parallel."""

    def score(d: str) -> ScoreTable:
        dd = city.districts[d]
        return score_pairs(dd.standard_profiles(), dd.candidate_profiles(), config, bbox=dd.bbox)

    names = sorted(city.districts)
    if workers > 1 and len(names) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return dict(zip(names, pool.map(score, names)))
    return {d: score(d) for d in names}
