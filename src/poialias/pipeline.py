"""District-level orchestration: corpus in, scored pairs out.

For each district this builds the canonical name map, the associated-user
index, and the mobility profiles, splits names into standards (those
appearing as standard names in the label registry) and candidates
(everything else), and scores the full standard-by-candidate grid.

`load_city` keeps each built city, with the summary of the parse it was
built from, in one content-keyed file beside the inputs. It is the only
file poialias keeps there: the commands of an analysis parse and build a
city once, and `ingest-check` and `preprocess` read the same file.
"""

from __future__ import annotations

import json
import logging
import math
import os
import sys
from _blake2 import blake2b  # hashlib's blake2b, without hashlib's OpenSSL
from dataclasses import astuple, dataclass

import numpy as np

from . import distribution, ingestion, preprocess, profile
from .discovery import MetricConfig, ScoreTable, score_pairs
from .distribution import BoundingBox
from .errors import ConflictingLabelError
from .ingestion import (
    _INPUTS,
    Corpus,
    LoadReport,
    _input_paths,
    _interned,
    _output_file,
    load_corpus,
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
class ParseSummary:
    """What the parse of a city's inputs found, as `ingest-check` and
    `preprocess` report it."""

    reports: dict[str, LoadReport]  # per input file
    address_counts: dict[str, int]  # per district that an address names, sorted
    n_users: int  # users with a location
    n_labels: int
    orphan_labels: list[tuple[str, str, str, str]]  # district, standard, candidate, reason
    raw_names: dict[str, list[str]]  # per built district, its sorted raw POI names


@dataclass
class CityData:
    districts: dict[str, DistrictData]
    summary: ParseSummary | None = None

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
_SECTIONS = ("mapping", "clusters", "profiles", "standards", "candidates", "labels", "raw_names")


def _expect(ok: bool):
    if not ok:
        raise ValueError("the file does not match its inputs or its layout")


def _runs(items, lengths) -> list:
    """`items` cut into consecutive runs of the given lengths."""
    stops = np.cumsum(lengths, dtype=np.int64).tolist()
    return [items[a:b] for a, b in zip([0, *stops], stops)]


def _string_arrays(strings) -> dict[str, np.ndarray]:
    """A string table as a file holds it: the UTF-8 bytes of all strings
    and each string's length in code points."""
    return {
        # surrogatepass: a JSONL "\ud800" escape parses to a lone surrogate
        "strings": np.frombuffer("".join(strings).encode("utf-8", "surrogatepass"), dtype=np.uint8),
        "string_lengths": np.array([len(t) for t in strings], dtype=np.int64),
    }


def _string_table(arrays: dict[str, np.ndarray]) -> list[str]:
    """The string table that `_string_arrays` made; raises unless its
    strings are distinct and fill its bytes exactly."""
    lengths = arrays["string_lengths"]
    _expect(lengths.dtype == np.int64 and lengths.ndim == 1 and bool(np.all(lengths >= 0)))
    text = arrays["strings"].tobytes().decode("utf-8", "surrogatepass")
    _expect(int(lengths.sum()) == len(text))
    s = _runs(text, lengths)
    _expect(len(set(s)) == len(s))  # one index per string: names group by index
    return s


def _city_arrays(corpus: Corpus, cluster_threshold: float) -> dict[str, np.ndarray]:
    """Build every district of `corpus` into the city file's arrays.

    One string table holds every name and message, as int32 indices in
    `districts` (the built ones, sorted), `skipped` (those with neither
    usable names nor labels), `mapping` (each canonical map's (spelling,
    canonical) entries), `clusters` (its canonical names, with
    `cluster_sizes`), `profiles` (with `user_counts` and `point_counts`),
    `standards`, `candidates` and `raw_names` (the district's sorted raw
    POI names). These, `label_pos` and `label_is_alias` run district after
    district, each in its dict's or list's order; `bbox` has a row per
    district (NaN for none), and `points` holds every profile's points in
    profile order.

    The parse summary: `reports` holds each input's (rows, accepted rows,
    errors, warnings) counts, and `error_lines`, `error_messages` and
    `warnings` run input after input; `address_districts` and
    `address_counts` give every district an address names, sorted;
    `orphans` holds (district, standard, candidate, reason) rows, and
    `totals` the numbers of located users and of labels.
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
    raw_names = [sorted({rec.poi_name for rec in by_district.get(dd.district, [])}) for dd in built]
    reports = [corpus.reports[name] for name in _INPUTS]
    arrays = {
        "districts": ids(dd.district for dd in built),
        "skipped": ids(skipped),
        "counts": np.array(
            [
                [len(m.mapping), len(m.cluster_sizes), len(dd.profiles)]
                + [len(dd.standard_names), len(dd.candidate_names), len(dd.label_pos), len(raw)]
                for m, dd, raw in zip(maps, built, raw_names)
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
        "raw_names": ids(name for raw in raw_names for name in raw),
        "reports": np.array(
            [[r.n_rows, r.n_ok, r.n_errors, len(r.warnings)] for r in reports], dtype=np.int64
        ),
        "error_lines": np.array([line for r in reports for line, _ in r.errors], dtype=np.int64),
        "error_messages": ids(message for r in reports for _, message in r.errors),
        "warnings": ids(warning for r in reports for warning in r.warnings),
        "address_districts": ids(sorted(by_district)),
        "address_counts": np.array([len(by_district[d]) for d in sorted(by_district)], dtype=np.int64),
        "orphans": _interned(
            index,
            ((lb.district, lb.standard_name, lb.candidate_name, reason) for lb, reason in corpus.orphan_labels),
            4,
        ),
        "totals": np.array([len(corpus.locations), len(corpus.labels)], dtype=np.int64),
    }
    return {**arrays, **_string_arrays(index)}  # the table is complete once every name has an id


def _city_from_arrays(arrays: dict[str, np.ndarray], paths: list[str]) -> CityData:
    """The city that the city file's arrays hold, with `paths` as its
    reports' paths; raises unless they are complete and consistent. Each
    profile's points are a slice of `points`.

    Then logs each district as it is built: a skipped one at WARNING, a
    built one's sizes at INFO.
    """
    s = _string_table(arrays)
    counts = arrays["counts"]
    n = len(arrays["districts"])
    _expect(counts.dtype == np.int64 and counts.shape == (n, len(_SECTIONS)) and bool(np.all(counts >= 0)))
    total = dict(zip(_SECTIONS, counts.sum(0).tolist()))

    def numbers(name: str, dtype, shape: tuple) -> np.ndarray:
        a = arrays[name]
        _expect(a.dtype == dtype and a.shape == shape)
        return a

    def names(name: str, shape: tuple) -> list[str]:
        a = numbers(name, np.int32, shape)
        _expect(bool(np.all((a >= 0) & (a < len(s)))))
        return [s[i] for i in a.ravel().tolist()]

    def split(items, section: str) -> list:
        return _runs(items, counts[:, _SECTIONS.index(section)])

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
    profile_names = names("profiles", (n_profiles,))
    profiles = [
        MobilityProfile(name, pts, users, len(pts))
        for name, users, pts in zip(profile_names, user_counts.tolist(), _runs(points, point_counts))
    ]
    label_pos = numbers("label_pos", np.int64, (total["labels"],))
    label_is_alias = numbers("label_is_alias", bool, (total["labels"],))
    bboxes = numbers("bbox", np.float64, (n, 4))

    districts: dict[str, DistrictData] = {}
    raw_names: dict[str, list[str]] = {}
    for district, pairs, clusters, cluster_sizes, profs, stds, cands, pos, alias, box, raw in zip(
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
        split(names("raw_names", (total["raw_names"],)), "raw_names"),
    ):
        canonical = CanonicalMap(dict(pairs), dict(zip(clusters, cluster_sizes)))
        by_name = {p.name: p for p in profs}
        _expect(len(canonical.mapping) == len(pairs) and len(canonical.cluster_sizes) == len(clusters))
        _expect(len(by_name) == len(profs) and all(name in by_name for name in stds + cands))
        _expect(bool(np.all((pos >= -1) & (pos < len(stds) * len(cands)))))
        _expect(raw == sorted(set(raw)))
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
        raw_names[district] = raw

    # the parse summary
    per_input = numbers("reports", np.int64, (len(_INPUTS), 4))
    _expect(bool(np.all(per_input >= 0)))
    n_rows, n_ok, n_errors, n_warnings = per_input.T.tolist()
    error_lines = numbers("error_lines", np.int64, (sum(n_errors),)).tolist()
    errors = list(zip(error_lines, names("error_messages", (sum(n_errors),))))
    warnings = names("warnings", (sum(n_warnings),))
    reports = {
        name: LoadReport(path, rows, ok, errs, warns)
        for name, path, rows, ok, errs, warns in zip(
            _INPUTS, paths, n_rows, n_ok, _runs(errors, n_errors), _runs(warnings, n_warnings)
        )
    }
    address_districts = names("address_districts", (len(arrays["address_districts"]),))
    address_counts = numbers("address_counts", np.int64, (len(address_districts),))
    _expect(address_districts == sorted(set(address_districts)) and bool(np.all(address_counts >= 1)))
    orphans = names("orphans", (len(arrays["orphans"]), 4))
    n_users, n_labels = numbers("totals", np.int64, (2,)).tolist()
    _expect(n_users >= 0 and n_labels >= 0)
    summary = ParseSummary(
        reports=reports,
        address_counts=dict(zip(address_districts, address_counts.tolist())),
        n_users=n_users,
        n_labels=n_labels,
        orphan_labels=list(zip(*(orphans[k::4] for k in range(4)))),
        raw_names=raw_names,
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
    return CityData(districts=districts, summary=summary)


def build_city_data(
    corpus: Corpus, cluster_threshold: float = DEFAULT_CLUSTER_THRESHOLD
) -> CityData:
    """District-partitioned pipeline state for one corpus: one DistrictData
    for every district with usable address names or labels, and the
    summary of the parse.

    The city is built through the city file's arrays, as `load_city`
    builds a hit, so a built city and a loaded one are alike to the last
    bit; no file is read or written.
    """
    paths = [corpus.reports[name].path for name in _INPUTS]
    return _city_from_arrays(_city_arrays(corpus, cluster_threshold), paths)


def _file_digest(path: str) -> str | None:
    """Hex BLAKE2b of a file's bytes, or None if there is no such file."""
    h = blake2b()
    try:
        with open(path, "rb") as fh:
            while chunk := fh.read(1 << 20):
                h.update(chunk)
    except FileNotFoundError:
        return None
    return h.hexdigest()


def _city_key(fmt: str, paths: list[str], cluster_threshold: float) -> str:
    """BLAKE2b over everything that decides a built city: the format, each
    input's name and bytes (or its absence), the source of every module
    the parse and the build run, the Python and numpy versions and
    repr(cluster_threshold)."""
    sources = (ingestion.__file__, preprocess.__file__, profile.__file__, __file__, distribution.__file__)
    parts = [
        fmt,
        [[os.path.basename(p), _file_digest(p)] for p in paths],
        [_file_digest(f) for f in sources],
        sys.version,
        np.__version__,
        repr(cluster_threshold),
    ]
    return blake2b(json.dumps(parts).encode()).hexdigest()


def _read_keyed(path: str, key: str) -> dict[str, np.ndarray]:
    """The arrays that `_write_keyed` saved at `path` under `key`; raises
    if the file is absent, unreadable or saved under another key."""
    with np.load(path, allow_pickle=False) as z:
        _expect(z["key"].shape == () and str(z["key"]) == key)
        return {name: z[name] for name in z.files if name != "key"}


def _write_keyed(path: str, key: str, arrays: dict[str, np.ndarray]):
    """Save `arrays` under `key` at `path` through `_output_file`. A failed
    write is logged, not raised: it costs only a rebuild on the next read."""
    try:
        with _output_file(path, binary=True) as fh:
            np.savez(fh, key=np.array(key), **arrays)
        logger.info("city=%s cache=written", path)
    except OSError as exc:
        logger.info("city=%s cache=unwritten reason=%s", path, exc)


def load_city(
    data_dir: str,
    fmt: str = "csv",
    cluster_threshold: float = DEFAULT_CLUSTER_THRESHOLD,
    require_labels: bool = False,
) -> CityData:
    """`build_city_data(load_corpus(data_dir, fmt, require_labels),
    cluster_threshold)`, kept in `<data_dir>/.poialias-city.<fmt>.npz`.

    The file is keyed by a BLAKE2b digest over the format, each input's
    name and bytes (or its absence), the source of ingestion, preprocess,
    profile, pipeline and distribution, the Python and numpy versions and
    repr(cluster_threshold). With the same key the city, parse summary
    included, is loaded from the file and no input is parsed; its reports
    name the inputs of `data_dir`. A file that is absent, unreadable or
    does not match in full is a miss: the inputs are parsed, the city is
    built and the file rewritten, unless an input changed while it was
    parsed. A failed write costs only the next call's rebuild. The cluster
    threshold, the format and a required labels file are checked before
    the file is consulted.
    """
    check_cluster_threshold(cluster_threshold)
    paths = _input_paths(data_dir, fmt, require_labels)
    cache = os.path.join(data_dir, CITY_FILE.format(fmt=fmt))
    key = _city_key(fmt, paths, cluster_threshold)
    try:
        city = _city_from_arrays(_read_keyed(cache, key), paths)
    except Exception as exc:
        # an absent, damaged or mismatched file is a miss; a damaged zip
        # alone can raise BadZipFile, EOFError, NotImplementedError,
        # RuntimeError, KeyError, ValueError or OSError
        logger.info("city=%s cache=miss reason=%r", cache, exc)
    else:
        logger.info("city=%s cache=hit", cache)
        return city
    corpus = load_corpus(data_dir, fmt, require_labels)
    arrays = _city_arrays(corpus, cluster_threshold)
    del corpus  # the city holds no reference to it
    city = _city_from_arrays(arrays, paths)
    # an input rewritten while it was parsed must not be filed under the old key
    if _city_key(fmt, paths, cluster_threshold) == key:
        _write_keyed(cache, key, arrays)
    return city


def score_city(city: CityData, config: MetricConfig, workers: int = 1) -> dict[str, ScoreTable]:
    """The score table of every district's N x M grid; districts may score
    in parallel."""

    def score(d: str) -> ScoreTable:
        dd = city.districts[d]
        return score_pairs(dd.standard_profiles(), dd.candidate_profiles(), config, bbox=dd.bbox)

    names = sorted(city.districts)
    if workers > 1 and len(names) > 1:
        from concurrent.futures import ThreadPoolExecutor  # loaded only for a pool

        with ThreadPoolExecutor(max_workers=workers) as pool:
            return dict(zip(names, pool.map(score, names)))
    return {d: score(d) for d in names}
