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


def _expect(ok: bool):
    if not ok:
        raise ValueError("the file does not match its inputs or its layout")


def _city_arrays(corpus: Corpus, cluster_threshold: float) -> dict[str, np.ndarray]:
    """Build every district of `corpus` into the city file's arrays.

    `head` is the JSON text of the city's names and counts, as bytes. It
    holds each built district, sorted, as [name, its canonical map's
    (spelling, canonical) entries, its profiles' (name, user count, point
    count), its standard names, its label count, its bbox or null, its
    sorted raw POI names]; `skipped`, the districts with neither usable
    names nor labels; and the parse summary: `reports`, each input's
    [rows, accepted rows, (line, message) errors, warnings];
    `address_counts`, the (district, address count) of every district an
    address names, sorted; `orphans`, (district, standard, candidate,
    reason) rows; and the numbers of located users and of labels.

    `points` holds every profile's points in profile order, and `label_pos`
    and `label_is_alias` every district's labels in turn.
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

    head = {
        "districts": [
            [
                dd.district,
                list(dd.canonical_map.mapping.items()),
                [[p.name, p.user_count, p.point_count] for p in dd.profiles.values()],
                dd.standard_names,
                len(dd.label_pos),
                astuple(dd.bbox) if dd.bbox else None,
                sorted({rec.poi_name for rec in by_district.get(dd.district, [])}),
            ]
            for dd in built
        ],
        "skipped": skipped,
        "reports": [[r.n_rows, r.n_ok, r.errors, r.warnings] for r in map(corpus.reports.get, _INPUTS)],
        "address_counts": [[d, len(by_district[d])] for d in sorted(by_district)],
        "orphans": [[lb.district, lb.standard_name, lb.candidate_name, why] for lb, why in corpus.orphan_labels],
        "n_users": len(corpus.locations),
        "n_labels": len(corpus.labels),
    }
    profiles = [p for dd in built for p in dd.profiles.values()]
    return {
        # ASCII JSON: a lone surrogate, which a JSONL "\ud800" escape parses
        # to, stays an escape
        "head": np.frombuffer(json.dumps(head).encode(), dtype=np.uint8),
        "points": np.concatenate([*(p.points for p in profiles), np.empty((0, 2))], dtype=np.float64),
        "label_pos": np.concatenate([*(dd.label_pos for dd in built), np.empty(0, np.int64)], dtype=np.int64),
        "label_is_alias": np.concatenate([*(dd.label_is_alias for dd in built), np.empty(0, bool)]),
    }


def _city_from_arrays(arrays: dict[str, np.ndarray], paths: list[str]) -> CityData:
    """The city that the city file's arrays hold, with `paths` as its
    reports' paths; raises unless they are complete and consistent. Each
    profile's points are a slice of `points`, and each distinct name is one
    str object.

    Then logs each district as it is built: a skipped one at WARNING, a
    built one's sizes at INFO.
    """
    head, points, label_pos, label_is_alias = (arrays[k] for k in ("head", "points", "label_pos", "label_is_alias"))
    _expect(head.dtype == np.uint8 and head.ndim == 1)
    _expect(points.dtype == np.float64 and points.ndim == 2 and points.shape[1] == 2)
    _expect(label_pos.dtype == np.int64 and label_pos.ndim == 1)
    _expect(label_is_alias.dtype == bool and label_is_alias.shape == label_pos.shape)
    head = json.loads(head.tobytes().decode())
    memo: dict[str, str] = {}  # one object per distinct name

    def name(x) -> str:
        _expect(type(x) is str)
        return memo.setdefault(x, x)

    def names(x) -> list[str]:
        _expect(type(x) is list)
        return [name(t) for t in x]

    def count(x) -> int:
        _expect(type(x) is int and x >= 0)
        return x

    def rows(x, width: int) -> list[list]:
        _expect(type(x) is list and all(type(r) is list and len(r) == width for r in x))
        return x

    districts: dict[str, DistrictData] = {}
    raw_names: dict[str, list[str]] = {}
    n_points = n_labels = 0  # how many of `points` and of the labels the districts so far hold
    built = rows(head["districts"], 7)
    for district, mapping, profs, stds, k, box, raw in built:
        district = name(district)
        canonical = CanonicalMap({name(a): name(b) for a, b in rows(mapping, 2)})
        by_name: dict[str, MobilityProfile] = {}
        for p, users, n in rows(profs, 3):
            p, n = name(p), count(n)
            by_name[p] = MobilityProfile(p, points[n_points:n_points + n], count(users), n)
            n_points += n
        stds = names(stds)
        registry = set(stds)
        cands = [p for p in by_name if p not in registry]
        k = count(k)
        pos, alias = label_pos[n_labels:n_labels + k], label_is_alias[n_labels:n_labels + k]
        n_labels += k
        raw = names(raw)
        _expect(len(canonical.mapping) == len(mapping) and len(by_name) == len(profs))
        _expect(stds == sorted(registry) and registry <= by_name.keys())
        _expect(bool(np.all((pos >= -1) & (pos < len(stds) * len(cands)))))
        _expect(box is None or (type(box) is list and len(box) == 4 and all(type(v) is float for v in box)))
        _expect(raw == sorted(set(raw)))
        districts[district] = DistrictData(
            district=district,
            canonical_map=canonical,
            profiles=by_name,
            standard_names=stds,
            candidate_names=cands,
            label_pos=pos,
            label_is_alias=alias,
            bbox=None if box is None else BoundingBox(*box),
        )
        raw_names[district] = raw
    # every slice was whole, and no point or label is left over
    _expect(n_points == len(points) and n_labels == len(label_pos))
    skipped = names(head["skipped"])
    _expect(len({*districts, *skipped}) == len(built) + len(skipped))

    # the parse summary
    per_input = rows(head["reports"], 4)
    _expect(len(per_input) == len(_INPUTS))
    reports = {}
    for input_name, path, (n_rows, n_ok, errors, warnings) in zip(_INPUTS, paths, per_input):
        errors = [(count(line), name(message)) for line, message in rows(errors, 2)]
        reports[input_name] = LoadReport(path, count(n_rows), count(n_ok), errors, names(warnings))
    by_address = rows(head["address_counts"], 2)
    address_counts = {name(d): count(n) for d, n in by_address}
    _expect(list(address_counts) == sorted(address_counts) and len(address_counts) == len(by_address))
    _expect(all(n >= 1 for n in address_counts.values()))
    summary = ParseSummary(
        reports=reports,
        address_counts=address_counts,
        n_users=count(head["n_users"]),
        n_labels=count(head["n_labels"]),
        orphan_labels=[tuple(names(row)) for row in rows(head["orphans"], 4)],
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
