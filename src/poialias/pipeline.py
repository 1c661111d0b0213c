"""District-level orchestration: corpus in, scored pairs out.

For each district this builds the canonical name map, the associated-user
index, and the mobility profiles, splits names into standards (those
appearing as standard names in the label registry) and candidates
(everything else), and scores the full standard-by-candidate grid.

`load_city` keeps each built city, with the summary of the parse it was
built from, in one content-keyed file beside the inputs. It is the only
file poialias keeps there: the commands of an analysis parse and build a
city once, and `ingest-check` and `preprocess` read the same file. A
city read from that file reads a district's points only while that
district is scored, so a command holds one district's points at a time.
"""

from __future__ import annotations

import json
import logging
import os
import sys
import threading
import zipfile
from _blake2 import blake2b  # hashlib's blake2b, without hashlib's OpenSSL
from collections.abc import Callable
from dataclasses import astuple, dataclass, replace

import numpy as np
from numpy.lib import format as npy_format

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

    The profiles of a district that `load_city` returns hold no points:
    `read_points` reads them, and `with_points` gives the district with
    them, so a command holds a district's points only while it needs them.
    """

    district: str
    canonical_map: CanonicalMap
    profiles: dict[str, MobilityProfile]
    standard_names: list[str]
    candidate_names: list[str]
    label_pos: np.ndarray
    label_is_alias: np.ndarray
    bbox: BoundingBox | None = None
    #: reads every profile's points, in profile order; None when the
    #: profiles hold them
    read_points: Callable[[], np.ndarray] | None = None

    def with_points(self) -> DistrictData:
        """This district with its profiles' points: itself when they hold
        them, else a copy whose profiles are slices of the points that
        `read_points` reads now."""
        if self.read_points is None:
            return self
        points = self.read_points()
        profiles, start = {}, 0
        for name, p in self.profiles.items():
            profiles[name] = MobilityProfile(name, points[start:start + p.point_count], p.user_count, p.point_count)
            start += p.point_count
        return replace(self, profiles=profiles, read_points=None)

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
) -> tuple[DistrictData, np.ndarray]:
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

    Returned with the district is each label row's (standard, candidate)
    pair of flags: whether that name has no profile in the district.
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
    standard_names, candidate_names, label_pos, label_is_alias, missing = _labels(
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
    ), missing


def _labels(district, canonical: CanonicalMap, profiles, strings, label_ids, is_alias):
    """The standard and candidate names, then each canonical label's grid
    position (-1 outside the grid) and is_alias, in order of first
    occurrence, then each label row's (standard, candidate) flags: True
    for a name with no profile.

    Each distinct raw name of the district is cleaned and resolved once;
    the labels then group by their canonical pair's ids. A group whose
    values disagree raises for its first label and the earliest label that
    differs from it. The standards are the profiled names that some label
    lists as one.
    """
    raw, inverse = np.unique(label_ids[:, 1:], return_inverse=True)
    ids: dict[str, int] = {}  # canonical name -> its id here
    canonical_id = np.array(
        [ids.setdefault(canonical.resolve(clean_text(strings[i])), len(ids)) for i in raw.tolist()], dtype=np.int64
    )
    names = list(ids)
    pairs = canonical_id[inverse.reshape(-1, 2)]  # each label's canonical (std, cand) ids
    key = pairs[:, 0] * len(names) + pairs[:, 1]
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
    missing = np.array([n not in profiles for n in names], dtype=bool)[pairs]
    return standard_names, candidate_names, pos, is_alias[firsts], missing


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
    count), the name of its points array, its standard names, its label
    count, its bbox or null, its sorted raw POI names]; `skipped`, the
    districts with neither usable names nor labels; and the parse summary:
    `reports`, each input's [rows, accepted rows, (line, message) errors,
    warnings]; `address_counts`, the (district, address count) of every
    district an address names, sorted; `orphans`, the (district, standard,
    candidate, reason) of each label that names a POI without a profile in
    its district, in label-file order; and the numbers of located users and
    of labels.

    Each built district's points array holds its profiles' points in
    profile order, so its length is the sum of their point counts.
    `label_pos` and `label_is_alias` hold every district's labels in turn.
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
    orphans = []  # (label row, orphan row of the head)
    for district in sorted(by_district.keys() | label_rows.keys()):
        rows = label_rows.get(district, order[:0])
        ids = corpus.label_ids[rows]
        dd, missing = build_district_data(
            district,
            by_district.get(district, []),
            corpus.locations,
            corpus.strings,
            ids,
            corpus.is_alias[rows],
            cluster_threshold,
        )
        if dd.canonical_map.mapping or len(dd.label_is_alias):
            built.append(dd)
            # a label with a name that has no profile can never be scored
            orphan = missing.any(axis=1)
            for row, triple, flags in zip(rows[orphan].tolist(), ids[orphan].tolist(), missing[orphan].tolist()):
                which = "+".join(f for f, m in zip(("standard_name", "candidate_name"), flags) if m)
                orphans.append((row, [*(corpus.strings[i] for i in triple), f"{which} not in district addresses"]))
        else:
            skipped.append(district)

    members = [f"points_{i}" for i in range(len(built))]
    head = {
        "districts": [
            [
                dd.district,
                list(dd.canonical_map.mapping.items()),
                [[p.name, p.user_count, p.point_count] for p in dd.profiles.values()],
                member,
                dd.standard_names,
                len(dd.label_pos),
                astuple(dd.bbox) if dd.bbox else None,
                sorted({rec.poi_name for rec in by_district.get(dd.district, [])}),
            ]
            for dd, member in zip(built, members)
        ],
        "skipped": skipped,
        "reports": [[r.n_rows, r.n_ok, r.errors, r.warnings] for r in map(corpus.reports.get, _INPUTS)],
        "address_counts": [[d, len(by_district[d])] for d in sorted(by_district)],
        "orphans": [orphan for _, orphan in sorted(orphans)],
        "n_users": len(corpus.locations),
        "n_labels": len(corpus.labels),
    }
    return {
        # ASCII JSON: a lone surrogate, which a JSONL "\ud800" escape parses
        # to, stays an escape
        "head": np.frombuffer(json.dumps(head).encode(), dtype=np.uint8),
        **{
            member: np.concatenate([*(p.points for p in dd.profiles.values()), np.empty((0, 2))], dtype=np.float64)
            for dd, member in zip(built, members)
        },
        "label_pos": np.concatenate([*(dd.label_pos for dd in built), np.empty(0, np.int64)], dtype=np.int64),
        "label_is_alias": np.concatenate([*(dd.label_is_alias for dd in built), np.empty(0, bool)]),
    }


class _Arrays(dict):
    """The city file's arrays as a build holds them, in memory."""

    def header(self, name: str) -> tuple[np.dtype, tuple]:
        return self[name].dtype, self[name].shape


class _CityFile:
    """The arrays of a city file, every one read through one open file, so
    a file renamed over the path while a command runs cannot mix two
    versions. Raises unless the file is a zip."""

    def __init__(self, path: str):
        self._zip = zipfile.ZipFile(path)
        # ZipFile counts the members it has open without a lock, and a
        # thread pool may read two districts at once
        self._lock = threading.Lock()

    def __getitem__(self, name: str) -> np.ndarray:
        with self._lock, self._zip.open(name + ".npy") as fh:
            return npy_format.read_array(fh, allow_pickle=False)

    def header(self, name: str) -> tuple[np.dtype, tuple]:
        """The dtype and shape of array `name`. The member is read to its
        end, so zipfile checks its CRC-32, and none of its data is kept."""
        with self._lock, self._zip.open(name + ".npy") as fh:
            version = npy_format.read_magic(fh)
            _expect(version in ((1, 0), (2, 0)))
            read_header = npy_format.read_array_header_1_0 if version == (1, 0) else npy_format.read_array_header_2_0
            shape, _, dtype = read_header(fh)
            while fh.read(1 << 16):
                pass
        return dtype, shape


def _city_from_arrays(arrays: _Arrays | _CityFile, paths: list[str]) -> CityData:
    """The city that the city file's arrays hold, with `paths` as its
    reports' paths; raises unless they are complete and consistent. Each
    distinct name is one str object. A district's points stay in `arrays`
    until its `with_points` reads them; their dtype and shape are checked
    here.

    Then logs each district as it is built: a skipped one at WARNING, a
    built one's sizes at INFO.
    """
    head, label_pos, label_is_alias = (arrays[k] for k in ("head", "label_pos", "label_is_alias"))
    _expect(head.dtype == np.uint8 and head.ndim == 1)
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
    members: set[str] = set()
    n_labels = 0  # how many of the labels the districts so far hold
    built = rows(head["districts"], 8)
    for district, mapping, profs, member, stds, k, box, raw in built:
        district = name(district)
        canonical = CanonicalMap({name(a): name(b) for a, b in rows(mapping, 2)})
        by_name: dict[str, MobilityProfile] = {}
        for p, users, n in rows(profs, 3):
            p = name(p)
            by_name[p] = MobilityProfile(p, None, count(users), count(n))  # `with_points` reads the points
        _expect(type(member) is str and member not in members)
        members.add(member)
        _expect(arrays.header(member) == (np.float64, (sum(p.point_count for p in by_name.values()), 2)))
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
            read_points=lambda member=member: arrays[member],
        )
        raw_names[district] = raw
    # every label slice was whole, and no label is left over
    _expect(n_labels == len(label_pos))
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
    bit; here every profile holds its points. No file is read or written.
    """
    paths = [corpus.reports[name].path for name in _INPUTS]
    city = _city_from_arrays(_Arrays(_city_arrays(corpus, cluster_threshold)), paths)
    city.districts = {d: dd.with_points() for d, dd in city.districts.items()}
    return city


def _file_digest(path: str) -> str | None:
    """Hex BLAKE2b of a file's bytes, or None if there is no such file."""
    h = blake2b()
    buffer = memoryview(bytearray(1 << 16))  # one buffer, reused for every read
    try:
        with open(path, "rb", buffering=0) as fh:
            while n := fh.readinto(buffer):
                h.update(buffer[:n])
    except FileNotFoundError:
        return None
    return h.hexdigest()


def _city_key(fmt: str, paths: list[str], digests: list[str | None], cluster_threshold: float) -> str:
    """BLAKE2b over everything that decides a built city: the format, each
    input's name and digest (None when absent), the source of every module
    the parse and the build run, the Python and numpy versions and
    repr(cluster_threshold)."""
    sources = (ingestion.__file__, preprocess.__file__, profile.__file__, __file__, distribution.__file__)
    parts = [
        fmt,
        [[os.path.basename(p), d] for p, d in zip(paths, digests)],
        [_file_digest(f) for f in sources],
        sys.version,
        np.__version__,
        repr(cluster_threshold),
    ]
    return blake2b(json.dumps(parts).encode()).hexdigest()


def _fingerprint(path: str) -> list[int] | None:
    """A file's st_dev, st_ino, st_size, st_mtime_ns and st_ctime_ns, or
    None if there is no such file."""
    try:
        st = os.stat(path)
    except FileNotFoundError:
        return None
    return [st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns]


def _read_keyed(path: str, fmt: str, paths: list[str], cluster_threshold: float) -> _CityFile:
    """The city file at `path`, open, if its key record (see `_write_keyed`)
    holds the key of the inputs at `paths` as they are now; raises if it is
    absent, unreadable or holds another key.

    An input whose stat still gives the record's fingerprint, with its
    mtime and ctime both older than the record's write time, is keyed by
    the record's digest and not read. The write time was read before the
    fingerprint was taken, so any later change to the input sets a ctime
    no older than it and moves the fingerprint. A fingerprint with a time
    at or past it may hide a change made in the same clock tick: it is
    racily clean, as git calls it, and the input is hashed again, as is
    any input whose fingerprint moved.
    """
    stored = _CityFile(path)
    record = stored["key"]
    _expect(record.dtype == np.uint8 and record.ndim == 1)
    record = json.loads(record.tobytes().decode())
    digests = []
    for p, (fingerprint, digest) in zip(paths, record["inputs"], strict=True):
        now = _fingerprint(p)
        clean = now is not None and now == fingerprint and max(now[3:]) < record["written_ns"]
        digests.append(digest if clean else _file_digest(p))
    _expect(record["key"] == _city_key(fmt, paths, digests, cluster_threshold))
    return stored


class _InputChanged(Exception):
    """The inputs' bytes no longer give the key they were parsed under."""


def _write_keyed(
    path: str, fmt: str, paths: list[str], cluster_threshold: float, key: str, arrays: dict[str, np.ndarray]
):
    """Save `arrays` at `path` through `_output_file`, with the key record as
    the `key` member, unless the inputs' bytes no longer give `key`, as when
    one changed while it was parsed. A failed write is logged, not raised:
    it costs only a rebuild on the next read.

    The record is JSON: `key`; each input's `_fingerprint` and digest,
    both taken now; and `written_ns`, the new file's mtime as the file
    system set it on creation, before any input was statted.
    """
    try:
        with _output_file(path, binary=True) as fh:
            written_ns = os.fstat(fh.fileno()).st_mtime_ns
            fingerprints = [_fingerprint(p) for p in paths]
            digests = [_file_digest(p) for p in paths]
            if _city_key(fmt, paths, digests, cluster_threshold) != key:
                raise _InputChanged("an input changed while it was parsed")
            record = {"key": key, "inputs": list(zip(fingerprints, digests)), "written_ns": written_ns}
            np.savez(fh, key=np.frombuffer(json.dumps(record).encode(), dtype=np.uint8), **arrays)
        logger.info("city=%s cache=written", path)
    except (OSError, _InputChanged) as exc:
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
    repr(cluster_threshold). An input whose stat fingerprint the file
    records, and which is not racily clean, is not read to key it (see
    `_read_keyed`). With the same key the city, parse summary included, is
    loaded from the file and no input is parsed; its reports name the
    inputs of `data_dir`. The file stays open, and each district's points
    are read from it by that district's `with_points`; every array is
    checked, and read to its end once, before this returns. A file that is
    absent, unreadable or does not match in full is a miss: the inputs are
    parsed, the city is built and the file rewritten, unless an input
    changed while it was parsed. A hit never writes. A failed write costs
    only the next call's rebuild. The cluster threshold, the format and a
    required labels file are checked before the file is consulted.
    """
    check_cluster_threshold(cluster_threshold)
    paths = _input_paths(data_dir, fmt, require_labels)
    cache = os.path.join(data_dir, CITY_FILE.format(fmt=fmt))
    try:
        city = _city_from_arrays(_read_keyed(cache, fmt, paths, cluster_threshold), paths)
    except Exception as exc:
        # an absent, damaged or mismatched file is a miss; a damaged zip
        # alone can raise BadZipFile, EOFError, NotImplementedError,
        # RuntimeError, KeyError, ValueError or OSError
        logger.info("city=%s cache=miss reason=%r", cache, exc)
    else:
        logger.info("city=%s cache=hit", cache)
        return city
    # every input is read: a miss trusts nothing the file records
    key = _city_key(fmt, paths, [_file_digest(p) for p in paths], cluster_threshold)
    corpus = load_corpus(data_dir, fmt, require_labels)
    arrays = _Arrays(_city_arrays(corpus, cluster_threshold))
    del corpus  # the city holds no reference to it
    city = _city_from_arrays(arrays, paths)
    _write_keyed(cache, fmt, paths, cluster_threshold, key, arrays)
    return city


def score_city(city: CityData, config: MetricConfig, workers: int = 1) -> dict[str, ScoreTable]:
    """The score table of every district's N x M grid.

    The districts are scored in sorted order, or `workers` at a time. A
    district's points are read only when the method scores locations, and
    are dropped once its table is built, so a command holds the points of
    at most `workers` districts at a time.
    """
    on_points = config.method != "edit_distance"

    def score(d: str) -> ScoreTable:
        dd = city.districts[d].with_points() if on_points else city.districts[d]
        return score_pairs(dd.standard_profiles(), dd.candidate_profiles(), config, bbox=dd.bbox)

    names = sorted(city.districts)
    if workers > 1 and len(names) > 1:
        from concurrent.futures import ThreadPoolExecutor  # loaded only for a pool

        with ThreadPoolExecutor(max_workers=workers) as pool:
            return dict(zip(names, pool.map(score, names)))
    return {d: score(d) for d in names}
