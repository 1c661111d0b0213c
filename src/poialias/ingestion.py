"""Parsing and serialization of the three input corpora: address records,
user location logs, and ground-truth alias labels; and the one output
layer every artifact is written through.

Files are headered CSV (RFC-4180) or JSONL with the same field names.
Malformed rows are skipped and reported with their line numbers, never
silently dropped: real delivery data is noisy and the trace matters.

`load_corpus` keeps what it parsed in one content-keyed file beside the
inputs, so the commands of an analysis parse each corpus once.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import math
import os
import sys
import uuid
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby, repeat
from operator import attrgetter

import numpy as np

from . import preprocess
from .errors import ConflictingLabelError, InvalidConfigError
from .preprocess import clean_text

logger = logging.getLogger(__name__)

FORMATS = ("csv", "jsonl")
ADDRESS_FIELDS = ["user_id", "province", "city", "district", "poi_name"]
LOCATION_FIELDS = ["user_id", "lat", "lon"]
LABEL_FIELDS = ["district", "standard_name", "candidate_name", "is_alias"]


@dataclass(frozen=True)
class AddressRecord:
    user_id: str
    province: str
    city: str
    district: str
    poi_name: str


@dataclass(frozen=True)
class GroundTruthLabel:
    district: str
    standard_name: str
    candidate_name: str
    is_alias: bool


@dataclass
class LoadReport:
    """Per-file parse outcome: row counts, row-level errors, warnings."""

    path: str
    n_rows: int = 0
    n_ok: int = 0
    errors: list = field(default_factory=list)  # (line_number, message)
    warnings: list = field(default_factory=list)

    @property
    def n_errors(self) -> int:
        return len(self.errors)

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "n_rows": self.n_rows,
            "n_ok": self.n_ok,
            "n_errors": self.n_errors,
            "errors": [{"line": ln, "message": msg} for ln, msg in self.errors],
            "warnings": list(self.warnings),
        }


#: JSON value kinds that are not a single string or number
_JSON_NON_SCALAR = {type(None): "null", bool: "a boolean", list: "an array", dict: "an object"}


def _unknown_format(fmt) -> InvalidConfigError:
    return InvalidConfigError(f"unknown format {fmt!r}; expected 'csv' or 'jsonl'")


def _not_utf8(path: str) -> InvalidConfigError:
    """The error for a file that does not decode as UTF-8, naming the
    physical line and file offset of its first bad byte.

    A decode error's own position counts from the start of the decoder's
    buffer, so the file is read again line by line; no byte of a UTF-8
    sequence is a line feed, so each line decodes on its own.
    """
    hint = "not UTF-8; convert GBK/GB18030 exports to UTF-8"
    offset = 0
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                return InvalidConfigError(f"{path}:{line_no}: byte {offset + exc.start}: {hint}")
            offset += len(line)
    return InvalidConfigError(f"{path}: {hint}")


def _iter_rows(path: str, fmt: str, fields: list[str]):
    """Yield (line_number, values_or_None, error_message_or_None).

    `values` holds the row's field values in `fields` order. A JSONL value
    must be a string or a number: null, booleans, arrays and objects are
    row errors naming the field. A leading UTF-8 byte-order mark is
    dropped in both formats; a file that is not UTF-8 raises
    InvalidConfigError.
    """
    try:
        yield from _decoded_rows(path, fmt, fields)
    except UnicodeDecodeError:
        raise _not_utf8(path) from None


def _decoded_rows(path: str, fmt: str, fields: list[str]):
    if fmt == "csv":
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            end = 0  # physical lines read so far
            try:
                header = next(reader, None)
                if header is None:
                    return  # empty file: empty collection, not an error
                if [h.strip() for h in header] != fields:
                    raise InvalidConfigError(
                        f"{path}: expected header {','.join(fields)}, got {','.join(header)}"
                    )
                n_fields = len(fields)
                end = reader.line_num
                for row in reader:
                    # a quoted field may span lines: report where the record starts
                    line_no, end = end + 1, reader.line_num
                    if not row:
                        continue
                    if len(row) != n_fields:
                        yield line_no, None, f"expected {n_fields} fields, got {len(row)}"
                        continue
                    yield line_no, row, None
            except csv.Error as exc:
                # e.g. a field over csv.field_size_limit(): the reader cannot go on
                raise InvalidConfigError(f"{path}:{end + 1}: unreadable CSV record: {exc}") from None
    elif fmt == "jsonl":
        with open(path, encoding="utf-8-sig") as fh:
            for line_no, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    yield line_no, None, f"invalid JSON: {exc.msg}"
                    continue
                except ValueError as exc:  # an integer literal past int's digit limit
                    yield line_no, None, f"invalid JSON: {exc}"
                    continue
                if not isinstance(obj, dict):
                    yield line_no, None, "expected a JSON object"
                    continue
                missing = [f for f in fields if f not in obj]
                if missing:
                    yield line_no, None, f"missing fields: {','.join(missing)}"
                    continue
                values = [obj[f] for f in fields]
                bad = [
                    f"{f} is {_JSON_NON_SCALAR[type(v)]}"
                    for f, v in zip(fields, values)
                    if type(v) in _JSON_NON_SCALAR
                ]
                if bad:
                    yield line_no, None, f"expected a string or number: {', '.join(bad)}"
                    continue
                yield line_no, values, None
    else:
        raise _unknown_format(fmt)


def parse_address_records(path: str, fmt: str = "csv") -> tuple[list[AddressRecord], LoadReport]:
    """Parse delivery address records.

    Every returned record has a non-empty trimmed poi_name and district;
    rows violating that are counted in the report.
    """
    records: list[AddressRecord] = []
    report = LoadReport(path=str(path))
    for line_no, values, err in _iter_rows(path, fmt, ADDRESS_FIELDS):
        report.n_rows += 1
        if err is not None:
            report.errors.append((line_no, err))
            continue
        user_id, province, city, district, poi_name = (str(v).strip() for v in values)
        if not user_id:
            report.errors.append((line_no, "empty user_id"))
            continue
        if not district:
            report.errors.append((line_no, "empty district"))
            continue
        if not poi_name:
            report.errors.append((line_no, "empty poi_name"))
            continue
        records.append(
            AddressRecord(
                user_id=user_id,
                province=province,
                city=city,
                district=district,
                poi_name=poi_name,
            )
        )
        report.n_ok += 1
    return records, report


def parse_location_log(path: str, fmt: str = "csv") -> tuple[dict[str, np.ndarray], LoadReport]:
    """Parse user GPS points into a map user_id -> (n, 2) [lat, lon] array.

    Out-of-range or non-finite coordinates are rejected per row. Each
    accepted point is appended to its user's typed buffer, so keys follow
    each user's first accepted row and per-user point order follows file
    order.
    """
    buffers: dict[str, array] = {}
    report = LoadReport(path=str(path))
    for line_no, values, err in _iter_rows(path, fmt, LOCATION_FIELDS):
        report.n_rows += 1
        if err is not None:
            report.errors.append((line_no, err))
            continue
        raw_user, raw_lat, raw_lon = values
        user_id = str(raw_user).strip()
        if not user_id:
            report.errors.append((line_no, "empty user_id"))
            continue
        try:
            lat = float(raw_lat)
            lon = float(raw_lon)
        except (TypeError, ValueError, OverflowError):
            report.errors.append((line_no, f"unparseable coordinates: {raw_lat!r},{raw_lon!r}"))
            continue
        if not (math.isfinite(lat) and math.isfinite(lon)):
            report.errors.append((line_no, "non-finite coordinates"))
            continue
        if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
            report.errors.append((line_no, f"coordinates out of range: {lat},{lon}"))
            continue
        buf = buffers.get(user_id)
        if buf is None:
            buf = buffers[user_id] = array("d")
        buf.append(lat)
        buf.append(lon)
        report.n_ok += 1
    locations = {u: np.frombuffer(buf, dtype=np.float64).reshape(-1, 2) for u, buf in buffers.items()}
    return locations, report


def parse_labels(path: str, fmt: str = "csv") -> tuple[list[GroundTruthLabel], LoadReport]:
    """Parse ground-truth alias labels.

    A name that cleans to the empty string is a row error. Duplicate
    (district, standard, candidate) triples deduplicate with a warning;
    the same triple carrying both label values raises ConflictingLabelError.
    """
    labels: list[GroundTruthLabel] = []
    seen: dict[tuple, bool] = {}
    report = LoadReport(path=str(path))
    for line_no, values, err in _iter_rows(path, fmt, LABEL_FIELDS):
        report.n_rows += 1
        if err is not None:
            report.errors.append((line_no, err))
            continue
        district, standard, candidate, raw_flag = (str(v).strip() for v in values)
        if not district or not standard or not candidate:
            report.errors.append((line_no, "empty district or name field"))
            continue
        if raw_flag not in ("0", "1"):
            report.errors.append((line_no, f"is_alias must be 0 or 1, got {raw_flag!r}"))
            continue
        is_alias = raw_flag == "1"
        std_norm = clean_text(standard)
        cand_norm = clean_text(candidate)
        if not std_norm or not cand_norm:
            which = "candidate_name" if std_norm else "standard_name"
            report.errors.append((line_no, f"{which} cleans to an empty name"))
            continue
        if std_norm == cand_norm:
            report.errors.append(
                (line_no, f"standard and candidate normalize to the same name: {std_norm!r}")
            )
            continue
        key = (district, std_norm, cand_norm)
        if key in seen:
            if seen[key] != is_alias:
                raise ConflictingLabelError(
                    f"{path}:{line_no}: conflicting labels for triple "
                    f"(district={district!r}, standard={standard!r}, candidate={candidate!r})"
                )
            report.warnings.append(f"line {line_no}: duplicate label for triple {key} dropped")
            continue
        seen[key] = is_alias
        labels.append(
            GroundTruthLabel(
                district=district,
                standard_name=standard,
                candidate_name=candidate,
                is_alias=is_alias,
            )
        )
        report.n_ok += 1
    return labels, report


@contextmanager
def _output_file(path: str, binary: bool = False):
    """A UTF-8 text handle (a binary one if `binary`) on a temp file of its
    own beside `path` (O_EXCL, the umask's mode, parent directory created),
    renamed over `path` only if the block completes; on any error it is
    removed and `path` is left as it was.
    """
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.{uuid.uuid4().hex}.tmp"
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        with open(fd, "wb") if binary else open(fd, "w", newline="", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _csv_writers(fh):
    """Plain and quote-every-field CSV writers, both ending rows in a line feed.

    Minimal quoting leaves a bare carriage return unquoted under a line-feed
    terminator, and a reader then ends the row there; a row holding one is
    written by the second writer.
    """
    return (
        csv.writer(fh, lineterminator="\n"),
        csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL),
    )


def write_csv(path: str, header: list[str], rows):
    """Write a header and `rows`, sequences of string fields, through
    `_output_file`; a row holding a carriage return has every field quoted,
    so each row reads back as written."""
    with _output_file(path) as fh:
        plain, quoted = _csv_writers(fh)
        plain.writerow(header)
        # one writerows call per run of rows that take the same writer
        for has_cr, run in groupby(rows, key=lambda row: "\r" in "".join(row)):
            (quoted if has_cr else plain).writerows(run)


def write_json(path: str, obj):
    """Write `obj` as JSON (indent 2, sorted keys, trailing newline)."""
    with _output_file(path) as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def write_jsonl(path: str, objs):
    """Write one compact sorted-key JSON object per line."""
    with _output_file(path) as fh:
        fh.writelines(json.dumps(obj, sort_keys=True) + "\n" for obj in objs)


def write_address_records(path: str, records: list[AddressRecord]):
    rows = ([r.user_id, r.province, r.city, r.district, r.poi_name] for r in records)
    write_csv(path, ADDRESS_FIELDS, rows)


def write_location_log(path: str, locations: dict[str, np.ndarray]):
    # repr-precision floats so a parse/write cycle is lossless; one
    # writerows call per user over its columns as Python floats
    with _output_file(path) as fh:
        plain, quoted = _csv_writers(fh)
        plain.writerow(LOCATION_FIELDS)
        for user_id, pts in locations.items():
            writer = quoted if "\r" in user_id else plain
            pts = np.asarray(pts, dtype=float)
            lats, lons = pts[:, 0].tolist(), pts[:, 1].tolist()
            writer.writerows(zip(repeat(user_id), map(repr, lats), map(repr, lons)))


def write_labels(path: str, labels: list[GroundTruthLabel]):
    rows = ([lb.district, lb.standard_name, lb.candidate_name, "1" if lb.is_alias else "0"] for lb in labels)
    write_csv(path, LABEL_FIELDS, rows)


@dataclass(eq=False)
class Corpus:
    """All parsed inputs for one city, partitioned by district downstream.

    Labels are columnar, as the parsed-corpus file stores them: row i of
    `label_ids` holds the `strings` indices of label i's district, standard
    name and candidate name, and `is_alias[i]` its value. `labels` and
    `orphan_labels` build GroundTruthLabel records only when asked for.
    """

    addresses: list[AddressRecord]
    locations: dict[str, np.ndarray]
    strings: list[str]  # the string table: distinct, in first-use order
    label_ids: np.ndarray  # (n, 3) int32: district, standard, candidate
    is_alias: np.ndarray  # (n,) bool
    districts: list[str]
    reports: dict[str, LoadReport]
    orphans: list = field(default_factory=list)  # (label row, reason)

    @classmethod
    def from_records(cls, addresses, locations, labels, reports=None, orphans=()) -> "Corpus":
        """The corpus of parsed records; `orphans` pairs label rows with reasons.

        The string table takes the address fields, then the label fields,
        then the user ids, each string at its first use.
        """
        index: dict[str, int] = {}
        _interned(index, map(_address_fields, addresses), len(ADDRESS_FIELDS))
        label_ids = _interned(index, map(_label_names, labels), 3)
        _interned(index, ((user,) for user in locations), 1)
        strings = list(index)
        return cls(
            addresses=addresses,
            locations=locations,
            strings=strings,
            label_ids=label_ids,
            is_alias=np.array([lb.is_alias for lb in labels], dtype=bool),
            districts=_districts(addresses, strings, label_ids),
            reports={} if reports is None else reports,
            orphans=list(orphans),
        )

    def _records(self, rows) -> list[GroundTruthLabel]:
        s = self.strings
        ids, flags = self.label_ids[rows].tolist(), self.is_alias[rows].tolist()
        return [GroundTruthLabel(s[d], s[std], s[cand], flag) for (d, std, cand), flag in zip(ids, flags)]

    @cached_property
    def labels(self) -> list[GroundTruthLabel]:
        return self._records(slice(None))

    @property
    def orphan_labels(self) -> list:
        """(label, reason) for each label naming a POI that its district's
        addresses never name."""
        records = self._records([row for row, _ in self.orphans])
        return [(lb, reason) for lb, (_, reason) in zip(records, self.orphans)]


_address_fields = attrgetter(*ADDRESS_FIELDS)
_label_names = attrgetter("district", "standard_name", "candidate_name")


def _interned(index: dict[str, int], rows, width: int) -> np.ndarray:
    """(n, width) int32 indices of each row's strings in `index`, which
    gains the strings it lacks."""
    ids = [index.setdefault(text, len(index)) for row in rows for text in row]
    return np.array(ids, dtype=np.int32).reshape(-1, width)


def _districts(addresses, strings: list[str], label_ids: np.ndarray) -> list[str]:
    """Every district an address or a label names, sorted."""
    labeled = {strings[i] for i in set(label_ids[:, 0].tolist())}
    return sorted({r.district for r in addresses} | labeled)


def partition_by_district(addresses: list[AddressRecord]) -> dict[str, list[AddressRecord]]:
    """Disjoint cover of the records keyed by district name."""
    out: dict[str, list[AddressRecord]] = {}
    for rec in addresses:
        out.setdefault(rec.district, []).append(rec)
    return out


def _find_orphans(addresses, labels):
    """(row, reason) of each label whose names never occur (after cleaning)
    in its district's addresses."""
    names_by_district: dict[str, set] = {}
    for rec in addresses:
        names_by_district.setdefault(rec.district, set()).add(clean_text(rec.poi_name))
    orphans = []
    for row, lb in enumerate(labels):
        known = names_by_district.get(lb.district, set())
        missing = []
        if clean_text(lb.standard_name) not in known:
            missing.append("standard_name")
        if clean_text(lb.candidate_name) not in known:
            missing.append("candidate_name")
        if missing:
            orphans.append((row, "+".join(missing) + " not in district addresses"))
    return orphans


#: the parsed-corpus file `load_corpus` keeps beside its inputs
CORPUS_FILE = ".poialias-corpus.{fmt}.npz"
_INPUTS = ("addresses", "locations", "labels")


def _file_sha256(path: str) -> str | None:
    """Hex sha256 of a file's bytes, or None if there is no such file."""
    h = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            while chunk := fh.read(1 << 20):
                h.update(chunk)
    except FileNotFoundError:
        return None
    return h.hexdigest()


def _corpus_key(fmt: str, paths: list[str]) -> str:
    """sha256 over everything that decides a parse: the format, each input's
    name and bytes (or its absence), the parsing code's source, and the
    Python and numpy versions."""
    parts = [
        fmt,
        [[os.path.basename(p), _file_sha256(p)] for p in paths],
        [_file_sha256(module) for module in (__file__, preprocess.__file__)],
        sys.version,
        np.__version__,
    ]
    return hashlib.sha256(json.dumps(parts).encode()).hexdigest()


def _parse_corpus(paths: list[str], fmt: str) -> Corpus:
    addr_path, loc_path, lab_path = paths
    addresses, addr_report = parse_address_records(addr_path, fmt)
    locations, loc_report = parse_location_log(loc_path, fmt)
    reports = {"addresses": addr_report, "locations": loc_report}
    if os.path.exists(lab_path):
        labels, reports["labels"] = parse_labels(lab_path, fmt)
    else:
        labels = []
        reports["labels"] = LoadReport(path=lab_path, warnings=["labels file absent"])
    return Corpus.from_records(addresses, locations, labels, reports, _find_orphans(addresses, labels))


def _text_array(text: str) -> np.ndarray:
    # surrogatepass: a JSONL "\ud800" escape parses to a lone surrogate
    return np.frombuffer(text.encode("utf-8", "surrogatepass"), dtype=np.uint8)


def _write_corpus_file(path: str, key: str, corpus: Corpus):
    """The columnar labels as they are, addresses and users as int32
    indices into the same string table, points as one float64 (n, 2) array
    with per-user counts, reports and orphans as a JSON blob."""
    index = {text: i for i, text in enumerate(corpus.strings)}
    addresses = _interned(index, map(_address_fields, corpus.addresses), len(ADDRESS_FIELDS))
    users = _interned(index, ((user,) for user in corpus.locations), 1).ravel()
    meta = {
        "reports": {
            name: {"n_rows": r.n_rows, "n_ok": r.n_ok, "errors": r.errors, "warnings": r.warnings}
            for name, r in corpus.reports.items()
        },
        "orphans": [[row, reason] for row, reason in corpus.orphans],
    }
    with _output_file(path, binary=True) as fh:
        np.savez(
            fh,
            key=np.array(key),
            strings=_text_array("".join(index)),
            string_lengths=np.array([len(t) for t in index], dtype=np.int64),
            addresses=addresses,
            labels=corpus.label_ids,
            is_alias=corpus.is_alias,
            users=users,
            point_counts=np.array([len(p) for p in corpus.locations.values()], dtype=np.int64),
            points=np.concatenate([*corpus.locations.values(), np.empty((0, 2))]),
            meta=_text_array(json.dumps(meta)),
        )


def _expect(ok: bool):
    if not ok:
        raise ValueError("the corpus file does not match its inputs or its layout")


def _read_corpus_file(path: str, key: str, paths: list[str]) -> Corpus:
    """The corpus in `path`, with `paths` as its reports' paths; raises
    unless the file carries `key` and holds a complete, consistent corpus."""
    with np.load(path, allow_pickle=False) as z:
        _expect(z["key"].shape == () and str(z["key"]) == key)
        arrays = {name: z[name] for name in z.files}
    lengths = arrays["string_lengths"]
    _expect(lengths.ndim == 1 and bool(np.all(lengths >= 0)))
    text = arrays["strings"].tobytes().decode("utf-8", "surrogatepass")
    ends = np.cumsum(lengths).tolist()
    _expect((ends[-1] if ends else 0) == len(text))
    s = [text[a:b] for a, b in zip([0, *ends], ends)]  # the string table
    _expect(len(set(s)) == len(s))  # one index per string: labels group by index

    addr, lab, is_alias = arrays["addresses"], arrays["labels"], arrays["is_alias"]
    users, counts, points = arrays["users"], arrays["point_counts"], arrays["points"]
    _expect(addr.ndim == 2 and addr.shape[1] == len(ADDRESS_FIELDS))
    _expect(lab.ndim == 2 and lab.shape[1] == 3)
    _expect(is_alias.dtype == bool and is_alias.shape == (len(lab),))
    _expect(users.ndim == 1 and counts.dtype == np.int64 and counts.shape == users.shape)
    _expect(bool(np.all(counts >= 1)))
    _expect(points.dtype == np.float64 and points.shape == (int(counts.sum()), 2))
    for idx in (addr, lab, users):
        _expect(idx.dtype == np.int32 and bool(np.all((idx >= 0) & (idx < len(s)))))
    addresses = [AddressRecord(s[a], s[b], s[c], s[d], s[e]) for a, b, c, d, e in addr.tolist()]
    stops = np.cumsum(counts).tolist()
    locations = {s[u]: points[a:b] for u, a, b in zip(users.tolist(), [0, *stops], stops)}
    _expect(len(locations) == len(users))

    meta = json.loads(arrays["meta"].tobytes())
    _expect(list(meta["reports"]) == list(_INPUTS))
    reports = {
        name: LoadReport(
            path=p,
            n_rows=r["n_rows"],
            n_ok=r["n_ok"],
            errors=[(line, msg) for line, msg in r["errors"]],
            warnings=r["warnings"],
        )
        for p, (name, r) in zip(paths, meta["reports"].items())
    }
    orphans = [(row, reason) for row, reason in meta["orphans"]]
    _expect(all(type(row) is int and 0 <= row < len(lab) for row, _ in orphans))
    return Corpus(
        addresses=addresses,
        locations=locations,
        strings=s,
        label_ids=lab,
        is_alias=is_alias,
        districts=_districts(addresses, s, lab),
        reports=reports,
        orphans=orphans,
    )


def load_corpus(data_dir: str, fmt: str = "csv", require_labels: bool = False) -> Corpus:
    """Load addresses, locations, and labels from a data directory.

    Expects addresses.<fmt>, locations.<fmt>, labels.<fmt> with fmt csv or
    jsonl. A missing labels file is tolerated (empty label list) unless
    `require_labels` is set.

    What is parsed is kept in `<data_dir>/.poialias-corpus.<fmt>.npz`,
    keyed by a sha256 over the format, each input's name and bytes (or its
    absence), the parsing code's source and the Python and numpy versions.
    A later call with the same key loads that file instead of parsing and
    returns an equal corpus. A file that cannot be read or does not match
    in full is a miss: the inputs are parsed and the file rewritten. A
    failed write costs only the next call's re-parse.
    """
    if fmt not in FORMATS:
        raise _unknown_format(fmt)
    paths = [os.path.join(data_dir, f"{name}.{fmt}") for name in _INPUTS]
    if require_labels and not os.path.exists(paths[2]):
        raise FileNotFoundError(paths[2])
    cache = os.path.join(data_dir, CORPUS_FILE.format(fmt=fmt))
    key = _corpus_key(fmt, paths)
    try:
        corpus = _read_corpus_file(cache, key, paths)
    except Exception as exc:
        # an absent, damaged or mismatched file is a miss; a damaged zip
        # alone can raise BadZipFile, EOFError, NotImplementedError,
        # RuntimeError, KeyError, ValueError or OSError
        logger.info("corpus=%s cache=miss reason=%r", cache, exc)
    else:
        logger.info("corpus=%s cache=hit", cache)
        return corpus
    corpus = _parse_corpus(paths, fmt)
    # an input rewritten while it was parsed must not be filed under the old key
    if _corpus_key(fmt, paths) == key:
        try:
            _write_corpus_file(cache, key, corpus)
            logger.info("corpus=%s cache=written", cache)
        except OSError as exc:
            logger.info("corpus=%s cache=unwritten reason=%s", cache, exc)
    return corpus
