"""Parsing and serialization of the three input corpora: address records,
user location logs, and ground-truth alias labels; and the one output
layer every artifact is written through.

Files are headered CSV (RFC-4180) or JSONL with the same field names.
Malformed rows are skipped and reported with their line numbers, never
silently dropped: real delivery data is noisy and the trace matters.
"""

from __future__ import annotations

import csv
import json
import os
import uuid
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import groupby, repeat

import numpy as np

from .errors import ConflictingLabelError, InvalidConfigError
from .preprocess import clean_text

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


def _iter_rows(path: str, fmt: str, fields: list[str]):
    """Yield (line_number, values_or_None, error_message_or_None).

    `values` holds the row's field values in `fields` order. A JSONL value
    must be a string or a number: null, booleans, arrays and objects are
    row errors naming the field. A leading UTF-8 byte-order mark is
    dropped in both formats.
    """
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
        raise InvalidConfigError(f"unknown format {fmt!r}; expected 'csv' or 'jsonl'")


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

    One pass over the rows interns each user_id to an int and appends
    user, lat, lon and line number to typed buffers; the finite and range
    checks then run vectorised over those buffers, and one stable argsort
    groups the points by user. Out-of-range or non-finite coordinates are
    rejected per row. Keys follow each user's first accepted row and
    per-user point order follows file order.
    """
    report = LoadReport(path=str(path))
    user_index: dict[str, int] = {}
    users, lats, lons, lines = array("q"), array("d"), array("d"), array("q")
    row_errors = []
    for line_no, values, err in _iter_rows(path, fmt, LOCATION_FIELDS):
        if err is not None:
            row_errors.append((line_no, err))
            continue
        raw_user, raw_lat, raw_lon = values
        user_id = str(raw_user).strip()
        if not user_id:
            row_errors.append((line_no, "empty user_id"))
            continue
        try:
            lat = float(raw_lat)
            lon = float(raw_lon)
        except (TypeError, ValueError, OverflowError):
            row_errors.append((line_no, f"unparseable coordinates: {raw_lat!r},{raw_lon!r}"))
            continue
        uid = user_index.get(user_id)
        if uid is None:
            uid = user_index[user_id] = len(user_index)
        users.append(uid)
        lats.append(lat)
        lons.append(lon)
        lines.append(line_no)
    report.n_rows = len(row_errors) + len(lines)

    lat_a = np.frombuffer(lats, dtype=np.float64)
    lon_a = np.frombuffer(lons, dtype=np.float64)
    finite = np.isfinite(lat_a) & np.isfinite(lon_a)
    ok = finite & (np.abs(lat_a) <= 90.0) & (np.abs(lon_a) <= 180.0)
    check_errors = [
        (lines[i], f"coordinates out of range: {lats[i]},{lons[i]}" if finite[i] else "non-finite coordinates")
        for i in np.flatnonzero(~ok).tolist()
    ]
    report.errors = sorted(row_errors + check_errors)  # two runs, each in line order
    report.n_ok = int(np.count_nonzero(ok))

    uid_ok = np.frombuffer(users, dtype=np.int64)[ok]
    points = np.column_stack((lat_a[ok], lon_a[ok]))
    order = np.argsort(uid_ok, kind="stable")
    grouped = uid_ok[order]
    starts = np.flatnonzero(np.diff(grouped, prepend=-1))
    chunks = np.split(points[order], starts[1:])
    names = list(user_index)
    # order[starts] is each user's first accepted row
    locations = {
        names[grouped[starts[k]]]: chunks[k] for k in np.argsort(order[starts], kind="stable").tolist()
    }
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
def _output_file(path: str):
    """A text handle on a temp file of its own beside `path` (O_EXCL, the
    umask's mode, parent directory created), renamed over `path` only if the
    block completes; on any error it is removed and `path` is left as it was.
    """
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.{uuid.uuid4().hex}.tmp"
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        with open(fd, "w", newline="", encoding="utf-8") as fh:
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


@dataclass
class Corpus:
    """All parsed inputs for one city, partitioned by district downstream."""

    addresses: list[AddressRecord]
    locations: dict[str, np.ndarray]
    labels: list[GroundTruthLabel]
    districts: list[str]
    reports: dict[str, LoadReport]
    orphan_labels: list = field(default_factory=list)  # (label, reason)


def partition_by_district(addresses: list[AddressRecord]) -> dict[str, list[AddressRecord]]:
    """Disjoint cover of the records keyed by district name."""
    out: dict[str, list[AddressRecord]] = {}
    for rec in addresses:
        out.setdefault(rec.district, []).append(rec)
    return out


def _find_orphans(addresses, labels):
    """Labels whose names never occur (after cleaning) in the district's addresses."""
    names_by_district: dict[str, set] = {}
    for rec in addresses:
        names_by_district.setdefault(rec.district, set()).add(clean_text(rec.poi_name))
    orphans = []
    for lb in labels:
        known = names_by_district.get(lb.district, set())
        missing = []
        if clean_text(lb.standard_name) not in known:
            missing.append("standard_name")
        if clean_text(lb.candidate_name) not in known:
            missing.append("candidate_name")
        if missing:
            orphans.append((lb, "+".join(missing) + " not in district addresses"))
    return orphans


def load_corpus(data_dir: str, fmt: str = "csv", require_labels: bool = False) -> Corpus:
    """Load addresses, locations, and labels from a data directory.

    Expects addresses.<ext>, locations.<ext>, labels.<ext> with ext csv or
    jsonl. A missing labels file is tolerated (empty label list) unless
    `require_labels` is set.
    """
    ext = "csv" if fmt == "csv" else "jsonl"
    addr_path = os.path.join(data_dir, f"addresses.{ext}")
    loc_path = os.path.join(data_dir, f"locations.{ext}")
    lab_path = os.path.join(data_dir, f"labels.{ext}")

    addresses, addr_report = parse_address_records(addr_path, fmt)
    locations, loc_report = parse_location_log(loc_path, fmt)
    reports = {"addresses": addr_report, "locations": loc_report}

    if os.path.exists(lab_path):
        labels, lab_report = parse_labels(lab_path, fmt)
        reports["labels"] = lab_report
    elif require_labels:
        raise FileNotFoundError(lab_path)
    else:
        labels = []
        reports["labels"] = LoadReport(path=lab_path, warnings=["labels file absent"])

    districts = sorted({r.district for r in addresses} | {lb.district for lb in labels})
    orphans = _find_orphans(addresses, labels)
    return Corpus(
        addresses=addresses,
        locations=locations,
        labels=labels,
        districts=districts,
        reports=reports,
        orphan_labels=orphans,
    )
