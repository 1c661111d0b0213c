"""Parsing and serialization of the three input corpora: address records,
user location logs, and ground-truth alias labels.

Files are headered CSV (RFC-4180) or JSONL with the same field names.
Malformed rows are skipped and reported with their line numbers, never
silently dropped: real delivery data is noisy and the trace matters.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field

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


def _iter_rows(path: str, fmt: str, fields: list[str]):
    """Yield (line_number, row_dict_or_None, error_message_or_None).

    A leading UTF-8 byte-order mark is dropped in both formats.
    """
    if fmt == "csv":
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                return  # empty file: empty collection, not an error
            if [h.strip() for h in header] != fields:
                raise InvalidConfigError(
                    f"{path}: expected header {','.join(fields)}, got {','.join(header)}"
                )
            for line_no, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(fields):
                    yield line_no, None, f"expected {len(fields)} fields, got {len(row)}"
                    continue
                yield line_no, dict(zip(fields, row)), None
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
                missing = [f for f in fields if f not in obj]
                if missing:
                    yield line_no, None, f"missing fields: {','.join(missing)}"
                    continue
                yield line_no, {f: obj[f] for f in fields}, None
    else:
        raise InvalidConfigError(f"unknown format {fmt!r}; expected 'csv' or 'jsonl'")


def parse_address_records(path: str, fmt: str = "csv") -> tuple[list[AddressRecord], LoadReport]:
    """Parse delivery address records.

    Every returned record has a non-empty trimmed poi_name and district;
    rows violating that are counted in the report.
    """
    records: list[AddressRecord] = []
    report = LoadReport(path=str(path))
    for line_no, row, err in _iter_rows(path, fmt, ADDRESS_FIELDS):
        report.n_rows += 1
        if err is not None:
            report.errors.append((line_no, err))
            continue
        user_id = str(row["user_id"]).strip()
        district = str(row["district"]).strip()
        poi_name = str(row["poi_name"]).strip()
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
                province=str(row["province"]).strip(),
                city=str(row["city"]).strip(),
                district=district,
                poi_name=poi_name,
            )
        )
        report.n_ok += 1
    return records, report


def parse_location_log(path: str, fmt: str = "csv") -> tuple[dict[str, np.ndarray], LoadReport]:
    """Parse user GPS points into a map user_id -> (n, 2) [lat, lon] array.

    Out-of-range or non-finite coordinates are rejected per row. Per-user
    point order follows file order.
    """
    buckets: dict[str, list] = {}
    report = LoadReport(path=str(path))
    for line_no, row, err in _iter_rows(path, fmt, LOCATION_FIELDS):
        report.n_rows += 1
        if err is not None:
            report.errors.append((line_no, err))
            continue
        user_id = str(row["user_id"]).strip()
        if not user_id:
            report.errors.append((line_no, "empty user_id"))
            continue
        try:
            lat = float(row["lat"])
            lon = float(row["lon"])
        except (TypeError, ValueError):
            report.errors.append((line_no, f"unparseable coordinates: {row['lat']!r},{row['lon']!r}"))
            continue
        if not (math.isfinite(lat) and math.isfinite(lon)):
            report.errors.append((line_no, "non-finite coordinates"))
            continue
        if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
            report.errors.append((line_no, f"coordinates out of range: {lat},{lon}"))
            continue
        buckets.setdefault(user_id, []).append((lat, lon))
        report.n_ok += 1
    locations = {u: np.array(pts, dtype=float) for u, pts in buckets.items()}
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
    for line_no, row, err in _iter_rows(path, fmt, LABEL_FIELDS):
        report.n_rows += 1
        if err is not None:
            report.errors.append((line_no, err))
            continue
        district = str(row["district"]).strip()
        standard = str(row["standard_name"]).strip()
        candidate = str(row["candidate_name"]).strip()
        raw_flag = str(row["is_alias"]).strip()
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


def write_address_records(path: str, records: list[AddressRecord]):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(ADDRESS_FIELDS)
        for r in records:
            writer.writerow([r.user_id, r.province, r.city, r.district, r.poi_name])


def write_location_log(path: str, locations: dict[str, np.ndarray]):
    # repr-precision floats so a parse/write cycle is lossless
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(LOCATION_FIELDS)
        for user_id, pts in locations.items():
            for lat, lon in np.asarray(pts, dtype=float):
                writer.writerow([user_id, repr(float(lat)), repr(float(lon))])


def write_labels(path: str, labels: list[GroundTruthLabel]):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(LABEL_FIELDS)
        for lb in labels:
            writer.writerow(
                [lb.district, lb.standard_name, lb.candidate_name, "1" if lb.is_alias else "0"]
            )


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
