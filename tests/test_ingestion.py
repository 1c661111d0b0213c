"""Corpus parsing, validation, serialization round-trips."""

import json

import numpy as np
import pytest

from poialias.errors import ConflictingLabelError, InvalidConfigError
from poialias.ingestion import (
    AddressRecord,
    GroundTruthLabel,
    load_corpus,
    parse_address_records,
    parse_labels,
    parse_location_log,
    partition_by_district,
    write_address_records,
    write_labels,
    write_location_log,
)


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------- addresses


def test_parse_address_row(tmp_path):
    path = _write(
        tmp_path / "a.csv",
        "user_id,province,city,district,poi_name\nu1,Jiangsu,Suzhou,Huqiu,XiGuYaYuan\n",
    )
    records, report = parse_address_records(path)
    assert records == [AddressRecord("u1", "Jiangsu", "Suzhou", "Huqiu", "XiGuYaYuan")]
    assert report.n_ok == 1 and report.n_errors == 0


def test_parse_address_empty_file(tmp_path):
    path = _write(tmp_path / "a.csv", "")
    records, report = parse_address_records(path)
    assert records == [] and report.n_errors == 0


def test_parse_address_empty_poi_name_reported(tmp_path):
    path = _write(
        tmp_path / "a.csv",
        "user_id,province,city,district,poi_name\nu1,J,S,Huqiu,  \nu2,J,S,Huqiu,ok\n",
    )
    records, report = parse_address_records(path)
    assert len(records) == 1
    assert report.n_errors == 1
    line, msg = report.errors[0]
    assert line == 2 and "poi_name" in msg


def test_parse_address_missing_file():
    with pytest.raises(FileNotFoundError):
        parse_address_records("/nonexistent/addresses.csv")


def test_parse_address_wrong_header(tmp_path):
    path = _write(tmp_path / "a.csv", "a,b,c\n1,2,3\n")
    with pytest.raises(InvalidConfigError):
        parse_address_records(path)


def test_parse_address_jsonl(tmp_path):
    rows = [
        {"user_id": "u1", "province": "J", "city": "S", "district": "H", "poi_name": "X"},
        {"user_id": "u2", "province": "J", "city": "S", "district": "H", "poi_name": "Y"},
    ]
    path = _write(tmp_path / "a.jsonl", "\n".join(json.dumps(r) for r in rows) + "\n")
    records, report = parse_address_records(path, fmt="jsonl")
    assert [r.user_id for r in records] == ["u1", "u2"]
    assert report.n_errors == 0


BOM_TEXT = {
    "csv": "user_id,province,city,district,poi_name\nu1,J,S,H,X\nu2,J,S,H,\nu3,J,S,H,Y\n",
    "jsonl": "\n".join(
        json.dumps({"user_id": u, "province": "J", "city": "S", "district": "H", "poi_name": n})
        for u, n in (("u1", "X"), ("u2", ""), ("u3", "Y"))
    )
    + "\n",
}


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_parse_address_bom_prefixed_file(tmp_path, fmt):
    plain = _write(tmp_path / f"plain.{fmt}", BOM_TEXT[fmt])
    bom = _write(tmp_path / f"bom.{fmt}", "\ufeff" + BOM_TEXT[fmt])
    records, report = parse_address_records(plain, fmt)
    bom_records, bom_report = parse_address_records(bom, fmt)
    assert [r.user_id for r in records] == ["u1", "u3"] and report.n_errors == 1
    assert bom_records == records
    assert {**bom_report.to_dict(), "path": plain} == report.to_dict()


# ---------------------------------------------------------------- locations


def test_parse_locations_preserves_order(tmp_path):
    path = _write(
        tmp_path / "l.csv",
        "user_id,lat,lon\nu1,31.30,120.57\nu1,31.31,120.58\n",
    )
    locations, report = parse_location_log(path)
    assert set(locations) == {"u1"}
    assert locations["u1"].tolist() == [[31.30, 120.57], [31.31, 120.58]]
    assert report.n_errors == 0


def test_parse_locations_rejects_out_of_range(tmp_path):
    path = _write(tmp_path / "l.csv", "user_id,lat,lon\nu2,95.0,120.0\n")
    locations, report = parse_location_log(path)
    assert locations == {}
    assert report.n_errors == 1


def test_parse_locations_count_oracle(tmp_path):
    lines = ["user_id,lat,lon"]
    for u in range(3):
        for k in range(2):
            lines.append(f"u{u},31.{k},120.{k}")
    path = _write(tmp_path / "l.csv", "\n".join(lines) + "\n")
    locations, report = parse_location_log(path)
    # oracle: the file has 6 data lines, 3 users x 2 points
    assert report.n_rows == len(lines) - 1
    assert len(locations) == 3
    assert all(len(v) == 2 for v in locations.values())


def test_parse_locations_rejects_garbage(tmp_path):
    path = _write(tmp_path / "l.csv", "user_id,lat,lon\nu1,abc,120\nu1,nan,120\n")
    locations, report = parse_location_log(path)
    assert locations == {}
    assert report.n_errors == 2


def test_parse_locations_and_labels_jsonl(tmp_path):
    loc_path = _write(
        tmp_path / "l.jsonl",
        '{"user_id": "u1", "lat": 31.3, "lon": 120.5}\n'
        '{"user_id": "u1", "lat": 31.4, "lon": 120.6}\n',
    )
    locations, report = parse_location_log(loc_path, fmt="jsonl")
    assert locations["u1"].tolist() == [[31.3, 120.5], [31.4, 120.6]]
    assert report.n_errors == 0

    lab_path = _write(
        tmp_path / "lb.jsonl",
        '{"district": "H", "standard_name": "A", "candidate_name": "B", "is_alias": 1}\n',
    )
    labels, report = parse_labels(lab_path, fmt="jsonl")
    assert labels == [GroundTruthLabel("H", "A", "B", True)]


# ------------------------------------------------------------------- labels


def test_parse_labels_positive(tmp_path):
    path = _write(
        tmp_path / "lb.csv",
        "district,standard_name,candidate_name,is_alias\nHuqiu,XiGuYaYuan,LangShiLvZhou,1\n",
    )
    labels, report = parse_labels(path)
    assert labels == [GroundTruthLabel("Huqiu", "XiGuYaYuan", "LangShiLvZhou", True)]


def test_parse_labels_dedups_identical(tmp_path):
    row = "Huqiu,A,B,1\n"
    path = _write(
        tmp_path / "lb.csv",
        "district,standard_name,candidate_name,is_alias\n" + row + row,
    )
    labels, report = parse_labels(path)
    assert len(labels) == 1
    assert len(report.warnings) == 1


def test_parse_labels_conflict_raises_with_triple(tmp_path):
    path = _write(
        tmp_path / "lb.csv",
        "district,standard_name,candidate_name,is_alias\nHuqiu,A,B,1\nHuqiu,A,B,0\n",
    )
    with pytest.raises(ConflictingLabelError) as exc:
        parse_labels(path)
    msg = str(exc.value)
    assert "Huqiu" in msg and "A" in msg and "B" in msg


def test_parse_labels_rejects_same_name_pair(tmp_path):
    path = _write(
        tmp_path / "lb.csv",
        "district,standard_name,candidate_name,is_alias\nHuqiu,Same!,same,1\n",
    )
    labels, report = parse_labels(path)
    assert labels == [] and report.n_errors == 1


# ------------------------------------------------------------- round trips


def test_address_round_trip(tmp_path):
    records = [
        AddressRecord("u1", "Jiangsu", "Suzhou", "Huqiu", "XiGu YaYuan"),
        AddressRecord("u2", "Jiangsu", "Suzhou", "Huqiu", 'quoted, "name"'),
    ]
    path = tmp_path / "a.csv"
    write_address_records(str(path), records)
    parsed, report = parse_address_records(str(path))
    # embedded whitespace survives but fields are stored trimmed
    assert parsed == records and report.n_errors == 0


def test_location_round_trip_is_lossless(tmp_path):
    rng = np.random.default_rng(7)
    locations = {
        f"u{i}": np.column_stack(
            [rng.uniform(31, 32, 5), rng.uniform(120, 121, 5)]
        )
        for i in range(4)
    }
    path = tmp_path / "l.csv"
    write_location_log(str(path), locations)
    parsed, _ = parse_location_log(str(path))
    assert set(parsed) == set(locations)
    for u in locations:
        assert np.array_equal(parsed[u], locations[u])
    # a second serialization produces identical bytes
    path2 = tmp_path / "l2.csv"
    write_location_log(str(path2), parsed)
    assert path.read_bytes() == path2.read_bytes()


def test_labels_round_trip(tmp_path):
    labels = [
        GroundTruthLabel("d0", "stda", "candb", True),
        GroundTruthLabel("d0", "stda", "candc", False),
    ]
    path = tmp_path / "lb.csv"
    write_labels(str(path), labels)
    parsed, _ = parse_labels(str(path))
    assert parsed == labels


def test_parse_is_deterministic(tmp_path):
    path = _write(
        tmp_path / "a.csv",
        "user_id,province,city,district,poi_name\nu1,J,S,H,X\nu2,J,S,H,\nu3,J,S,G,Y\n",
    )
    first = parse_address_records(path)
    second = parse_address_records(path)
    assert first[0] == second[0]
    assert first[1].errors == second[1].errors


# ----------------------------------------------------------------- corpus


def test_partition_is_disjoint_cover():
    records = [
        AddressRecord("u1", "J", "S", "H", "X"),
        AddressRecord("u2", "J", "S", "G", "Y"),
        AddressRecord("u3", "J", "S", "H", "Z"),
    ]
    parts = partition_by_district(records)
    assert sorted(parts) == ["G", "H"]
    total = sum(len(v) for v in parts.values())
    assert total == len(records)
    seen = [r for recs in parts.values() for r in recs]
    assert sorted(r.user_id for r in seen) == ["u1", "u2", "u3"]


def test_load_corpus_flags_orphan_labels(tmp_path):
    _write(
        tmp_path / "addresses.csv",
        "user_id,province,city,district,poi_name\nu1,J,S,H,KnownName\n",
    )
    _write(tmp_path / "locations.csv", "user_id,lat,lon\nu1,31.0,120.0\n")
    _write(
        tmp_path / "labels.csv",
        "district,standard_name,candidate_name,is_alias\n"
        "H,KnownName,GhostName,1\nH,Ghost2,KnownName,0\n",
    )
    corpus = load_corpus(str(tmp_path))
    assert len(corpus.orphan_labels) == 2
    reasons = sorted(reason for _, reason in corpus.orphan_labels)
    assert "candidate_name" in reasons[0] and "standard_name" in reasons[1]


def test_load_corpus_tolerates_missing_labels(tmp_path):
    _write(
        tmp_path / "addresses.csv",
        "user_id,province,city,district,poi_name\nu1,J,S,H,X\n",
    )
    _write(tmp_path / "locations.csv", "user_id,lat,lon\nu1,31.0,120.0\n")
    corpus = load_corpus(str(tmp_path))
    assert corpus.labels == []
    with pytest.raises(FileNotFoundError):
        load_corpus(str(tmp_path), require_labels=True)
