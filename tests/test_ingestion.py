"""Corpus parsing, validation, serialization round-trips."""

import contextlib
import csv
import io
import json
import math
import os
import shutil
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poialias import ingestion
from poialias.cli import main
from poialias.errors import ConflictingLabelError, InvalidConfigError
from poialias.ingestion import (
    ADDRESS_FIELDS,
    LABEL_FIELDS,
    LOCATION_FIELDS,
    AddressRecord,
    GroundTruthLabel,
    LoadReport,
    _iter_rows,
    load_corpus,
    parse_address_records,
    parse_labels,
    parse_location_log,
    partition_by_district,
    write_address_records,
    write_csv,
    write_labels,
    write_location_log,
)
from poialias.pipeline import build_city_data
from poialias.preprocess import clean_text


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


def test_parse_address_jsonl_rejects_non_scalar_values(tmp_path):
    rows = [
        {"user_id": "u1", "province": "J", "city": "S", "district": "H", "poi_name": None},
        {"user_id": 2, "province": "J", "city": "S", "district": "H", "poi_name": "Y"},
        {"user_id": "u3", "province": False, "city": ["S"], "district": "H", "poi_name": "Z"},
    ]
    path = _write(tmp_path / "a.jsonl", "\n".join(json.dumps(r) for r in rows) + "\n")
    records, report = parse_address_records(path, fmt="jsonl")
    assert records == [AddressRecord("2", "J", "S", "H", "Y")]
    assert report.errors == [
        (1, "expected a string or number: poi_name is null"),
        (3, "expected a string or number: province is a boolean, city is an array"),
    ]


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


def test_csv_error_lines_are_physical_lines(tmp_path):
    # a quoted field spanning lines pushes every later record down a line;
    # an error names the physical line its record starts on
    path = _write(tmp_path / "l.csv", 'user_id,lat,lon\n"a\nb",31,120\nu2,north,120\n')
    _, report = parse_location_log(path)
    assert report.errors == [(4, "unparseable coordinates: 'north','120'")]

    # row errors and the vectorised range check, merged in line order
    path = _write(
        tmp_path / "l2.csv",
        'user_id,lat,lon\n"a\nb",31,120\nu2,north,120\n"c\n\nd",95,120\nu3,31\n\nu4,1,2\n',
    )
    locations, report = parse_location_log(path)
    assert [line for line, _ in report.errors] == [4, 5, 8]
    assert report.errors[1] == (5, "coordinates out of range: 95.0,120.0")
    assert list(locations) == ["a\nb", "u4"]

    path = _write(
        tmp_path / "a.csv",
        'user_id,province,city,district,poi_name\nu1,J,S,H,"two\nlines"\nu2,J,S,H,\n',
    )
    _, report = parse_address_records(path)
    assert report.errors == [(4, "empty poi_name")]

    path = _write(
        tmp_path / "lb.csv",
        'district,standard_name,candidate_name,is_alias\nH,"A\nB",C,1\nH,A,C,2\n',
    )
    _, report = parse_labels(path)
    assert report.errors == [(4, "is_alias must be 0 or 1, got '2'")]


def test_oversized_csv_field_fails_with_path_and_line(tmp_path, capsys):
    # a field past csv.field_size_limit() stops the reader: the file fails
    # with its path and the physical line the record starts on
    data = tmp_path / "big"
    data.mkdir()
    _write(data / "addresses.csv", "user_id,province,city,district,poi_name\n"
           "u1,J,S,H,X\nu2,J,S,H," + "y" * 200_000 + "\n")
    _write(data / "locations.csv", "user_id,lat,lon\nu1,31.0,120.0\n")
    rc = main(["ingest-check", str(data), "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: command=ingest-check {data / 'addresses.csv'}:3: unreadable CSV record: ")
    assert "field larger than field limit" in err

    path = _write(tmp_path / "lb.csv", 'district,standard_name,candidate_name,is_alias\nH,"' + "A\n" * 70_000 + '",C,1\n')
    with pytest.raises(InvalidConfigError, match=r"lb\.csv:2: unreadable CSV record"):
        parse_labels(path)


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


def _per_row_parse_location_log(path, fmt="csv"):
    """Oracle: a second per-row parser, written apart from the library's.

    One dict, one float() pair and one finite and range check per row;
    accepted points are bucketed per user in Python lists, in file order.
    """
    buckets = {}
    report = LoadReport(path=str(path))
    for line_no, values, err in _iter_rows(path, fmt, LOCATION_FIELDS):
        report.n_rows += 1
        if err is not None:
            report.errors.append((line_no, err))
            continue
        row = dict(zip(LOCATION_FIELDS, values))
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
    return {u: np.array(pts, dtype=float) for u, pts in buckets.items()}, report


def _assert_same_parse(path, fmt):
    got, got_report = parse_location_log(path, fmt)
    want, want_report = _per_row_parse_location_log(path, fmt)
    assert list(got) == list(want)
    for user, pts in want.items():
        assert (got[user].dtype, got[user].shape) == (pts.dtype, pts.shape)
        assert got[user].tobytes() == pts.tobytes()
    assert got_report.to_dict() == want_report.to_dict()


_USERS = ["u1", " u2 ", "ü3", 'a,"b', "x\ny", "", "  "]
# accepted by float(), padded, with underscores, in Arabic-Indic digits
_COORDS = ["31.3", " 12 ", "-0.0", "+5", "1_0", "١٢", "90", "-180", "1e-300"]
_NON_FINITE = ["nan", "inf", "-Infinity", "infinity", "1e400"]
_OUT_OF_RANGE = ["95.0", "-90.0000001", "180.5", "1e300"]
_UNPARSEABLE = ["north", "", "1__0", "0x10", "1,5"]
_TEXT_VALUE = st.sampled_from(_COORDS + _NON_FINITE + _OUT_OF_RANGE + _UNPARSEABLE)
_FLOAT_VALUE = st.floats(-200.0, 200.0) | st.sampled_from([math.inf, -math.inf, math.nan, 10**30])


def _csv_line(fields):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(fields)
    return buf.getvalue()


_CSV_ROW = st.one_of(
    st.tuples(st.sampled_from(_USERS), _TEXT_VALUE, _TEXT_VALUE).map(list),
    st.lists(_TEXT_VALUE, min_size=1, max_size=4).filter(lambda r: len(r) != 3),
).map(_csv_line) | st.just("\n")

_JSON_VALUE = st.one_of(
    _TEXT_VALUE, _FLOAT_VALUE, st.integers(-1000, 1000), st.sampled_from([None, True, [1.0], {"a": 1}])
)
_JSONL_ROW = st.one_of(
    st.fixed_dictionaries(
        {"user_id": st.sampled_from(_USERS) | st.integers(0, 9), "lat": _JSON_VALUE, "lon": _JSON_VALUE}
    ).map(json.dumps),
    st.fixed_dictionaries({"user_id": st.sampled_from(_USERS), "lat": _JSON_VALUE}).map(json.dumps),
    st.sampled_from(["{", '{"user_id": "u1", "lat": 1', "5", '"u1,1,2"', "[1, 2, 3]", "", "  "]),
).map(lambda line: line + "\n")


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(_CSV_ROW, max_size=30))
def test_single_pass_parse_matches_per_row_oracle_csv(rows, tmp_path_factory):
    path = tmp_path_factory.mktemp("oracle") / "l.csv"
    path.write_text("user_id,lat,lon\n" + "".join(rows), encoding="utf-8")
    _assert_same_parse(str(path), "csv")


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(_JSONL_ROW, max_size=30))
def test_single_pass_parse_matches_per_row_oracle_jsonl(rows, tmp_path_factory):
    path = tmp_path_factory.mktemp("oracle") / "l.jsonl"
    path.write_text("".join(rows), encoding="utf-8")
    _assert_same_parse(str(path), "jsonl")


def test_single_pass_parse_matches_oracle_on_a_noisy_log(tmp_path):
    lines = ["user_id,lat,lon"]
    rng = np.random.default_rng(3)
    for k in range(400):
        user = f"u{int(rng.integers(0, 25))}"
        lat, lon = repr(float(rng.uniform(-95, 95))), repr(float(rng.uniform(-185, 185)))
        kind = k % 9
        lines.append(
            [
                f"{user},{lat},{lon}",
                f"{user},nan,{lon}",
                f"{user},{lat}",
                f",{lat},{lon}",
                f"{user},north,{lon}",
                "",
                f"{user}, {lat} ,{lon}",
                f"{user},{lat},{lon},x",
                f"{user},1e400,{lon}",
            ][kind]
        )
    path = _write(tmp_path / "l.csv", "\n".join(lines) + "\n")
    _assert_same_parse(path, "csv")


_USER_ID = st.text(min_size=1, max_size=12).filter(lambda u: u == u.strip())
_POINT = st.tuples(st.floats(-90.0, 90.0), st.floats(-180.0, 180.0))


@settings(max_examples=200, deadline=None)
@given(points=st.dictionaries(_USER_ID, st.lists(_POINT, min_size=1, max_size=4), max_size=6))
def test_location_round_trip_on_unicode_user_ids(points, tmp_path_factory):
    locations = {u: np.array(pts, dtype=float) for u, pts in points.items()}
    path = tmp_path_factory.mktemp("roundtrip") / "l.csv"
    write_location_log(str(path), locations)
    parsed, report = parse_location_log(str(path))
    assert report.n_errors == 0
    assert list(parsed) == list(locations)
    for u, pts in locations.items():
        assert parsed[u].tobytes() == pts.tobytes()


def test_locations_jsonl_rejects_non_scalar_values(tmp_path):
    path = _write(
        tmp_path / "l.jsonl",
        '{"user_id": null, "lat": true, "lon": 120.5}\n'
        '{"user_id": 7, "lat": "31.5", "lon": 120.5}\n'
        '{"user_id": "u1", "lat": [31.5], "lon": {"deg": 120}}\n',
    )
    locations, report = parse_location_log(path, fmt="jsonl")
    assert list(locations) == ["7"]
    assert report.errors == [
        (1, "expected a string or number: user_id is null, lat is a boolean"),
        (3, "expected a string or number: lat is an array, lon is an object"),
    ]


def test_locations_jsonl_malformed_lines_are_row_errors(tmp_path):
    huge = "1" + "0" * 400  # an integer no float can hold
    past_digit_limit = "1" * 5000  # int() refuses to read it
    path = _write(
        tmp_path / "l.jsonl",
        "5\n"
        '["u1", 31.5, 120.5]\n'
        f'{{"user_id": "u1", "lat": {huge}, "lon": 120.5}}\n'
        f'{{"user_id": "u1", "lat": {past_digit_limit}, "lon": 120.5}}\n'
        '{"user_id": "u1", "lat": 31.5, "lon": 120.5}\n',
    )
    locations, report = parse_location_log(path, fmt="jsonl")
    assert locations["u1"].tolist() == [[31.5, 120.5]]
    lines = [line for line, _ in report.errors]
    messages = [msg for _, msg in report.errors]
    assert lines == [1, 2, 3, 4]
    assert messages[:2] == ["expected a JSON object", "expected a JSON object"]
    assert messages[2] == f"unparseable coordinates: {int(huge)!r},120.5"
    assert messages[3].startswith("invalid JSON: ")


# ------------------------------------------------------------------- labels


def test_parse_labels_jsonl_rejects_non_scalar_values(tmp_path):
    path = _write(
        tmp_path / "lb.jsonl",
        '{"district": "H", "standard_name": "A", "candidate_name": "B", "is_alias": true}\n'
        '{"district": null, "standard_name": "A", "candidate_name": {"n": "C"}, "is_alias": 1}\n'
        '{"district": "H", "standard_name": "A", "candidate_name": "D", "is_alias": "0"}\n',
    )
    labels, report = parse_labels(path, fmt="jsonl")
    assert labels == [GroundTruthLabel("H", "A", "D", False)]
    assert report.errors == [
        (1, "expected a string or number: is_alias is a boolean"),
        (2, "expected a string or number: district is null, candidate_name is an object"),
    ]


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


def test_carriage_return_in_a_field_round_trips(tmp_path):
    records = [AddressRecord("u\r1", "J", "S", "H", "Xi\rGu"), AddressRecord("u2", "J", "S", "H", "Y")]
    path = tmp_path / "a.csv"
    write_address_records(str(path), records)
    assert path.read_text(encoding="utf-8").splitlines()[-1] == "u2,J,S,H,Y"
    assert parse_address_records(str(path))[0] == records
    labels = [GroundTruthLabel("H", "A\rB", "C", True)]
    write_labels(str(tmp_path / "lb.csv"), labels)
    assert parse_labels(str(tmp_path / "lb.csv"))[0] == labels


def _write_location_log_per_point(path, locations):
    """The per-point writer that `write_location_log` replaced."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        plain = csv.writer(fh, lineterminator="\n")
        quoted = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
        plain.writerow(LOCATION_FIELDS)
        for user_id, pts in locations.items():
            writer = quoted if "\r" in user_id else plain
            for lat, lon in np.asarray(pts, dtype=float):
                writer.writerow([user_id, repr(float(lat)), repr(float(lon))])


_AWKWARD_FLOATS = st.sampled_from([-0.0, 0.0, 5e-324, -2.2250738585072014e-309, 1e308, -1e308, 1.0 / 3])


@settings(max_examples=300, deadline=None)
@given(
    locations=st.dictionaries(
        st.text(alphabet=st.sampled_from('ab,"\r\n 东\U0001f600'), max_size=6),
        st.lists(st.tuples(st.one_of(st.floats(), _AWKWARD_FLOATS), st.one_of(st.floats(), _AWKWARD_FLOATS)), max_size=5),
        max_size=5,
    )
)
def test_location_writer_matches_the_per_point_writer(locations, tmp_path_factory):
    d = tmp_path_factory.mktemp("writer")
    arrays = {u: np.array(pts, dtype=float).reshape(-1, 2) for u, pts in locations.items()}
    write_location_log(str(d / "bulk.csv"), arrays)
    _write_location_log_per_point(str(d / "oracle.csv"), arrays)
    assert (d / "bulk.csv").read_bytes() == (d / "oracle.csv").read_bytes()


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


def test_failed_write_leaves_the_old_file_and_no_temp_file(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("old bytes\n")

    def rows():
        yield ["a", "b"]
        raise RuntimeError("row source failed")

    with pytest.raises(RuntimeError, match="row source failed"):
        write_csv(str(path), ["x", "y"], rows())
    assert path.read_text() == "old bytes\n"
    assert list(tmp_path.iterdir()) == [path]


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


def test_label_name_cleaning_to_empty_is_a_row_error(tmp_path):
    # the address "!!!" also cleans to "", so the name-lookup alone would
    # accept the label as known
    _write(
        tmp_path / "addresses.csv",
        "user_id,province,city,district,poi_name\nu1,J,S,H,Alpha\nu2,J,S,H,!!!\n",
    )
    _write(tmp_path / "locations.csv", "user_id,lat,lon\nu1,31.0,120.0\n")
    _write(
        tmp_path / "labels.csv",
        "district,standard_name,candidate_name,is_alias\n"
        "H,alpha,???,1\nH,（）,alpha,0\nH,alpha,Alpha Two,1\n",
    )
    corpus = load_corpus(str(tmp_path))
    assert [(lb.standard_name, lb.candidate_name) for lb in corpus.labels] == [
        ("alpha", "Alpha Two")
    ]
    assert corpus.reports["labels"].errors == [
        (2, "candidate_name cleans to an empty name"),
        (3, "standard_name cleans to an empty name"),
    ]
    assert [reason for _, reason in corpus.orphan_labels] == [
        "candidate_name not in district addresses"
    ]

    out = tmp_path / "chk"
    assert main(["ingest-check", str(tmp_path), "--out", str(out)]) == 0
    report = json.loads((out / "ingest_report.json").read_text())
    assert [e["message"] for e in report["files"]["labels"]["errors"]] == [
        "candidate_name cleans to an empty name",
        "standard_name cleans to an empty name",
    ]


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


# ------------------------------------------------------- parsed-corpus file


def _corpus_file(data, fmt="csv"):
    return data / ingestion.CORPUS_FILE.format(fmt=fmt)


@contextlib.contextmanager
def _no_parse():
    """Every parser patched to fail: a load inside must be a hit."""
    with contextlib.ExitStack() as stack:
        for name in ("parse_address_records", "parse_location_log", "parse_labels"):
            stack.enter_context(mock.patch.object(ingestion, name, side_effect=AssertionError(name)))
        yield


def _input_paths(data, fmt="csv"):
    return [os.path.join(data, f"{name}.{fmt}") for name in ("addresses", "locations", "labels")]


def _fresh_parse(data, fmt="csv"):
    """A parse that neither reads nor writes the corpus file."""
    paths = _input_paths(data, fmt)
    return ingestion._corpus_from_arrays(ingestion._parse_corpus(paths, fmt), paths)


def _assert_same_corpus(got, want):
    assert got.addresses == want.addresses
    # the columnar labels, and the records built from them
    assert got.strings == want.strings
    assert (got.label_ids.dtype, got.label_ids.shape) == (np.int32, (len(want.is_alias), 3))
    assert got.label_ids.tolist() == want.label_ids.tolist()
    assert (got.is_alias.dtype, got.is_alias.tolist()) == (bool, want.is_alias.tolist())
    assert got.labels == want.labels
    assert [type(lb.is_alias) for lb in got.labels] == [bool] * len(want.labels)
    assert got.districts == want.districts
    assert list(got.locations) == list(want.locations)
    for user, pts in want.locations.items():
        assert (got.locations[user].dtype, got.locations[user].shape) == (pts.dtype, pts.shape)
        assert got.locations[user].tobytes() == pts.tobytes()
    assert list(got.reports) == list(want.reports)
    assert {n: r.to_dict() for n, r in got.reports.items()} == {n: r.to_dict() for n, r in want.reports.items()}
    assert got.reports == want.reports
    assert got.orphan_labels == want.orphan_labels


# names that clean to one another, to nothing, or not at all; some hold a
# carriage return, a line feed, CJK or an astral character
_NAMES = ["Alpha", "alpha !", "ALPHA", "东京", "东京\U0001f600", "a\rb", "a\nb", "!!!", "", " beta "]
_IDS = ["u1", " u2 ", "u3", "", "东", "\U0001f600", "x\ry"]
_DISTRICTS = ["H", "G", "H", "", "东区"]
_BAD_COORD = ["nan", "inf", "95.0", "-180.5", "north", ""]


def _mostly(good, bad):
    """Three draws in four from `good`, the rest from `bad`."""
    return st.sampled_from(good) | st.sampled_from(good) | st.sampled_from(good) | st.sampled_from(bad)


def _rows(draw, *values):
    """Rows drawn field by field from `values`, with some one field short or
    long and some repeated, in shuffled order."""
    row = st.tuples(*values).map(list)
    short, long = row.map(lambda r: r[:-1]), row.map(lambda r: r + ["x"])
    rows = draw(st.lists(st.one_of(row, row, row, short, long), max_size=14))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=4))
    return draw(st.permutations(rows))


@st.composite
def _corpus_texts(draw, fmt):
    """The three input files' texts, each plain, BOM-prefixed or empty; the
    labels file may be absent (None). A label's flag is fixed by its cleaned
    names, so rows of one triple never conflict and repeats only warn."""
    name, ids, district = st.sampled_from(_NAMES), st.sampled_from(_IDS), st.sampled_from(_DISTRICTS)
    addresses = _rows(draw, ids, st.just("J"), st.just("S"), district, name)
    locations = _rows(
        draw, ids, _mostly(["31.3", "-0.0", "1e-300"], _BAD_COORD), _mostly(["120.5", "-0.0", "12"], _BAD_COORD)
    )
    labels = [
        r[:3] + [str(len(clean_text(r[1]) + clean_text(r[2])) % 2)] if r[3:] == ["flag"] else r
        for r in _rows(draw, district, name, st.sampled_from(_NAMES[::-1]), _mostly(["flag"], ["2", ""]))
        + [["H", "alpha !", "Beta", "flag"]] * draw(st.sampled_from([2, 0, 1]))  # a repeat warns
    ]
    texts = []
    for fields, rows in ((ADDRESS_FIELDS, addresses), (LOCATION_FIELDS, locations), (LABEL_FIELDS, labels)):
        if fmt == "csv":
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_ALL).writerows([fields, *rows])
            text = buf.getvalue()
        else:
            lines = [json.dumps(dict(zip(fields, row)), ensure_ascii=False) for row in rows]
            # a lone surrogate (an escape only JSON can carry), numbers,
            # nulls, and lines that hold no JSON object
            lines += draw(st.lists(st.sampled_from([
                json.dumps(dict.fromkeys(fields, "\ud800")),
                json.dumps(dict.fromkeys(fields, 7)),
                json.dumps(dict.fromkeys(fields)),
                "{", "[1]", "",
            ]), max_size=3))
            text = "".join(line + "\n" for line in lines)
        shape = draw(st.sampled_from(["plain", "plain", "bom", "empty"]))
        texts.append({"plain": text, "bom": "\ufeff" + text, "empty": ""}[shape])
    if draw(st.sampled_from([False, False, False, True])):
        texts[2] = None
    return texts


@settings(max_examples=150, deadline=None)
@given(fmt=st.sampled_from(["csv", "jsonl"]), data=st.data())
def test_a_hit_equals_a_fresh_parse(fmt, data, tmp_path_factory):
    texts = data.draw(_corpus_texts(fmt))
    root = tmp_path_factory.mktemp("hit")
    for name, text in zip(("addresses", "locations", "labels"), texts):
        if text is not None:
            (root / f"{name}.{fmt}").write_text(text, encoding="utf-8", newline="")
    fresh = load_corpus(str(root), fmt)
    assert _corpus_file(root, fmt).exists()
    with _no_parse():
        hit = load_corpus(str(root), fmt)
    _assert_same_corpus(hit, fresh)

    # both equal what the three parsers make of the same files
    addr_path, loc_path, lab_path = _input_paths(str(root), fmt)
    addresses, addr_report = parse_address_records(addr_path, fmt)
    locations, loc_report = parse_location_log(loc_path, fmt)
    if texts[2] is None:
        labels, lab_report = [], LoadReport(path=lab_path, warnings=["labels file absent"])
    else:
        labels, lab_report = parse_labels(lab_path, fmt)
    reports = {"addresses": addr_report, "locations": loc_report, "labels": lab_report}
    orphans = [(labels[row], reason) for row, reason in ingestion._find_orphans(addresses, labels)]
    for corpus in (fresh, hit):
        assert corpus.addresses == addresses
        assert corpus.labels == labels
        assert list(corpus.locations) == list(locations)
        for user, pts in locations.items():
            assert (corpus.locations[user].dtype, corpus.locations[user].shape) == (pts.dtype, pts.shape)
            assert corpus.locations[user].tobytes() == pts.tobytes()
        assert list(corpus.reports) == list(reports)
        assert corpus.reports == reports
        assert corpus.orphan_labels == orphans
        assert corpus.districts == sorted({r.district for r in addresses} | {lb.district for lb in labels})


def _tiny_corpus(data, labels="H,Alpha,Beta,1\nH,Alpha,Beta,1\nH,Alpha,Ghost,0\n"):
    """A one-district corpus with a row error in each of the first two files;
    the default labels hold a repeat and an orphan."""
    data.mkdir(exist_ok=True)
    _write(
        data / "addresses.csv",
        "user_id,province,city,district,poi_name\nu1,J,S,H,Alpha\nu2,J,S,H,Beta\n,J,S,H,X\n",
    )
    _write(data / "locations.csv", "user_id,lat,lon\nu1,31.3,120.5\nu2,31.4,120.6\nu1,95,1\nu1,31.5,120.7\n")
    if labels is not None:
        _write(data / "labels.csv", "district,standard_name,candidate_name,is_alias\n" + labels)
    return str(data)


def test_a_hit_names_the_directory_it_was_read_from(tmp_path):
    load_corpus(_tiny_corpus(tmp_path / "a"))
    moved = str(shutil.copytree(tmp_path / "a", tmp_path / "b"))
    with _no_parse():
        hit = load_corpus(moved)
    assert hit.reports["locations"].path == os.path.join(moved, "locations.csv")
    assert hit.reports["labels"].warnings == ["line 3: duplicate label for triple ('H', 'alpha', 'beta') dropped"]
    assert [reason for _, reason in hit.orphan_labels] == ["candidate_name not in district addresses"]
    _assert_same_corpus(hit, _fresh_parse(moved))


def test_an_edit_that_keeps_size_and_mtime_is_reparsed(tmp_path):
    data = _tiny_corpus(tmp_path / "d")
    assert load_corpus(data).locations["u2"].tolist() == [[31.4, 120.6]]
    path = tmp_path / "d" / "locations.csv"
    before = path.stat()
    path.write_bytes(path.read_bytes().replace(b"31.4,120.6", b"31.4,120.7"))
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    assert (path.stat().st_size, path.stat().st_mtime_ns) == (before.st_size, before.st_mtime_ns)
    assert load_corpus(data).locations["u2"].tolist() == [[31.4, 120.7]]


def test_a_labels_file_that_appears_is_parsed(tmp_path):
    data = _tiny_corpus(tmp_path / "d", labels=None)
    assert load_corpus(data).reports["labels"].warnings == ["labels file absent"]
    _write(tmp_path / "d" / "labels.csv", "district,standard_name,candidate_name,is_alias\nH,Alpha,Beta,1\n")
    assert load_corpus(data).labels == [GroundTruthLabel("H", "Alpha", "Beta", True)]


@pytest.mark.parametrize("damage", ["truncated", "garbage", "another corpus's", "pickled"])
def test_a_bad_corpus_file_is_a_miss(damage, tmp_path):
    data = _tiny_corpus(tmp_path / "d")
    load_corpus(data)
    path = _corpus_file(tmp_path / "d")
    if damage == "truncated":
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
    elif damage == "garbage":
        path.write_bytes(b"PK\x03\x04" + bytes(range(256)) * 4)
    elif damage == "another corpus's":
        other = _tiny_corpus(tmp_path / "o", labels="H,Alpha,Beta,0\n")
        load_corpus(other)
        shutil.copy(_corpus_file(tmp_path / "o"), path)
    else:
        np.savez(path, key=np.array([None], dtype=object))
    with mock.patch.object(ingestion, "parse_location_log", wraps=ingestion.parse_location_log) as parse:
        got = load_corpus(data)
    assert parse.call_count == 1
    _assert_same_corpus(got, _fresh_parse(data))
    with _no_parse():  # rewritten
        _assert_same_corpus(load_corpus(data), got)


def test_a_hit_raises_the_conflict_a_fresh_parse_raises(tmp_path):
    # lakeview, lakeviev and lakeviex cluster into lakeview, so the second
    # canonical pair's labels disagree: its first label and the earliest
    # one that differs are named, whichever path built the corpus
    data = tmp_path / "d"
    data.mkdir()
    names = ["alpha", "beta", "lakeview", "lakeview", "lakeviev", "lakeviex"]
    _write(data / "addresses.csv", "user_id,province,city,district,poi_name\n"
           + "".join(f"u{i},J,S,H,{n}\n" for i, n in enumerate(names)))
    _write(data / "locations.csv", "user_id,lat,lon\n" + "".join(f"u{i},31.3,120.5\n" for i in range(6)))
    _write(data / "labels.csv", "district,standard_name,candidate_name,is_alias\n"
           "H,alpha,beta,1\nH,alpha,lakeview,0\nH,alpha,LakeViev,0\nH,alpha,beta2,1\nH,alpha,lakeviex,1\n")
    messages = []
    for corpus in (_fresh_parse(str(data)), load_corpus(str(data))):
        with pytest.raises(ConflictingLabelError) as exc:
            build_city_data(corpus)
        messages.append(str(exc.value))
    with _no_parse():
        hit = load_corpus(str(data))
    with pytest.raises(ConflictingLabelError) as exc:
        build_city_data(hit)
    assert messages == [str(exc.value)] * 2
    assert str(exc.value) == (
        "district 'H': labels ('alpha', 'lakeview') and ('alpha', 'lakeviex') both resolve to "
        "('alpha', 'lakeview') with different is_alias values"
    )


def test_a_failed_write_still_returns_the_corpus(tmp_path):
    data = _tiny_corpus(tmp_path / "d")
    with mock.patch.object(os, "replace", side_effect=OSError(28, "No space left on device")):
        got = load_corpus(data)
    assert sorted(p.name for p in (tmp_path / "d").iterdir()) == ["addresses.csv", "labels.csv", "locations.csv"]
    _assert_same_corpus(got, _fresh_parse(data))


def test_an_input_rewritten_while_parsed_is_not_filed(tmp_path):
    data = _tiny_corpus(tmp_path / "d")
    parse_labels_first = ingestion.parse_labels

    def parse_then_rewrite(path, fmt):
        out = parse_labels_first(path, fmt)
        _write(tmp_path / "d" / "locations.csv", "user_id,lat,lon\nu9,1,2\n")
        return out

    with mock.patch.object(ingestion, "parse_labels", side_effect=parse_then_rewrite):
        load_corpus(data)
    assert not _corpus_file(tmp_path / "d").exists()
    assert list(load_corpus(data).locations) == ["u9"]


@pytest.mark.parametrize(
    "labels,error",
    [
        ("district,standard_name,candidate_name,is_alias\nH,Alpha,Beta,1\nH,alpha,BETA,0\n", ConflictingLabelError),
        ("district,standard,candidate,is_alias\nH,Alpha,Beta,1\n", InvalidConfigError),
        ("district,standard_name,candidate_name,is_alias\nH,Alpha,\"" + "B" * 200_000 + "\",1\n", InvalidConfigError),
    ],
    ids=["conflicting label", "wrong header", "oversized field"],
)
def test_a_failing_parse_writes_no_corpus_file(labels, error, tmp_path):
    data = _tiny_corpus(tmp_path / "d")
    _write(tmp_path / "d" / "labels.csv", labels)
    with pytest.raises(error):
        load_corpus(data)
    assert sorted(p.name for p in (tmp_path / "d").iterdir()) == ["addresses.csv", "labels.csv", "locations.csv"]


def test_required_labels_are_checked_before_the_corpus_file(tmp_path):
    data = _tiny_corpus(tmp_path / "d", labels=None)
    load_corpus(data)
    assert _corpus_file(tmp_path / "d").exists()
    with pytest.raises(FileNotFoundError, match="labels.csv"):
        load_corpus(data, require_labels=True)


def test_a_second_evaluate_is_a_hit_with_the_same_report(small_city, tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    for name in ("addresses.csv", "locations.csv", "labels.csv"):
        shutil.copy(os.path.join(small_city.dir, name), data / name)
    argv = ["evaluate", str(data), "--method", "jaccard", "--out"]
    assert main([*argv, str(tmp_path / "miss")]) == 0
    with mock.patch.object(ingestion, "parse_location_log", side_effect=AssertionError):
        assert main([*argv, str(tmp_path / "hit")]) == 0
    assert (tmp_path / "hit" / "report.json").read_bytes() == (tmp_path / "miss" / "report.json").read_bytes()
