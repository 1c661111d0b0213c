"""End-to-end CLI behavior: artifacts, determinism, error paths."""

import csv
import json
import os
import stat
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poialias.cli import build_parser, main
from poialias.preprocess import clean_text

SMALL_SET = [
    "--config", "n_districts=2",
    "--config", "pois_per_district=25",
    "--config", "users_per_poi=8,12",
    "--config", "points_per_user=12,20",
]


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("clidata")
    assert main(["synth", "--seed", "5", "--out", str(out)] + SMALL_SET) == 0
    return out


def test_synth_writes_dataset_and_manifest(data_dir):
    for name in ("addresses.csv", "locations.csv", "labels.csv", "truth_meta.json", "run_manifest.json"):
        assert (data_dir / name).exists()
    manifest = json.loads((data_dir / "run_manifest.json").read_text())
    assert manifest["command"] == "synth"
    assert manifest["config"]["seed"] == 5
    assert list(manifest["timings_ms"]) == ["generate"]


def test_ingest_check(data_dir, tmp_path):
    out = tmp_path / "chk"
    assert main(["ingest-check", str(data_dir), "--out", str(out)]) == 0
    report = json.loads((out / "ingest_report.json").read_text())
    assert report["files"]["addresses"]["n_errors"] == 0
    assert report["orphan_labels"] == []
    assert set(report["districts"]) == {"d00", "d01"}


def test_preprocess_emits_canonical_maps(data_dir, tmp_path):
    out = tmp_path / "pre"
    assert main(["preprocess", str(data_dir), "--out", str(out)]) == 0
    for district in ("d00", "d01"):
        path = out / f"canonical_{district}.csv"
        rows = list(csv.DictReader(open(path)))
        assert rows, district
        assert set(rows[0]) == {"raw_name", "canonical_name"}
        # idempotence: canonical names map to themselves
        mapping = {r["raw_name"]: r["canonical_name"] for r in rows}
        for canon in mapping.values():
            assert mapping.get(canon, canon) == canon


def test_discover_evaluate_happy_path(data_dir, tmp_path):
    out = tmp_path / "run"
    assert main([
        "discover", str(data_dir), "--method", "jaccard",
        "--threshold", "calibrate", "--out", str(out),
        "--dump-profiles", "--workers", "1",
    ]) == 0
    aliases = list(csv.DictReader(open(out / "aliases.csv")))
    assert set(aliases[0]) == {"district", "standard_name", "candidate_name", "score", "decision"}
    assert any(r["decision"] == "alias" for r in aliases)
    profiles = [json.loads(line) for line in (out / "profiles.jsonl").read_text().splitlines()]
    assert all(p["point_count"] >= 0 for p in profiles)

    assert main([
        "evaluate", str(data_dir), "--method", "jaccard", "--out", str(out),
        "--workers", "1",
    ]) == 0
    report = json.loads((out / "report.json").read_text())
    assert 0.0 <= report["report"]["f1"] <= 1.0
    assert report["report"]["f1"] > 0.5


def test_missing_locations_file_fails_with_path(tmp_path, capsys):
    data = tmp_path / "broken"
    data.mkdir()
    (data / "addresses.csv").write_text(
        "user_id,province,city,district,poi_name\nu1,J,S,H,X\n"
    )
    rc = main(["discover", str(data), "--method", "centroid", "--threshold", "1.0",
               "--out", str(tmp_path / "o")])
    assert rc != 0
    err = capsys.readouterr().err
    assert "locations.csv" in err


def test_report_is_deterministic_and_timing_free(data_dir, tmp_path):
    out = tmp_path / "same"
    outs = []
    for _ in range(2):
        assert main([
            "evaluate", str(data_dir), "--method", "jaccard", "--out", str(out),
            "--workers", "2",
        ]) == 0
        outs.append((out / "report.json").read_bytes())
    assert outs[0] == outs[1]
    assert b"timings" not in outs[0]


def test_report_does_not_depend_on_the_host_cpu_count(data_dir, tmp_path, monkeypatch):
    def report_bytes(out):
        assert main(["evaluate", str(data_dir), "--method", "centroid", "--out", str(out)]) == 0
        return (out / "report.json").read_bytes()

    plain = report_bytes(tmp_path / "same")
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert report_bytes(tmp_path / "same") == plain


def test_report_does_not_depend_on_paths_or_workers(data_dir, tmp_path):
    reports = []
    for copy, workers in (("a", "1"), ("b", "2")):
        data = tmp_path / copy / "data"
        data.mkdir(parents=True)
        for name in ("addresses.csv", "locations.csv", "labels.csv"):
            (data / name).write_bytes((data_dir / name).read_bytes())
        out = tmp_path / copy / "out"
        assert main([
            "evaluate", str(data), "--method", "kl", "--out", str(out), "--workers", workers,
        ]) == 0
        reports.append((out / "report.json").read_bytes())
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["config"]["data"] == str(data)
        assert manifest["config"]["workers"] == int(workers)
    assert reports[0] == reports[1]
    config = json.loads(reports[0])["report"]["config"]
    assert not {"data", "out", "workers"} & set(config)


def test_no_temp_artifacts_left_behind(data_dir, tmp_path):
    out = tmp_path / "clean"
    assert main(["evaluate", str(data_dir), "--method", "centroid", "--out", str(out)]) == 0
    leftovers = [p for p in out.iterdir() if p.suffix == ".tmp"]
    assert leftovers == []


def test_crossval_cli(data_dir, tmp_path):
    out = tmp_path / "cv"
    assert main([
        "crossval", str(data_dir), "--method", "jaccard",
        "--train-frac", "0.8", "--out", str(out),
    ]) == 0
    report = json.loads((out / "report.json").read_text())
    assert len(report["report"]["folds"]) == 2  # two districts: 1/1 folds
    assert "mean_f1" in report["report"]


def test_transfer_cli(data_dir, tmp_path):
    tgt = tmp_path / "tgtdata"
    assert main(["synth", "--seed", "6", "--out", str(tgt)] + SMALL_SET) == 0
    out = tmp_path / "tr"
    assert main([
        "transfer", "--source", str(data_dir), "--target", str(tgt),
        "--method", "jaccard", "--out", str(out),
    ]) == 0
    report = json.loads((out / "report.json").read_text())
    assert "source" in report["report"] and "target" in report["report"]


def test_sweep_cli(data_dir, tmp_path):
    out = tmp_path / "sw"
    assert main([
        "sweep", str(data_dir), "--method", "jaccard",
        "--grids", "20,50", "--out", str(out),
    ]) == 0
    rows = list(csv.DictReader(open(out / "sweep.csv")))
    assert [r["grid_n"] for r in rows] == ["20", "50"]
    assert set(rows[0]) == {"grid_n", "method", "precision", "recall", "f1"}


def _write_corpus(root, names_by_user, labels):
    """A one-district corpus: one address and one GPS point per (user, name)."""
    root.mkdir()
    (root / "addresses.csv").write_text(
        "user_id,province,city,district,poi_name\n"
        + "".join(f"{u},J,S,H,{n}\n" for u, n in names_by_user)
    )
    (root / "locations.csv").write_text(
        "user_id,lat,lon\n" + "".join(f"{u},31.0,120.0\n" for u, _ in names_by_user)
    )
    (root / "labels.csv").write_text(
        "district,standard_name,candidate_name,is_alias\n"
        + "".join(f"H,{s},{c},{a}\n" for s, c, a in labels)
    )


def test_editdist_threshold_means_distance_cutoff(tmp_path):
    # distances to the standard: 0.2 (below the cutoff 0.3), 0.3 (at it),
    # 0.5 (between the cutoff and 1 - cutoff) and 0.8 (above 1 - cutoff)
    std = "abcdefghij"
    distance = {"abcdefghxy": 0.2, "abcdefgxyz": 0.3, "abcdevwxyz": 0.5, "abqrstuvwz": 0.8}
    data = tmp_path / "ed"
    _write_corpus(
        data,
        [(f"u{i}", n) for i, n in enumerate([std, *distance])],
        [(std, cand, int(d < 0.3)) for cand, d in distance.items()],
    )
    from poialias.preprocess import normalized_edit_distance

    assert {c: normalized_edit_distance(std, c) for c in distance} == distance
    # a low cluster threshold keeps every spelling its own name
    opts = ["--method", "editdist", "--threshold", "0.3", "--cluster-threshold", "0.05"]
    out = tmp_path / "out"
    assert main(["discover", str(data), *opts, "--out", str(out)]) == 0
    rows = list(csv.DictReader(open(out / "aliases.csv")))
    assert {r["candidate_name"]: r["decision"] for r in rows} == {
        c: "alias" if d < 0.3 else "not-alias" for c, d in distance.items()
    }
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["config"]["resolved_theta"] == 1.0 - 0.3

    assert main(["evaluate", str(data), *opts, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())["report"]
    assert (report["true_positive"], report["predicted_positive"]) == (1, 1)
    assert report["f1"] == 1.0


@pytest.mark.parametrize(
    "command,method,raw,message",
    [
        ("discover", "jaccard", "high", "--threshold must be a number or 'calibrate', got 'high'"),
        ("discover", "jaccard", "nan", "threshold must be finite, got nan"),
        ("evaluate", "centroid", "inf", "threshold must be finite, got inf"),
        ("discover", "centroid", "-inf", "threshold must be finite, got -inf"),
        # an editdist cutoff is reported in score space, 1 - cutoff
        ("evaluate", "editdist", "inf", "threshold must be finite, got -inf"),
    ],
)
def test_invalid_threshold_fails_before_ingest(command, method, raw, message, tmp_path, capsys):
    out = tmp_path / "o"
    # "--threshold=-inf": argparse would read a separate "-inf" as an option
    rc = main([command, str(tmp_path / "absent"), "--method", method,
               f"--threshold={raw}", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"error: command={command} {message}" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command,option,message",
    [
        ("crossval", "--train-frac=nan", "--train-frac must lie in (0, 1], got nan"),
        ("crossval", "--train-frac=0", "--train-frac must lie in (0, 1], got 0.0"),
        ("crossval", "--train-frac=-0.5", "--train-frac must lie in (0, 1], got -0.5"),
        ("crossval", "--train-frac=1.5", "--train-frac must lie in (0, 1], got 1.5"),
        ("evaluate", "--min-profile-points=0", "min_profile_points must be >= 1, got 0"),
        # every tunable is checked whatever the method reads
        ("evaluate", "--method=centroid --kl-epsilon=nan", "kl_epsilon must be finite and positive, got nan"),
        ("evaluate", "--method=centroid --local-window-m=inf", "local_window_m must be finite and positive, got inf"),
        ("evaluate", "--method=centroid --grid-n=-3", "grid_n must be >= 1, got -3"),
        ("discover", "--method=editdist --local-window-m=0", "local_window_m must be finite and positive, got 0.0"),
        ("evaluate", "--method=kl --kl-epsilon=inf", "kl_epsilon must be finite and positive, got inf"),
        ("evaluate", "--method=loccent --local-window-m=inf", "local_window_m must be finite and positive, got inf"),
        ("crossval", "--method=jaccard --kl-epsilon=-1", "kl_epsilon must be finite and positive, got -1.0"),
    ],
)
def test_invalid_option_fails_before_ingest(command, option, message, tmp_path, capsys):
    out = tmp_path / "o"
    # a later --method=... in `option` overrides this one
    rc = main([command, str(tmp_path / "absent"), "--method", "jaccard", *option.split(), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: command={command} {message}\n"
    assert not out.exists()


def test_district_without_gps_is_insufficient_under_every_method(tmp_path):
    # district A: six points per user, "omega" on "kappa"'s spot and
    # "sigma" 5 km away; district B: no writer has a location row
    data = tmp_path / "nogps"
    data.mkdir()
    users = [("a1", "A", "kappa"), ("a2", "A", "omega"), ("a3", "A", "sigma"),
             ("b1", "B", "delta"), ("b2", "B", "theta"), ("b3", "B", "lambda")]
    (data / "addresses.csv").write_text(
        "user_id,province,city,district,poi_name\n"
        + "".join(f"{u},J,S,{d},{n}\n" for u, d, n in users)
    )
    spot = {"a1": (31.0, 120.0), "a2": (31.0, 120.0), "a3": (31.05, 120.05)}
    (data / "locations.csv").write_text(
        "user_id,lat,lon\n"
        + "".join(f"{u},{lat + k * 1e-5},{lon}\n" for u, (lat, lon) in spot.items() for k in range(6))
    )
    (data / "labels.csv").write_text(
        "district,standard_name,candidate_name,is_alias\n"
        "A,kappa,omega,1\nA,kappa,sigma,0\nB,delta,theta,1\nB,delta,lambda,0\n"
    )
    for method in ("centroid", "loccent", "kl", "jaccard", "editdist"):
        out = tmp_path / method
        assert main(["evaluate", str(data), "--method", method, "--out", str(out)]) == 0, method
        report = json.loads((out / "report.json").read_text())["report"]
        b = report["per_district"]["B"]
        assert (report["actual_positive"], b["actual_positive"]) == (2, 1), method
        if method == "editdist":
            continue  # text needs no GPS
        # B's two labeled pairs are unscored, and its positive is missed
        assert (report["n_insufficient"], b["n_insufficient"]) == (2, 2), method
        assert (b["true_positive"], b["recall"]) == (0, 0.0), method
        assert (report["true_positive"], report["predicted_positive"]) == (1, 1), method
        assert report["recall"] == 0.5, method


STAGES = {
    "ingest-check": ["ingest", "write"],
    "preprocess": ["ingest", "write"],
    "discover": ["ingest", "score", "calibrate", "write"],
    "evaluate": ["ingest", "score", "calibrate", "evaluate", "write"],
    "crossval": ["ingest", "score", "evaluate", "write"],
    "transfer": ["ingest", "score", "evaluate", "write"],
    "sweep": ["ingest", "sweep", "write"],
}


@pytest.mark.parametrize("command", sorted(STAGES))
def test_manifest_echoes_every_option(command, data_dir, tmp_path):
    out = tmp_path / "m"
    if command == "transfer":
        argv = [command, "--source", str(data_dir), "--target", str(data_dir)]
    else:
        argv = [command, str(data_dir)]
    if command not in ("ingest-check", "preprocess"):
        argv += ["--method", "jaccard"]
    argv += ["--out", str(out), "--workers", "1"]
    assert main(argv) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    expected = dict(vars(build_parser().parse_args(argv)))
    for key in ("func", "command", "verbose"):
        del expected[key]
    if command == "discover":
        expected["resolved_theta"] = manifest["config"]["resolved_theta"]
    assert manifest["command"] == command
    assert manifest["config"] == json.loads(json.dumps(expected))
    assert sorted(manifest["timings_ms"]) == sorted(STAGES[command])


def test_existing_temp_file_of_the_same_path_survives(data_dir, tmp_path):
    out = tmp_path / "keep"
    out.mkdir()
    stale = out / "aliases.csv.tmp"
    stale.write_text("another writer's bytes")
    old = os.umask(0o027)
    try:
        assert main(["discover", str(data_dir), "--method", "centroid", "--out", str(out)]) == 0
    finally:
        os.umask(old)
    assert stale.read_text() == "another writer's bytes"
    assert [p.name for p in out.iterdir() if p.suffix == ".tmp"] == ["aliases.csv.tmp"]
    for name in ("aliases.csv", "run_manifest.json"):
        assert stat.S_IMODE((out / name).stat().st_mode) == 0o640


def test_unknown_synth_key_fails(tmp_path, capsys):
    rc = main(["synth", "--seed", "1", "--out", str(tmp_path / "x"),
               "--config", "bogus_key=3"])
    assert rc != 0
    assert "bogus_key" in capsys.readouterr().err


@pytest.mark.parametrize(
    "item, named",
    [("n_districts=two", "n_districts"), ("typo_rate=low", "typo_rate"),
     ("users_per_poi=8", "users_per_poi"), ("users_per_poi=8,x", "users_per_poi"),
     ("seed=3", "seed")],
)
def test_bad_synth_value_fails_with_its_key(tmp_path, capsys, item, named):
    rc = main(["synth", "--seed", "1", "--out", str(tmp_path / "x"), "--config", item])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: command=synth") and named in err


@pytest.mark.parametrize(
    "item, message",
    [
        ("home_scatter_m=-5", "home_scatter_m must be finite and non-negative, got -5.0"),
        ("home_scatter_m=nan", "home_scatter_m must be finite and non-negative, got nan"),
        ("district_extent_m=inf", "district_extent_m must be finite and positive, got inf"),
        ("min_separation_m=inf", "min_separation_m must be finite and non-negative, got inf"),
        ("base_lat=inf", "base_lat must be finite and lie in [-90, 90], got inf"),
        ("base_lon=nan", "base_lon must be finite and lie in [-180, 180], got nan"),
        ("base_lat=95", "base_lat must be finite and lie in [-90, 90], got 95.0"),
    ],
)
def test_bad_synth_geometry_fails_before_generation(tmp_path, capsys, item, message):
    out = tmp_path / "x"
    rc = main(["synth", "--seed", "1", "--out", str(out), "--config", item])
    assert rc == 1
    assert capsys.readouterr().err == f"error: command=synth {message}\n"
    assert not out.exists()


def test_bad_sweep_grids_fail_with_the_value(data_dir, tmp_path, capsys):
    rc = main(["sweep", str(data_dir), "--method", "jaccard", "--grids", "20,x",
               "--out", str(tmp_path / "sw")])
    assert rc == 1
    assert "--grids expects comma-separated integers, got '20,x'" in capsys.readouterr().err


def test_density_dump(data_dir, tmp_path):
    out = tmp_path / "dd"
    assert main([
        "discover", str(data_dir), "--method", "jaccard", "--threshold", "2.0",
        "--out", str(out), "--dump-density", "--grid-n", "20",
    ]) == 0
    rows = list(csv.DictReader(open(out / "density.csv")))
    assert rows
    assert set(rows[0]) == {"district", "name", "row", "col", "count"}
    assert all(0 <= int(r["row"]) < 20 and 0 <= int(r["col"]) < 20 for r in rows)


@pytest.mark.parametrize(
    "fmt, district, file_name",
    [
        ("csv", "/../../escaped", "canonical_%2F..%2F..%2Fescaped.csv"),
        ("csv", "a%2Fb", "canonical_a%252Fb.csv"),
        ("jsonl", "d\0x%", "canonical_d%00x%25.csv"),
    ],
)
def test_each_district_map_is_one_file_directly_under_out(fmt, district, file_name, tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    if fmt == "csv":
        (data / "addresses.csv").write_text(f"user_id,province,city,district,poi_name\nu1,J,S,{district},kappa\n")
        (data / "locations.csv").write_text("user_id,lat,lon\nu1,31.0,120.0\n")
    else:
        row = {"user_id": "u1", "province": "J", "city": "S", "district": district, "poi_name": "kappa"}
        (data / "addresses.jsonl").write_text(json.dumps(row) + "\n")
        (data / "locations.jsonl").write_text(json.dumps({"user_id": "u1", "lat": 31.0, "lon": 120.0}) + "\n")
    run = tmp_path / "run"
    assert main(["preprocess", str(data), "--format", fmt, "--out", str(run / "out")]) == 0
    assert [p.name for p in run.iterdir()] == ["out"]
    assert sorted(p.name for p in (run / "out").iterdir()) == [file_name, "run_manifest.json"]
    with open(run / "out" / file_name, newline="", encoding="utf-8") as fh:
        assert list(csv.reader(fh)) == [["raw_name", "canonical_name"], ["kappa", "kappa"]]


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


_AWKWARD_TEXT = st.text(alphabet=st.sampled_from('ab\r\n",东京\U0001f600'), max_size=6)


@settings(max_examples=30, deadline=None)
@given(district=_AWKWARD_TEXT, standard=_AWKWARD_TEXT, candidate=_AWKWARD_TEXT)
def test_every_csv_artifact_reads_back_as_written(district, standard, candidate, tmp_path_factory):
    # the prefixes keep each name non-empty and the two cleaned names distinct
    district, standard, candidate = "d" + district, "a" + standard, "b" + candidate
    root = tmp_path_factory.mktemp("awkward")
    data = root / "data"
    data.mkdir()
    writers = {"u1": standard, "u2": candidate}
    (data / "addresses.jsonl").write_text("".join(
        json.dumps({"user_id": u, "province": "J", "city": "S", "district": district, "poi_name": n}) + "\n"
        for u, n in writers.items()
    ))
    (data / "locations.jsonl").write_text("".join(
        json.dumps({"user_id": u, "lat": 31.0 + k * 1e-4, "lon": 120.0 + i * 1e-3}) + "\n"
        for i, u in enumerate(writers) for k in range(6)
    ))
    label = {"district": district, "standard_name": standard, "candidate_name": candidate, "is_alias": "1"}
    (data / "labels.jsonl").write_text(json.dumps(label) + "\n")
    opts = ["--format", "jsonl", "--cluster-threshold", "0.01"]
    out = root / "out"
    assert main(["preprocess", str(data), *opts, "--out", str(out)]) == 0
    assert main(["discover", str(data), *opts, "--method", "jaccard", "--threshold", "1.0",
                 "--dump-density", "--out", str(out)]) == 0

    # every field is stored trimmed
    district, raw = district.strip(), sorted({standard.strip(), candidate.strip()})
    std, cand = clean_text(standard.strip()), clean_text(candidate.strip())
    [canonical] = [p for p in out.iterdir() if p.name.startswith("canonical_")]
    assert canonical.name == f"canonical_{district}.csv"
    assert _read_csv(canonical) == [["raw_name", "canonical_name"]] + [[r, clean_text(r)] for r in raw]
    header, *aliases = _read_csv(out / "aliases.csv")
    assert [row[:3] for row in aliases] == [[district, std, cand]]
    assert len(aliases[0]) == len(header) == 5
    header, *cells = _read_csv(out / "density.csv")
    assert cells and {(row[0], row[1], len(row)) for row in cells} <= {(district, std, 5), (district, cand, 5)}


_METHODS = ("centroid", "loccent", "kl", "jaccard", "editdist")


def _shuffled_copy(src, dst, fmt, rng):
    """The three input files of `src` with their rows shuffled, as CSV or JSONL."""
    dst.mkdir()
    for name in ("addresses", "locations", "labels"):
        header, *rows = _read_csv(os.path.join(src, f"{name}.csv"))
        rows = [rows[i] for i in rng.permutation(len(rows))]
        with open(dst / f"{name}.{fmt}", "w", newline="", encoding="utf-8") as fh:
            if fmt == "csv":
                csv.writer(fh, lineterminator="\n").writerows([header, *rows])
            else:
                fh.writelines(json.dumps(dict(zip(header, row))) + "\n" for row in rows)


def test_reports_do_not_depend_on_row_order_or_format(small_city, tmp_path):
    rng = np.random.default_rng(11)
    _shuffled_copy(small_city.dir, tmp_path / "shuffled", "csv", rng)
    _shuffled_copy(small_city.dir, tmp_path / "jsonl", "jsonl", rng)
    inputs = [(small_city.dir, "csv"), (str(tmp_path / "shuffled"), "csv"), (str(tmp_path / "jsonl"), "jsonl")]
    for method in _METHODS:
        outputs = []
        for k, (data, fmt) in enumerate(inputs):
            out = tmp_path / method / str(k)
            opts = [data, "--method", method, "--format", fmt]
            assert main(["evaluate", *opts, "--out", str(out / "evaluate")]) == 0
            assert main(["crossval", *opts, "--out", str(out / "crossval")]) == 0
            assert main(["discover", *opts, "--out", str(out / "discover")]) == 0
            # a report's config echoes --format, the one field it may change
            outputs.append([
                (out / name).read_bytes().replace(b'"format": "jsonl"', b'"format": "csv"')
                for name in ("evaluate/report.json", "crossval/report.json", "discover/aliases.csv")
            ])
        assert outputs[1] == outputs[0], method
        assert outputs[2] == outputs[0], method
