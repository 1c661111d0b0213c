"""End-to-end CLI behavior: artifacts, determinism, error paths."""

import csv
import hashlib
import json
import math
import os
import shutil
import stat
import subprocess
import sys
import tracemalloc
from collections import deque
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poialias import cli, pipeline
from poialias.cli import build_parser, main
from poialias.discovery import (
    DECISION_ALIAS,
    DECISION_INSUFFICIENT,
    DECISION_NOT_ALIAS,
    ScoreTable,
)
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


def test_help_lists_every_command(monkeypatch):
    monkeypatch.setenv("COLUMNS", "160")  # one line per command
    listing = build_parser().format_help().split("positional arguments:\n")[1].split("\n\n")[0]
    assert listing.splitlines()[1:] == [
        "    synth               generate a seeded synthetic city",
        "    ingest-check        parse inputs and report row errors and orphans",
        "    preprocess          emit per-district canonical name maps",
        "    discover            score every standard-candidate pair and write aliases.csv",
        "    evaluate            report precision, recall and F1 against the labels",
        "    crossval            calibrate on some districts, evaluate on the held-out rest",
        "    transfer            calibrate on a source city, evaluate on a target city",
        "    sweep               calibrate and evaluate across grid resolutions",
    ]


def _printed_by(code: str, **env: str) -> str:
    """The last line `code` prints in a fresh interpreter, whose environment
    lacks OPENBLAS_NUM_THREADS unless `env` sets it."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env={**base, **env, "PYTHONPATH": src}, timeout=300, check=True,
    )
    return proc.stdout.splitlines()[-1]


def _modules_after(code: str) -> set[str]:
    """The modules loaded once `code` has run in a fresh interpreter."""
    return set(_printed_by(f"{code}\nimport sys\nprint(' '.join(sys.modules))").split())


def test_cli_import_loads_no_rational_arithmetic():
    assert not {"fractions", "decimal"} & _modules_after("import poialias.cli")


_CLI_THEN = "import os\nimport poialias.cli\n"


def test_cli_import_starts_numpy_with_one_blas_thread():
    assert _printed_by(_CLI_THEN + "print(os.environ['OPENBLAS_NUM_THREADS'])") == "1"


def test_cli_import_keeps_the_callers_blas_threads():
    assert _printed_by(_CLI_THEN + "print(os.environ['OPENBLAS_NUM_THREADS'])", OPENBLAS_NUM_THREADS="3") == "3"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_cli_import_leaves_one_thread():
    assert _printed_by(_CLI_THEN + "print(len(os.listdir('/proc/self/task')))") == "1"


def test_cli_import_loads_no_synth():
    assert "poialias.synth" not in _modules_after("import poialias.cli")


def test_cli_import_leaves_the_collector_as_it_was():
    assert _printed_by("import gc\nimport poialias.cli\nprint(gc.isenabled(), gc.get_freeze_count())") == "True 0"


def test_the_entry_point_freezes_the_import_heap_and_main_does_not():
    # main() runs as the tests and the traced benchmark call it, in-process
    code = (
        "import contextlib, gc, io, sys\nfrom poialias.cli import entry, main\n"
        "sys.argv = ['poialias', '--help']\n"
        "frozen = []\n"
        "for run in (main, entry):\n"
        "    with contextlib.suppress(SystemExit), contextlib.redirect_stdout(io.StringIO()):\n"
        "        run()\n"
        "    frozen.append(gc.get_freeze_count() > 0)\n"
        "print(frozen)"
    )
    assert _printed_by(code) == "[False, True]"


#: what no command but synth, or a pool of --workers, needs: OpenSSL (the
#: city key is the builtin BLAKE2b), the generator, the pool and uuid
_LOADED_ONLY_WHEN_USED = {"_hashlib", "ssl", "poialias.synth", "concurrent.futures", "uuid"}


@pytest.fixture(scope="module")
def numpy_modules():
    """What `import numpy` loads by itself: under numpy < 2 that includes
    OpenSSL (numpy.random imports secrets, which imports hashlib)."""
    return _modules_after("import numpy")


@pytest.mark.parametrize(
    "argv",
    [["evaluate", "--method", m] for m in ("centroid", "loccent", "kl", "jaccard", "editdist")]
    + [["discover", "--method", "kl"], ["sweep", "--method", "jaccard", "--grids", "20,50"],
       ["crossval", "--method", "centroid"], ["ingest-check"]],
    ids=lambda argv: "-".join(argv[:3:2]),
)
def test_a_command_loads_only_what_it_runs(argv, data_dir, numpy_modules, tmp_path):
    data = tmp_path / "d"
    shutil.copytree(data_dir, data, ignore=shutil.ignore_patterns(".poialias-*"))
    run = [argv[0], str(data), *argv[1:], "--out", str(tmp_path / "o")]
    code = f"from poialias.cli import main\nfor _ in ('miss', 'hit'):\n    assert main({run!r}) == 0"
    loaded = _modules_after(code)
    assert list(data.glob(".poialias-city.*")), "the miss wrote no city file, so the rerun was no hit"
    assert sorted(_LOADED_ONLY_WHEN_USED & (loaded - numpy_modules)) == []


def test_file_digest_is_the_blake2b_of_the_bytes(tmp_path):
    path = tmp_path / "abc"
    path.write_bytes(b"abc")  # the BLAKE2b-512 example of RFC 7693, appendix A
    assert pipeline._file_digest(str(path)) == (
        "ba80a53f981c4d0d6a2797b69f12f6e94c212f14685ac4b74b12bb6fdbffa2d1"
        "7d87c5392aab792dc252d5de4533cc9518d38aa8dbf1925ab92386edd4009923"
    )
    path.write_bytes(bytes(range(256)) * 5000)  # more than one read chunk
    assert pipeline._file_digest(str(path)) == hashlib.blake2b(path.read_bytes()).hexdigest()
    assert pipeline._file_digest(str(tmp_path / "absent")) is None


def test_synth_without_a_seed_uses_the_library_seed(tmp_path):
    from poialias.synth import SynthConfig

    assert main(["synth", "--out", str(tmp_path / "s")] + SMALL_SET) == 0
    manifest = json.loads((tmp_path / "s" / "run_manifest.json").read_text())
    assert manifest["config"]["seed"] == SynthConfig.seed


def test_manifest_records_the_peak_memory_beside_the_counts(data_dir, tmp_path):
    out = tmp_path / "ev"
    assert main(["evaluate", str(data_dir), "--method", "kl", "--out", str(out)]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["peak_rss_mb"] > 0
    assert "peak_rss_mb" not in manifest["counts"]
    assert b"peak_rss_mb" not in (out / "report.json").read_bytes()


def test_manifest_omits_the_peak_memory_without_resource(data_dir, tmp_path):
    out = tmp_path / "ev"
    with mock.patch.dict(sys.modules, {"resource": None}):  # import resource raises ImportError
        assert main(["evaluate", str(data_dir), "--method", "kl", "--out", str(out)]) == 0
    assert "peak_rss_mb" not in json.loads((out / "run_manifest.json").read_text())


def test_package_import_loads_no_numpy():
    assert "numpy" not in _modules_after("import poialias")


def test_evaluate_loads_no_masked_arrays(data_dir, tmp_path):
    argv = ["evaluate", str(data_dir), "--method", "jaccard", "--out", str(tmp_path / "ev")]
    assert "numpy.ma" not in _modules_after(f"from poialias.cli import main\nassert main({argv!r}) == 0")


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


def test_sweep_reports_name_the_method_as_given(data_dir, tmp_path):
    out = tmp_path / "sw"
    assert main(["sweep", str(data_dir), "--method", "kl", "--grids", "20,50", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["method"] == "kl"
    assert [r["report"]["method"] for r in report["results"]] == ["kl", "kl"]
    assert [r["method"] for r in csv.DictReader(open(out / "sweep.csv"))] == ["kl", "kl"]


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
        ("evaluate", "--method=kl --cluster-threshold=nan", "cluster threshold must lie in (0, 1), got nan"),
        ("evaluate", "--cluster-threshold=0", "cluster threshold must lie in (0, 1), got 0.0"),
        ("evaluate", "--cluster-threshold=1", "cluster threshold must lie in (0, 1), got 1.0"),
        ("discover", "--cluster-threshold=nan", "cluster threshold must lie in (0, 1), got nan"),
        ("sweep", "--cluster-threshold=1", "cluster threshold must lie in (0, 1), got 1.0"),
        ("crossval", "--cluster-threshold=-0.2", "cluster threshold must lie in (0, 1), got -0.2"),
        # every grid is checked, not only the first
        ("sweep", "--grids=0,20", "grid_n must be >= 1, got 0"),
        ("sweep", "--grids=20,-3", "grid_n must be >= 1, got -3"),
        # past isqrt(2**63 - 1) a flat cell index overflows int64
        ("sweep", "--grids=20,4000000000", "grid_n must be at most 3037000499, got 4000000000"),
        # a repeated grid would be scored twice and written as two identical rows
        ("sweep", "--grids=20,50,020", "--grids lists a grid more than once, got '20,50,020'"),
    ],
)
def test_invalid_option_fails_before_ingest(command, option, message, tmp_path, capsys):
    out = tmp_path / "o"
    # a later --method=... in `option` overrides this one
    rc = main([command, str(tmp_path / "absent"), "--method", "jaccard", *option.split(), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: command={command} {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["preprocess", "{absent}", "--cluster-threshold=nan"],
        ["transfer", "--source", "{absent}", "--target", "{absent}", "--method", "kl", "--cluster-threshold=0"],
    ],
    ids=["preprocess", "transfer"],
)
def test_cluster_threshold_fails_before_ingest_without_a_metric(argv, tmp_path, capsys):
    out = tmp_path / "o"
    argv = [a.replace("{absent}", str(tmp_path / "absent")) for a in argv]
    assert main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: command={argv[0]} cluster threshold must lie in (0, 1)")
    assert not out.exists()


@pytest.mark.parametrize(
    "option", ["--kl-epsilon=nan", "--local-window-m=100", "--grid-n=50", "--min-profile-points=3"]
)
def test_preprocess_takes_no_scoring_tunables(option, data_dir, tmp_path, capsys):
    # preprocess scores nothing: a scoring tunable would only be echoed,
    # unchecked, into its manifest
    out = tmp_path / "p"
    with pytest.raises(SystemExit) as exc:
        main(["preprocess", str(data_dir), option, "--out", str(out)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["synth", "ingest-check", "preprocess"])
def test_commands_that_score_nothing_take_no_workers(command, data_dir, tmp_path, capsys):
    argv = [command] if command == "synth" else [command, str(data_dir)]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--workers", "1", "--out", str(tmp_path / "w")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --workers 1" in capsys.readouterr().err


def test_subnormal_kl_epsilon_fails_before_ingest(data_dir, tmp_path, capsys):
    # 1 / 1e-320 overflows: every divergence would clamp and every pair link
    out = tmp_path / "sub"
    rc = main(["discover", str(data_dir), "--method", "kl", "--kl-epsilon", "1e-320", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: command=discover kl_epsilon must be at least 2.2250738585072014e-308 "
        "(the smallest normal float), got 1e-320\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "argv,message",
    [
        # the default grid_n is 50: 1e306 * 50**2 overflows
        (["discover", "--method", "kl", "--kl-epsilon", "1e306"], "kl_epsilon=1e+306 and grid_n=50"),
        # 1e303 * 20**2 .. 1e303 * 300**2 are finite; only grid 500 overflows
        (["sweep", "--method", "kl", "--kl-epsilon", "1e303"], "kl_epsilon=1e+303 and grid_n=500"),
    ],
    ids=["discover", "sweep"],
)
def test_an_overflowing_kl_epsilon_fails_before_ingest(argv, message, data_dir, tmp_path, monkeypatch, capsys):
    # epsilon * grid_n**2 past the largest float floors every smoothed cell
    # to 0, whose log would raise deep in scoring
    def no_ingest(*args, **kwargs):
        raise AssertionError("input read")

    monkeypatch.setattr(cli, "load_city", no_ingest)
    out = tmp_path / "eps"
    assert main([argv[0], str(data_dir), *argv[1:], "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: command={argv[0]} kl_epsilon * grid_n**2 must be finite, got {message}\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_non_utf8_input_fails_with_the_file_line_and_byte(fmt, tmp_path, capsys):
    # a GBK export: the bad byte lies past the first 8 KiB the decoder reads
    data = tmp_path / "gbk"
    data.mkdir()
    fields = ["user_id", "province", "city", "district", "poi_name"]
    rows = [[f"u{i}", "J", "S", "d0", f"poi{i % 7}"] for i in range(600)] + [["u600", "J", "S", "d0", "西湖公园"]]
    if fmt == "csv":
        lines = [",".join(fields)] + [",".join(r) for r in rows]
    else:
        lines = [json.dumps(dict(zip(fields, r)), ensure_ascii=False) for r in rows]
    text = "".join(line + "\n" for line in lines)
    (data / f"addresses.{fmt}").write_bytes(text.encode("gbk"))
    (data / f"locations.{fmt}").write_text(
        "user_id,lat,lon\nu1,31.0,120.0\n" if fmt == "csv"
        else json.dumps({"user_id": "u1", "lat": 31.0, "lon": 120.0}) + "\n"
    )
    (data / f"labels.{fmt}").write_text(
        "district,standard_name,candidate_name,is_alias\nd0,poi1,poi2,0\n" if fmt == "csv"
        else json.dumps({"district": "d0", "standard_name": "poi1", "candidate_name": "poi2", "is_alias": "0"}) + "\n"
    )
    line_no = len(lines)
    offset = len("".join(line + "\n" for line in lines[:-1]).encode()) + lines[-1].index("西")
    assert offset > 8192
    for command in (["ingest-check"], ["evaluate", "--method", "centroid"]):
        rc = main([command[0], str(data), *command[1:], "--format", fmt, "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: command={command[0]} {data / f'addresses.{fmt}'}:{line_no}: byte {offset}: "
            "not UTF-8; convert GBK/GB18030 exports to UTF-8\n"
        )
    assert not [p.name for p in data.iterdir() if p.name.startswith(".poialias-")]


def test_a_read_only_data_directory_still_succeeds(data_dir, tmp_path, monkeypatch):
    writable, data = tmp_path / "rw", tmp_path / "ro"
    for copy in (writable, data):
        _copy_inputs(data_dir, copy)
    assert main(["evaluate", str(writable), "--method", "kl", "--out", str(tmp_path / "o-rw")]) == 0
    assert (writable / ".poialias-city.csv.npz").exists()
    open_file = os.open

    def no_create_in_data(path, flags, *rest, **kw):
        # the mode alone does not stop a process running as root
        if flags & os.O_CREAT and os.path.dirname(os.fspath(path)) == str(data):
            raise PermissionError(13, "Permission denied", path)
        return open_file(path, flags, *rest, **kw)

    monkeypatch.setattr(os, "open", no_create_in_data)
    data.chmod(0o555)
    try:
        for k in range(2):
            assert main(["evaluate", str(data), "--method", "kl", "--out", str(tmp_path / f"o-ro{k}")]) == 0
    finally:
        data.chmod(0o755)
    assert sorted(p.name for p in data.iterdir()) == ["addresses.csv", "labels.csv", "locations.csv"]
    want = (tmp_path / "o-rw" / "report.json").read_bytes()
    for k in range(2):
        assert (tmp_path / f"o-ro{k}" / "report.json").read_bytes() == want


def test_a_missing_labels_file_fails_before_either_file_is_read(data_dir, tmp_path, monkeypatch, capsys):
    data = tmp_path / "d"
    _copy_inputs(data_dir, data)
    (data / "labels.csv").unlink()
    argv = ["--method", "kl", "--out", str(tmp_path / "o")]
    assert main(["discover", str(data), *argv, "--threshold", "1"]) == 0
    assert sorted(p.name for p in data.iterdir() if p.name.startswith(".poialias-")) == [".poialias-city.csv.npz"]
    capsys.readouterr()
    monkeypatch.setattr(np, "load", mock.Mock(side_effect=AssertionError("a file was read")))
    assert main(["evaluate", str(data), *argv]) == 1
    assert capsys.readouterr().err == f"error: command=evaluate {data / 'labels.csv'}\n"


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


@pytest.mark.parametrize("d2_rows", [[], [("c1", "!!!"), ("c2", "???")]], ids=["no-rows", "names-clean-to-empty"])
def test_positives_of_a_district_without_usable_names_count_against_recall(d2_rows, tmp_path):
    # d0 and d1 each link their one positive; d2's positive has no profile
    data = tmp_path / "data"
    data.mkdir()
    rows = [("a1", "d0", "kappa"), ("a2", "d0", "omega"), ("b1", "d1", "delta"), ("b2", "d1", "theta")]
    rows += [(u, "d2", name) for u, name in d2_rows]
    (data / "addresses.csv").write_text(
        "user_id,province,city,district,poi_name\n" + "".join(f"{u},J,S,{d},{n}\n" for u, d, n in rows)
    )
    (data / "locations.csv").write_text(
        "user_id,lat,lon\n"
        + "".join(f"{u},{31.0 + k * 1e-5},120.0\n" for u, _, _ in rows for k in range(6))
    )
    (data / "labels.csv").write_text(
        "district,standard_name,candidate_name,is_alias\n"
        "d0,kappa,omega,1\nd1,delta,theta,1\nd2,sigma,lambda,1\n"
    )
    out = tmp_path / "out"
    assert main(["evaluate", str(data), "--method", "centroid", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())["report"]
    assert (report["true_positive"], report["actual_positive"]) == (2, 3)
    assert report["recall"] == 2 / 3
    assert report["per_district"]["d2"]["actual_positive"] == 1


def _corpus_with_unscorable_labels(tmp_path) -> Path:
    """d0's labels: two scored pairs, one thin profile ("rho", 2 points),
    a candidate with no address row ("ghost") and a candidate that is
    itself a standard ("kappa"); d1: one scored pair; d2: no address rows."""
    data = tmp_path / "data"
    data.mkdir()
    rows = [("a1", "d0", "kappa"), ("a2", "d0", "omega"), ("a3", "d0", "sigma"), ("a4", "d0", "tau"),
            ("a5", "d0", "rho"), ("b1", "d1", "delta"), ("b2", "d1", "theta")]
    spot = {"a3": 31.05}  # sigma is 5 km from the others
    (data / "addresses.csv").write_text(
        "user_id,province,city,district,poi_name\n" + "".join(f"{u},J,S,{d},{n}\n" for u, d, n in rows)
    )
    (data / "locations.csv").write_text(
        "user_id,lat,lon\n"
        + "".join(
            f"{u},{spot.get(u, 31.0) + k * 1e-5},120.0\n"
            for u, _, _ in rows
            for k in range(2 if u == "a5" else 6)
        )
    )
    (data / "labels.csv").write_text(
        "district,standard_name,candidate_name,is_alias\n"
        "d0,kappa,omega,1\nd0,kappa,sigma,0\nd0,kappa,rho,0\nd0,kappa,ghost,1\nd0,tau,kappa,0\n"
        "d1,delta,theta,1\nd2,sigma,lambda,1\n"
    )
    return data


def test_labeled_pairs_outside_the_scored_grid_are_counted_unscorable(tmp_path):
    data = _corpus_with_unscorable_labels(tmp_path)
    for method in ("centroid", "loccent", "kl", "jaccard", "editdist"):
        out = tmp_path / method
        assert main(["evaluate", str(data), "--method", method, "--out", str(out)]) == 0, method
        report = json.loads((out / "report.json").read_text())["report"]
        per = report["per_district"]
        assert [per[d]["n_unscorable"] for d in ("d0", "d1", "d2")] == [2, 0, 1], method
        assert report["n_unscorable"] == 3, method
        # a thin profile is insufficient, not unscorable
        thin = 0 if method == "editdist" else 1
        assert (report["n_insufficient"], per["d0"]["n_insufficient"]) == (thin, thin), method
        assert report["actual_positive"] == 4, method

        out = tmp_path / f"crossval-{method}"
        assert main(["crossval", str(data), "--method", method, "--out", str(out)]) == 0, method
        rep = json.loads((out / "report.json").read_text())["report"]
        tests = [fold["test"] for fold in rep["folds"]]
        assert sorted(t["n_unscorable"] for t in tests) == [0, 1, 2], method
        assert rep["pooled"]["n_unscorable"] == 3, method


def test_calibration_without_a_scored_positive_names_its_counts(tmp_path, capsys):
    # every profile is thin, so each labeled pair is insufficient or unscorable
    data = _corpus_with_unscorable_labels(tmp_path)
    argv = ["evaluate", str(data), "--method", "kl", "--min-profile-points", "100000", "--out", str(tmp_path / "o")]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "error: command=evaluate no positive labels among the scored pairs: labeled pairs scored "
        "0 (0 positive), insufficient 4 (2 positive), unscorable 3 (2 positive)\n"
    )


@pytest.mark.parametrize(
    "argv",
    [["evaluate", "--method", "kl"], ["sweep", "--method", "jaccard", "--grids", "20"]],
    ids=["evaluate", "sweep"],
)
@pytest.mark.parametrize("labels", [[], [("alpha", "beta", "2")]], ids=["header-only", "every-row-rejected"])
def test_calibration_without_labels_names_its_zero_counts(argv, labels, tmp_path, capsys):
    data = tmp_path / "d"
    _write_corpus(data, [("u1", "alpha"), ("u2", "beta")], labels)
    assert main([argv[0], str(data), *argv[1:], "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.endswith(
        f"error: command={argv[0]} no positive labels among the scored pairs: labeled pairs scored "
        "0 (0 positive), insufficient 0 (0 positive), unscorable 0 (0 positive)\n"
    )


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
    argv += ["--out", str(out)]
    if command not in ("ingest-check", "preprocess"):
        argv += ["--method", "jaccard", "--workers", "1"]  # only scoring commands take --workers
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


@pytest.mark.parametrize("item", ["base_lat=89.99", "base_lon=179.99"])
def test_synth_rejects_a_city_past_the_parser_bounds(tmp_path, capsys, item):
    # near a pole or the antimeridian the generated points leave the range
    # the location parser accepts; nothing may be written
    out = tmp_path / "x"
    config = [item, "n_districts=1", "pois_per_district=10"]
    rc = main(["synth", "--seed", "1", "--out", str(out)] + [a for c in config for a in ("--config", c)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: command=synth district d00: generated coordinate ")
    assert "lies outside lat [-90, 90], lon [-180, 180]" in err
    assert all(key in err for key in ("base_lat=", "base_lon=", "district_extent_m=8000.0"))
    assert not [name for name in ("addresses.csv", "locations.csv", "labels.csv") if (out / name).exists()]


def test_bad_sweep_grids_fail_with_the_value(data_dir, tmp_path, capsys):
    rc = main(["sweep", str(data_dir), "--method", "jaccard", "--grids", "20,x",
               "--out", str(tmp_path / "sw")])
    assert rc == 1
    assert "--grids expects comma-separated integers, got '20,x'" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["centroid", "loccent", "kl", "jaccard", "editdist"])
def test_aliases_decision_is_the_link_rule_at_the_resolved_theta(method, small_city, tmp_path):
    def discover(threshold: str, out: Path) -> list[dict]:
        assert main(["discover", small_city.dir, "--method", method, "--threshold", threshold, "--out", str(out)]) == 0
        theta = float(json.loads((out / "run_manifest.json").read_text())["config"]["resolved_theta"])
        rows = list(csv.DictReader(open(out / "aliases.csv")))
        for r in rows:
            assert (r["decision"] == "insufficient") == (r["score"] == ""), r
            assert (r["decision"] == "alias") == (r["score"] != "" and float(r["score"]) > theta), r
        return rows

    calibrated = discover("calibrate", tmp_path / "calibrate")
    scores = sorted(float(r["score"]) for r in calibrated if r["score"])
    median = scores[len(scores) // 2]
    # an editdist --threshold is a distance cutoff, 1 - the score cutoff
    numeric = discover(repr(1.0 - median if method == "editdist" else median), tmp_path / "numeric")
    assert {"alias", "not-alias"} <= {r["decision"] for r in calibrated + numeric}


def _pair_rows_peak(table, theta: float) -> int:
    """The tracemalloc peak of consuming aliases.csv's rows of `table`."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        deque(cli._pair_rows({"d": table}, theta), maxlen=0)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_aliases_rows_hold_one_standard_at_a_time():
    rng = np.random.default_rng(61)
    n, m, theta = 2_000, 300, 0.5
    score = rng.random(n * m)
    score[rng.random(n * m) < 0.1] = np.nan
    standards, candidates = [f"s{i}" for i in range(n)], [f"c{j}" for j in range(m)]
    table = ScoreTable(standards, candidates, score)
    few = ScoreTable(standards[:20], candidates, score[: 20 * m])
    # 100 times the standards, and the peak stays that of one block
    assert _pair_rows_peak(table, theta) < 2 * _pair_rows_peak(few, theta)
    for k, (row, value) in enumerate(zip(cli._pair_rows({"d": table}, theta), score.tolist())):
        if math.isnan(value):
            want = ("d", standards[k // m], candidates[k % m], "", DECISION_INSUFFICIENT)
        else:
            decision = DECISION_ALIAS if value > theta else DECISION_NOT_ALIAS
            want = ("d", standards[k // m], candidates[k % m], repr(value), decision)
        assert row == want and row[4] is want[4]


@pytest.mark.parametrize("method", ["jaccard", "centroid"])
def test_density_dump(method, data_dir, tmp_path):
    out = tmp_path / "dd"
    assert main([
        "discover", str(data_dir), "--method", method, "--threshold", "2.0",
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


def _copy_inputs(src, dst, fmt="csv", edit=lambda name, rows: rows):
    """The three input files of `src`, each file's rows passed through
    `edit(name, rows)`, as CSV or JSONL."""
    dst.mkdir()
    for name in ("addresses", "locations", "labels"):
        header, *rows = _read_csv(os.path.join(src, f"{name}.csv"))
        rows = edit(name, rows)
        with open(dst / f"{name}.{fmt}", "w", newline="", encoding="utf-8") as fh:
            if fmt == "csv":
                csv.writer(fh, lineterminator="\n").writerows([header, *rows])
            else:
                fh.writelines(json.dumps(dict(zip(header, row))) + "\n" for row in rows)


def test_reports_do_not_depend_on_row_order_or_format(small_city, tmp_path):
    rng = np.random.default_rng(11)

    def shuffle(name, rows):
        return [rows[i] for i in rng.permutation(len(rows))]

    _copy_inputs(small_city.dir, tmp_path / "shuffled", "csv", shuffle)
    _copy_inputs(small_city.dir, tmp_path / "jsonl", "jsonl", shuffle)
    inputs = [(small_city.dir, "csv"), (str(tmp_path / "shuffled"), "csv"), (str(tmp_path / "jsonl"), "jsonl")]
    for method in _METHODS:
        outputs = []
        for k, (data, fmt) in enumerate(inputs):
            out = tmp_path / method / str(k)
            opts = [data, "--method", method, "--format", fmt]
            assert main(["evaluate", *opts, "--out", str(out / "evaluate")]) == 0
            assert main(["crossval", *opts, "--out", str(out / "crossval")]) == 0
            assert main(["discover", *opts, "--out", str(out / "discover")]) == 0
            outputs.append([
                (out / name).read_bytes()
                for name in ("evaluate/report.json", "crossval/report.json", "discover/aliases.csv")
            ])
        assert outputs[1] == outputs[0], method
        assert outputs[2] == outputs[0], method


def test_reports_do_not_depend_on_user_ids_or_unnamed_users(small_city, tmp_path):
    # metamorphic relations (Chen, Cheung and Yiu 1998): neither renaming
    # every user nor adding users that write no address can move a score
    _, *addresses = _read_csv(os.path.join(small_city.dir, "addresses.csv"))
    _, *locations = _read_csv(os.path.join(small_city.dir, "locations.csv"))
    users = sorted({row[0] for row in addresses} | {row[0] for row in locations})
    # a bijection that reverses the users' sort order, and with it the
    # order in which each profile gathers its writers' points
    rename = {u: f"w{len(users) - i:06d}" for i, u in enumerate(users)}
    assert sorted(users, key=rename.get) == users[::-1]
    rng = np.random.default_rng(23)
    # unnamed users on and around the named users' points, some past every
    # district's edge
    picks = rng.integers(0, len(locations), 800).tolist()
    shifts = rng.choice([0.0, 0.3, -0.3], (800, 2)).tolist()
    extra = [
        [f"ghost{k % 40}", repr(float(locations[i][1]) + dy), repr(float(locations[i][2]) + dx)]
        for k, (i, (dy, dx)) in enumerate(zip(picks, shifts))
    ]
    assert not {row[0] for row in extra} & set(users)
    _copy_inputs(
        small_city.dir,
        tmp_path / "renamed",
        edit=lambda name, rows: rows if name == "labels" else [[rename[row[0]], *row[1:]] for row in rows],
    )
    _copy_inputs(
        small_city.dir, tmp_path / "unnamed", edit=lambda name, rows: rows + extra if name == "locations" else rows
    )
    for method in _METHODS:
        reports = []
        for data in (small_city.dir, tmp_path / "renamed", tmp_path / "unnamed"):
            out = tmp_path / method / os.path.basename(data)
            assert main(["evaluate", str(data), "--method", method, "--out", str(out)]) == 0
            reports.append((out / "report.json").read_bytes())
        assert reports[1] == reports[0], method
        assert reports[2] == reports[0], method


# a numeric score cutoff per method, each near the small city's calibrated
# one, so every district links some pairs. editdist's is a distance cutoff:
# every labeled pair of the small city is at the largest edit distance its
# lengths allow (a score of 0), so only a cutoff above 1 links any of them
_NUMERIC_THRESHOLDS = {"centroid": "0.002", "loccent": "0.02", "kl": "0.15", "jaccard": "3.0", "editdist": "1.5"}


def _pooled_counts(report: dict) -> dict:
    return {k: report[k] for k in ("true_positive", "predicted_positive", "actual_positive", "n_insufficient", "n_unscorable")}


def test_reports_carry_a_renamed_or_duplicated_district(small_city, tmp_path):
    # metamorphic relations at a numeric threshold: renaming a district
    # carries its record over under the new name, and a copy of it under a
    # new name, with fresh user ids, gets the original's record and adds it
    # once more to the pooled counts. Calibration would fit on the changed
    # pool, so the threshold is fixed
    _, *addresses = _read_csv(os.path.join(small_city.dir, "addresses.csv"))
    district = "d00"
    copied_users = {row[0] for row in addresses if row[3] == district}
    assert copied_users and len({row[3] for row in addresses}) > 1

    def rename(name, rows):
        if name == "locations":
            return rows
        col = 3 if name == "addresses" else 0
        return [[*row[:col], "zz-renamed" if row[col] == district else row[col], *row[col + 1:]] for row in rows]

    def duplicate(name, rows):
        if name == "addresses":
            copy = [["copy-" + row[0], *row[1:3], "d00-copy", row[4]] for row in rows if row[3] == district]
        elif name == "locations":
            copy = [["copy-" + row[0], *row[1:]] for row in rows if row[0] in copied_users]
        else:
            copy = [["d00-copy", *row[1:]] for row in rows if row[0] == district]
        return rows + copy

    _copy_inputs(small_city.dir, tmp_path / "renamed", edit=rename)
    _copy_inputs(small_city.dir, tmp_path / "duplicated", edit=duplicate)
    for method in _METHODS:
        reports = {}
        for data in (small_city.dir, tmp_path / "renamed", tmp_path / "duplicated"):
            out = tmp_path / method / os.path.basename(data)
            argv = ["evaluate", str(data), "--method", method, "--threshold", _NUMERIC_THRESHOLDS[method]]
            assert main([*argv, "--out", str(out)]) == 0
            reports[os.path.basename(data)] = json.loads((out / "report.json").read_text())["report"]
        base, renamed, duplicated = reports.values()
        record = base["per_district"][district]
        assert record["true_positive"] > 0, method

        assert renamed["per_district"] == {
            ("zz-renamed" if d == district else d): rec for d, rec in base["per_district"].items()
        }, method
        assert _pooled_counts(renamed) == _pooled_counts(base), method

        assert duplicated["per_district"] == {**base["per_district"], "d00-copy": record}, method
        assert _pooled_counts(duplicated) == {
            k: v + record[k] for k, v in _pooled_counts(base).items()
        }, method
