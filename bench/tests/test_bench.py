"""The benchmark's own tests: smoke runs, output checks, noise injection.

Run from the repository root: python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run as harness  # noqa: E402
import workloads as wl  # noqa: E402


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=600,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_smoke_run_emits_the_declared_metrics(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    assert result["failed"] == 0
    assert result["attempted"] == len(wl.WORKLOADS[workload].mix)
    declared = _spec()["end_to_end" if trace == "0" else "per_layer"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "noisy-city", "--seed", "1", "--seconds", "1", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def test_injector_replaces_exact_counts_that_the_parsers_reject(tmp_path):
    from poialias.ingestion import parse_address_records, parse_location_log

    _write_csv(
        tmp_path / "locations.csv",
        ["user_id", "lat", "lon"],
        [[f"u{i}", repr(30.0 + i * 1e-4), repr(120.0 + i * 1e-4)] for i in range(2000)],
    )
    _write_csv(
        tmp_path / "addresses.csv",
        ["user_id", "province", "city", "district", "poi_name"],
        [[f"u{i}", "p", "c", "d00", f"name{i % 7}"] for i in range(600)],
    )
    injected = wl.inject_noise(str(tmp_path), seed=11)
    assert injected == {
        "locations": dict.fromkeys(wl.LOCATION_REASONS, 4),
        "addresses": dict.fromkeys(wl.ADDRESS_REASONS, 2),
    }
    # the program's own parsers reject exactly the injected rows, per reason
    for name, parse in (("locations", parse_location_log), ("addresses", parse_address_records)):
        _, report = parse(str(tmp_path / f"{name}.csv"))
        got = {}
        for _, message in report.errors:
            reason = next(r for r, prefix in wl.REASON_MESSAGE.items() if message.startswith(prefix))
            got[reason] = got.get(reason, 0) + 1
        assert got == injected[name]
    # same seed, same rows
    first = (tmp_path / "locations.csv").read_bytes()
    _write_csv(
        tmp_path / "locations.csv",
        ["user_id", "lat", "lon"],
        [[f"u{i}", repr(30.0 + i * 1e-4), repr(120.0 + i * 1e-4)] for i in range(2000)],
    )
    wl.inject_noise(str(tmp_path), seed=11)
    assert (tmp_path / "locations.csv").read_bytes() == first


@pytest.fixture()
def evaluated(tmp_path):
    """A shrunken city and one `evaluate` of it, run through the CLI."""
    data, out = str(tmp_path / "data"), str(tmp_path / "out")
    synth = wl.WORKLOADS["default-city"].synth_argv(seed=2, smoke=True)
    assert harness.run_cli(harness.with_paths(tuple(synth), data, data), str(tmp_path / "s.log")).ok
    cmd = wl.WORKLOADS["default-city"].mix[1]
    res = harness.run_cli(harness.with_paths(cmd.argv, data, out), str(tmp_path / "e.log"))
    assert res.ok, res.stderr
    return data, out, cmd, res


@pytest.fixture()
def make_run():
    runs = []

    def make(workload: str):
        args = ["--workload", workload, "--seed", "2", "--seconds", "0", "--smoke"]
        runs.append(harness.Run(harness.parse_args(args)))
        return runs[-1]

    yield make
    for run in runs:
        shutil.rmtree(run.work, ignore_errors=True)


def test_clean_pass_counts_no_failure(evaluated, make_run):
    _, out, cmd, res = evaluated
    run = make_run("default-city")
    run.check_pass([(cmd, out, res)], {}, None)
    assert (run.attempted, run.failed) == (1, 0), run.problems


def test_report_that_changes_between_passes_fails(evaluated, make_run):
    _, out, cmd, res = evaluated
    run = make_run("default-city")
    first = {}
    run.check_pass([(cmd, out, res)], first, None)
    path = os.path.join(out, "report.json")
    report = json.load(open(path, encoding="utf-8"))
    report["report"]["true_positive"] += 1
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    run.check_pass([(cmd, out, res)], first, None)
    assert (run.attempted, run.failed) == (2, 1)
    assert any("differs between passes" in p for p in run.problems)


def test_tampered_report_fails_its_checks(evaluated):
    _, out, cmd, res = evaluated
    summary = wl.summarize(cmd.label, out)
    pins = {"outputs": {cmd.label: dict(summary)}}
    assert wl.check_outputs({cmd.label: summary}, None, pins) == []
    tampered = dict(summary, true_positive=summary["predicted_positive"] + 1)
    assert [label for label, _ in wl.check_outputs({cmd.label: tampered}, None, None)] == [cmd.label]
    off_pin = dict(summary, f1=summary["f1"] / 2)
    assert [label for label, _ in wl.check_outputs({cmd.label: off_pin}, None, pins)] == [cmd.label]


def test_non_zero_exit_fails_the_command(tmp_path, make_run):
    res = harness.run_cli(
        ["evaluate", str(tmp_path / "missing"), "--method", "centroid", "--out", str(tmp_path / "o")],
        str(tmp_path / "e.log"),
    )
    assert res.exit_code != 0
    run = make_run("noisy-city")
    run.check_pass([(wl.WORKLOADS["noisy-city"].mix[1], str(tmp_path / "o"), res)], {}, None)
    assert (run.attempted, run.failed) == (1, 1)
