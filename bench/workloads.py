"""Workload definitions, seeded noise injection and output checks.

This module never imports `poialias`: the end-to-end path treats the
program as a black box driven through its CLI. Everything here is plain
standard library so the traced run and the tests can share it.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass

# the five methods in the order the README lists them
METHODS = ("centroid", "loccent", "kl", "jaccard", "editdist")
SWEEP_GRIDS = (20, 50, 150, 300, 500)  # the CLI's default --grids
INPUT_FILES = ("addresses.csv", "locations.csv", "labels.csv")

# per-file reasons parse_* rejects a row; the injector cycles through them
LOCATION_REASONS = ("unparseable", "non-finite", "out-of-range", "field-count", "empty-user")
ADDRESS_REASONS = ("field-count", "empty-user", "empty-poi")
# prefix of the parser's error message for each reason
REASON_MESSAGE = {
    "unparseable": "unparseable coordinates",
    "non-finite": "non-finite coordinates",
    "out-of-range": "coordinates out of range",
    "field-count": "expected ",
    "empty-user": "empty user_id",
    "empty-poi": "empty poi_name",
}
NOISE_FRACTION = 0.01

# shrinks every city for smoke runs; keeps two districts and the shape knobs
SMOKE_CONFIG = ("pois_per_district=12",)


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a workload's mix."""

    label: str  # metric stem, e.g. evaluate_loccent
    argv: tuple  # CLI arguments after the program name, without --out


@dataclass(frozen=True)
class Workload:
    name: str
    synth_config: tuple  # --config key=value overrides
    noisy: bool
    mix: tuple  # Command, run in this order; the first is also the warm-up

    def synth_argv(self, seed: int, smoke: bool) -> list[str]:
        argv = ["synth", "--seed", str(seed)]
        for item in self.synth_config + (SMOKE_CONFIG if smoke else ()):
            argv += ["--config", item]
        return argv


def _evaluate(method: str) -> Command:
    return Command(f"evaluate_{method}", ("evaluate", "{data}", "--method", method))


INGEST_CHECK = Command("ingest_check", ("ingest-check", "{data}"))
SWEEP = Command("sweep_jaccard", ("sweep", "{data}", "--method", "jaccard"))
DISCOVER = Command("discover_jaccard", ("discover", "{data}", "--method", "jaccard"))


def artifact(label: str) -> str:
    """The output a command must reproduce byte for byte on every pass."""
    return {INGEST_CHECK.label: "ingest_report.json", DISCOVER.label: "aliases.csv"}.get(label, "report.json")


WORKLOADS = {
    w.name: w
    for w in (
        # the README/ROADMAP baseline city: location parsing and loccent's
        # window search dominate; the grid-500 sweep stresses rasterization
        Workload("default-city", (), False, (*(_evaluate(m) for m in METHODS), SWEEP)),
        # 3x the pairs on 1/8 the points: pair kernels, exact-rational
        # calibration and label handling dominate; discover writes 30k rows
        Workload(
            "wide-city",
            (
                "alias_fraction=1.0",
                "aliases_per_poi=1,2",
                "users_per_poi=8,12",
                "points_per_user=8,12",
            ),
            False,
            (*(_evaluate(m) for m in METHODS), DISCOVER),
        ),
        # the default city with 1 % rejected rows: ingestion's error path.
        # Every evaluate re-parses the dirty files, so a slower error path
        # moves the pass as much as a faster clean path moves default-city's
        Workload("noisy-city", (), True, (INGEST_CHECK, *(_evaluate(m) for m in METHODS))),
    )
}


# ------------------------------------------------------------ inputs


def digest(data_dir: str) -> dict[str, str]:
    """sha256 of each generated CSV."""
    out = {}
    for name in INPUT_FILES:
        with open(os.path.join(data_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _bad_location(row: list[str], reason: str) -> list[str]:
    user, lat, lon = row
    return {
        "unparseable": [user, "north", lon],
        "non-finite": [user, "nan", lon],
        "out-of-range": [user, "123.5", lon],
        "field-count": [user, lat],
        "empty-user": ["", lat, lon],
    }[reason]


def _bad_address(row: list[str], reason: str) -> list[str]:
    return {
        "field-count": row[:-1],
        "empty-user": [""] + row[1:],
        "empty-poi": row[:-1] + [""],
    }[reason]


def _inject_file(path: str, rng: random.Random, reasons: tuple, corrupt) -> dict[str, int]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    n = int(len(body) * NOISE_FRACTION)
    counts = dict.fromkeys(reasons, 0)
    for k, idx in enumerate(sorted(rng.sample(range(len(body)), n))):
        reason = reasons[k % len(reasons)]
        body[idx] = corrupt(body[idx], reason)
        counts[reason] += 1
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(body)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(buf.getvalue())
    return counts


def inject_noise(data_dir: str, seed: int) -> dict[str, dict[str, int]]:
    """Replace a seeded 1 % of location and address rows with rejectable rows.

    Returns the injected count per file and reason.
    """
    rng = random.Random(f"noise-{seed}")
    return {
        "locations": _inject_file(
            os.path.join(data_dir, "locations.csv"), rng, LOCATION_REASONS, _bad_location
        ),
        "addresses": _inject_file(
            os.path.join(data_dir, "addresses.csv"), rng, ADDRESS_REASONS, _bad_address
        ),
    }


# ------------------------------------------------------------ pins (seed 42)

REFERENCE_SEED = 42
PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")


def load_pins(workload: str) -> dict | None:
    """Reference digests and outputs for seed 42 at full size."""
    with open(PINS_PATH, encoding="utf-8") as fh:
        return json.load(fh).get(workload)


# ------------------------------------------------------------ output checks


EVALUATE_FACTS = ("true_positive", "predicted_positive", "actual_positive", "n_insufficient", "f1")


def summarize(label: str, out_dir: str) -> dict:
    """The facts of one command's outputs that the checks compare."""
    if label == INGEST_CHECK.label:
        with open(os.path.join(out_dir, "ingest_report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        errors = {}
        for name, rep in sorted(report["files"].items()):
            per_reason = {}
            for err in rep["errors"]:
                reason = next(
                    (r for r, msg in REASON_MESSAGE.items() if err["message"].startswith(msg)),
                    "other",
                )
                per_reason[reason] = per_reason.get(reason, 0) + 1
            errors[name] = per_reason
        return {"errors": errors}
    if label.startswith("discover_"):
        with open(os.path.join(out_dir, "aliases.csv"), newline="", encoding="utf-8") as fh:
            n_rows = sum(1 for _ in csv.reader(fh)) - 1
        with open(os.path.join(out_dir, "run_manifest.json"), encoding="utf-8") as fh:
            n_pairs = json.load(fh)["counts"]["pairs"]
        return {"alias_rows": n_rows, "pairs": n_pairs}
    with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    if label.startswith("evaluate_"):
        return {k: report["report"][k] for k in EVALUATE_FACTS}
    if label.startswith("sweep_"):
        return {"f1": {str(r["grid_n"]): r["report"]["f1"] for r in report["results"]}}
    raise ValueError(f"no summary for command {label!r}")


def check_outputs(
    summaries: dict[str, dict], injected: dict | None, pins: dict | None
) -> list[tuple[str, str]]:
    """(command label, problem) for each check that fails in one pass.

    Checks that hold for every seed, plus exact equality with `pins` when
    given (seed 42 at full size).
    """
    problems = []
    for label, s in summaries.items():
        if label.startswith("evaluate_"):
            if not (0 <= s["true_positive"] <= min(s["predicted_positive"], s["actual_positive"])):
                problems.append((label, f"inconsistent confusion counts {s}"))
            if not 0.0 <= s["f1"] <= 1.0:
                problems.append((label, f"f1 {s['f1']} outside [0, 1]"))
        elif label.startswith("sweep_"):
            if sorted(int(g) for g in s["f1"]) != list(SWEEP_GRIDS):
                problems.append((label, f"grids {sorted(s['f1'])} != {SWEEP_GRIDS}"))
        elif label.startswith("discover_"):
            if s["alias_rows"] != s["pairs"]:
                problems.append((label, f"{s['alias_rows']} alias rows for {s['pairs']} pairs"))
        elif label == INGEST_CHECK.label:
            expected = {
                name: {r: c for r, c in per.items() if c} for name, per in (injected or {}).items()
            }
            got = {name: per for name, per in s["errors"].items() if per}
            if got != expected:
                problems.append((label, f"row errors {got} != injected {expected}"))
    # the labels fix the positives, whatever the method
    actual = {label: s["actual_positive"] for label, s in summaries.items() if label.startswith("evaluate_")}
    if len(set(actual.values())) > 1:
        problems += [(label, f"actual_positive differs between methods: {actual}") for label in actual]
    if pins is not None:
        for label, s in summaries.items():
            if pins["outputs"].get(label) != s:
                problems.append((label, f"{s} != pinned {pins['outputs'].get(label)}"))
    return problems
