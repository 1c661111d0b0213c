"""Command-line interface: one executable exposing the whole pipeline.

Subcommands: synth, ingest-check, preprocess, discover, evaluate,
crossval, transfer, sweep. Artifacts are written under --out through
`ingestion`'s writers (temp file plus rename, one CSV dialect); every
command also writes a run_manifest.json with the fully resolved
configuration, stage timings, and counts. Reports contain neither
timings nor the paths, input format and worker count, so identical inputs
and configuration reproduce them byte for byte wherever and however they
are read and written. Each `_cmd_*` handler takes the parsed options
and a stage timer and returns the manifest's (counts, config).
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
import time
from dataclasses import asdict, fields, replace
from itertools import repeat

# poialias calls no BLAS routine, and OpenBLAS starting its thread pool is
# about half of numpy's import; a value the caller set is kept
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import evaluation
from .discovery import MetricConfig, apply_threshold, decide
from .distribution import rasterize_all
from .errors import InvalidConfigError, PoiAliasError
from .ingestion import FORMATS, Corpus, load_corpus, partition_by_district, write_csv, write_json, write_jsonl
from .pipeline import DEFAULT_CLUSTER_THRESHOLD, CityData, build_city_data, score_city
from .preprocess import check_cluster_threshold, clean_text
from .synth import SynthConfig, generate_city

logger = logging.getLogger("poialias")

CLI_METHODS = {
    "centroid": "centroid",
    "loccent": "loc_cent",
    "kl": "kl_div",
    "jaccard": "jaccard",
    "editdist": "edit_distance",
}


def _log_kv(**kwargs):
    logger.info(" ".join(f"{k}={v}" for k, v in kwargs.items()))


class _Timer:
    def __init__(self):
        self.timings_ms: dict[str, float] = {}
        self._t0 = None
        self._stage = None

    def stage(self, name: str):
        now = time.perf_counter()
        if self._stage is not None:
            self.timings_ms[self._stage] = round((now - self._t0) * 1000.0, 3)
            _log_kv(stage=self._stage, elapsed_ms=self.timings_ms[self._stage])
        self._stage = name
        self._t0 = now

    def done(self):
        self.stage("_end")
        self.timings_ms.pop("_end", None)


def _score_threshold(args):
    """--threshold as a score cutoff, or 'calibrate'.

    An editdist threshold is a distance cutoff; its score cutoff is 1 - it.
    """
    if args.threshold == "calibrate":
        return "calibrate"
    try:
        cutoff = float(args.threshold)
    except ValueError as exc:
        raise InvalidConfigError(
            f"--threshold must be a number or 'calibrate', got {args.threshold!r}"
        ) from exc
    theta = 1.0 - cutoff if args.method == "editdist" else cutoff
    if not math.isfinite(theta):
        raise InvalidConfigError(f"threshold must be finite, got {theta}")
    return theta


#: the MetricConfig fields that are options; their defaults are MetricConfig's
_TUNABLES = ("local_window_m", "grid_n", "kl_epsilon", "min_profile_points")


def _metric_config(args) -> MetricConfig:
    return MetricConfig(
        method=CLI_METHODS[args.method],
        threshold=0.0,
        **{name: getattr(args, name) for name in _TUNABLES},
    )


def _resolved_config(args, **extra) -> dict:
    """Every resolved option: run_manifest.json's config."""
    out = {k: v for k, v in vars(args).items() if k not in ("func", "command", "verbose")}
    out.update(extra)
    return out


#: options that name where data is read or written, in which format, or
#: how many threads score it; none can change a result
_PLACE_AND_HOST_OPTIONS = ("data", "source", "target", "format", "out", "workers")


def _report_config(args, **extra) -> dict:
    """The resolved options that can change a result: report.json's config.

    One input and one scoring config therefore give the same report bytes
    wherever the input is read from and the report is written to.
    """
    out = _resolved_config(args, **extra)
    for key in _PLACE_AND_HOST_OPTIONS:
        out.pop(key, None)
    return out


def _load_corpus(args, data: str, require_labels: bool) -> Corpus:
    corpus = load_corpus(data, fmt=args.format, require_labels=require_labels)
    _log_kv(
        stage="ingest",
        addresses=len(corpus.addresses),
        users=len(corpus.locations),
        labels=len(corpus.label_ids),
        districts=len(corpus.districts),
        orphan_labels=len(corpus.orphans),
    )
    return corpus


def _load_city(args, data: str, require_labels: bool) -> CityData:
    """The city of `data`; the parsed corpus is released on return.

    Profiles hold their own copies of the points, so the parsed location
    log need not stay alive while scoring. --cluster-threshold is checked
    before any input is read.
    """
    check_cluster_threshold(args.cluster_threshold)
    corpus = _load_corpus(args, data, require_labels)
    return build_city_data(corpus, cluster_threshold=args.cluster_threshold)


def _pair_rows(scores: dict, theta: float):
    for district in sorted(scores):
        table = scores[district]
        m = len(table.candidate_names)
        # repr of Python floats: numpy 2 would print np.float64(...)
        values = list(map(repr, table.score.tolist()))
        for k in np.flatnonzero(np.isnan(table.score)).tolist():
            values[k] = ""
        standards = [s for s in table.standard_names for _ in range(m)]
        candidates = table.candidate_names * len(table.standard_names)
        yield from zip(repeat(district), standards, candidates, values, decide(table.score, theta))


def _density_rows(city: CityData, grid_n: int):
    for district, dd in sorted(city.districts.items()):
        if dd.bbox is None:
            continue
        located = [p for _, p in sorted(dd.profiles.items()) if p.point_count]
        grids = rasterize_all(located, dd.bbox, grid_n)
        owners = [p.name for p in located]
        for owner, cell, count in zip(grids.owner.tolist(), grids.cells.tolist(), grids.counts.tolist()):
            yield district, owners[owner], str(cell // grid_n), str(cell % grid_n), str(count)


def _resolve_theta(city, scores, threshold):
    """A numeric score cutoff straight through; 'calibrate' fits on all labels."""
    if threshold != "calibrate":
        return threshold, None
    cal = evaluation.calibrate_on_districts(city, scores, city.labeled_districts())
    _log_kv(stage="calibrate", theta=cal.theta, train_f1=round(cal.f1, 6))
    return cal.theta, cal


# ---------------------------------------------------------------- commands


def _synth_config(args) -> SynthConfig:
    """SynthConfig from --seed and the --config key=value overrides."""
    names = {f.name for f in fields(SynthConfig)} - {"seed"}  # --seed sets it
    overrides = {}
    for item in args.config or []:
        key, sep, value = item.partition("=")
        if not sep:
            raise InvalidConfigError(f"--config expects key=value, got {item!r}")
        if key not in names:
            raise InvalidConfigError(f"unknown synth config key {key!r}")
        current = getattr(SynthConfig(), key)
        try:
            if isinstance(current, tuple):
                lo, hi = (int(v) for v in value.split(","))
                overrides[key] = (lo, hi)
            else:
                overrides[key] = type(current)(value)
        except ValueError:
            kind = "'lo,hi'" if isinstance(current, tuple) else type(current).__name__
            raise InvalidConfigError(f"{key} expects {kind}, got {value!r}") from None
    return SynthConfig(seed=args.seed, **overrides)


def _cmd_synth(args, timer: _Timer):
    timer.stage("generate")
    config = _synth_config(args)
    summary = generate_city(config, args.out)
    _log_kv(stage="synth", **{k: v for k, v in summary.items() if k != "out_dir"})
    return summary, asdict(config)


def _cmd_ingest_check(args, timer: _Timer):
    timer.stage("ingest")
    corpus = load_corpus(args.data, fmt=args.format, require_labels=False)
    by_district = partition_by_district(corpus.addresses)
    report = {
        "files": {name: rep.to_dict() for name, rep in corpus.reports.items()},
        "districts": {
            d: {"addresses": len(recs)} for d, recs in sorted(by_district.items())
        },
        "n_users_with_locations": len(corpus.locations),
        "n_labels": len(corpus.label_ids),
        "orphan_labels": [
            {
                "district": lb.district,
                "standard_name": lb.standard_name,
                "candidate_name": lb.candidate_name,
                "reason": reason,
            }
            for lb, reason in corpus.orphan_labels
        ],
    }
    timer.stage("write")
    write_json(os.path.join(args.out, "ingest_report.json"), report)
    counts = {
        "addresses": len(corpus.addresses),
        "users": len(corpus.locations),
        "labels": len(corpus.label_ids),
        "row_errors": sum(r.n_errors for r in corpus.reports.values()),
        "orphan_labels": len(corpus.orphans),
    }
    _log_kv(stage="ingest-check", row_errors=counts["row_errors"])
    return counts, _resolved_config(args)


def _cmd_preprocess(args, timer: _Timer):
    check_cluster_threshold(args.cluster_threshold)
    timer.stage("ingest")
    corpus = _load_corpus(args, args.data, require_labels=False)
    city = build_city_data(corpus, cluster_threshold=args.cluster_threshold)
    timer.stage("write")
    by_district = partition_by_district(corpus.addresses)
    n_raw = 0
    n_canonical = 0
    for district, dd in sorted(city.districts.items()):
        raw_names = sorted({rec.poi_name for rec in by_district.get(district, [])})
        # one file directly under --out per district, and one district per
        # file name: escape %, / and NUL as %25, %2F and %00
        escaped = district.replace("%", "%25").replace("/", "%2F").replace("\0", "%00")
        write_csv(
            os.path.join(args.out, f"canonical_{escaped}.csv"),
            ["raw_name", "canonical_name"],
            ((raw, dd.canonical_map.resolve(clean_text(raw))) for raw in raw_names),
        )
        n_raw += len(raw_names)
        n_canonical += len(dd.canonical_map.cluster_sizes)
    counts = {"raw_names": n_raw, "canonical_names": n_canonical, "districts": len(city.districts)}
    _log_kv(stage="preprocess", **counts)
    return counts, _resolved_config(args)


def _cmd_discover(args, timer: _Timer):
    threshold = _score_threshold(args)
    config = _metric_config(args)
    timer.stage("ingest")
    city = _load_city(args, args.data, require_labels=threshold == "calibrate")
    timer.stage("score")
    scores = score_city(city, config, workers=args.workers)
    timer.stage("calibrate")
    theta, cal = _resolve_theta(city, scores, threshold)
    n_links = 0
    for district, pairs in scores.items():
        dd = city.districts[district]
        n_links += len(apply_threshold(pairs, theta, district, dd.standard_names, dd.candidate_names))
    n_pairs = sum(len(p) for p in scores.values())
    _log_kv(stage="discover", pairs=n_pairs, links=n_links)
    timer.stage("write")
    write_csv(
        os.path.join(args.out, "aliases.csv"),
        ["district", "standard_name", "candidate_name", "score", "decision"],
        _pair_rows(scores, theta),
    )
    if args.dump_density:
        write_csv(
            os.path.join(args.out, "density.csv"),
            ["district", "name", "row", "col", "count"],
            _density_rows(city, config.grid_n),
        )
    if args.dump_profiles:
        write_jsonl(
            os.path.join(args.out, "profiles.jsonl"),
            (
                {"district": district, "name": name, "user_count": p.user_count, "point_count": p.point_count}
                for district, dd in sorted(city.districts.items())
                for name, p in sorted(dd.profiles.items())
            ),
        )
    counts = {"pairs": n_pairs, "links": n_links, "districts": len(city.districts)}
    return counts, _resolved_config(args, resolved_theta=evaluation.json_safe(theta))


def _cmd_evaluate(args, timer: _Timer):
    threshold = _score_threshold(args)
    config = _metric_config(args)
    timer.stage("ingest")
    city = _load_city(args, args.data, require_labels=True)
    timer.stage("score")
    scores = score_city(city, config, workers=args.workers)
    timer.stage("calibrate")
    theta, cal = _resolve_theta(city, scores, threshold)
    timer.stage("evaluate")
    report = evaluation.evaluate_districts(city, scores, theta, method=args.method)
    _log_kv(stage="evaluate", f1=round(report.f1, 6), precision=round(report.precision, 6), recall=round(report.recall, 6))
    timer.stage("write")
    config = _report_config(args, resolved_theta=evaluation.json_safe(theta))
    payload = {"command": "evaluate", "report": {**report.to_dict(), "config": config}}
    if cal is not None:
        payload["calibration"] = {
            "theta": evaluation.json_safe(cal.theta),
            "train_f1": cal.f1,
            "n_candidates": cal.n_candidates,
        }
    write_json(os.path.join(args.out, "report.json"), payload)
    counts = {
        "pairs": sum(len(p) for p in scores.values()),
        "true_positive": report.true_positive,
        "predicted_positive": report.predicted_positive,
        "actual_positive": report.actual_positive,
    }
    return counts, _resolved_config(args)


def _cmd_crossval(args, timer: _Timer):
    if not 0.0 < args.train_frac <= 1.0:  # NaN fails here too
        raise InvalidConfigError(f"--train-frac must lie in (0, 1], got {args.train_frac}")
    config = _metric_config(args)
    timer.stage("ingest")
    city = _load_city(args, args.data, require_labels=True)
    timer.stage("score")
    scores = score_city(city, config, workers=args.workers)
    timer.stage("evaluate")
    report = evaluation.district_cross_validation(
        city, scores, train_frac=args.train_frac, method=args.method
    )
    _log_kv(stage="crossval", folds=len(report.folds), mean_f1=round(report.mean_f1, 6))
    timer.stage("write")
    payload = {
        "command": "crossval",
        "config": _report_config(args),
        "report": report.to_dict(),
    }
    write_json(os.path.join(args.out, "report.json"), payload)
    return {"folds": len(report.folds)}, _resolved_config(args)


def _cmd_transfer(args, timer: _Timer):
    config = _metric_config(args)
    timer.stage("ingest")
    source_city = _load_city(args, args.source, require_labels=True)
    target_city = _load_city(args, args.target, require_labels=True)
    timer.stage("score")
    source_scores = score_city(source_city, config, workers=args.workers)
    target_scores = score_city(target_city, config, workers=args.workers)
    timer.stage("evaluate")
    report = evaluation.cross_city_transfer(
        source_city, source_scores, target_city, target_scores, method=args.method
    )
    _log_kv(
        stage="transfer",
        theta=report.theta,
        source_f1=round(report.source_report.f1, 6),
        target_f1=round(report.target_report.f1, 6),
    )
    timer.stage("write")
    payload = {
        "command": "transfer",
        "config": _report_config(args),
        "report": report.to_dict(),
    }
    write_json(os.path.join(args.out, "report.json"), payload)
    return {}, _resolved_config(args)


def _cmd_sweep(args, timer: _Timer):
    try:
        grids = [int(g) for g in args.grids.split(",") if g.strip()]
    except ValueError:
        grids = []
    if not grids:
        raise InvalidConfigError(f"--grids expects comma-separated integers, got {args.grids!r}")
    if len(set(grids)) < len(grids):
        raise InvalidConfigError(f"--grids lists a grid more than once, got {args.grids!r}")
    base = _metric_config(args)
    for n in grids:
        replace(base, grid_n=n)  # MetricConfig's own grid_n check, before any input is read
    timer.stage("ingest")
    city = _load_city(args, args.data, require_labels=True)
    timer.stage("sweep")
    results = evaluation.resolution_sweep(
        city, CLI_METHODS[args.method], grids, base, workers=args.workers
    )
    timer.stage("write")
    write_csv(
        os.path.join(args.out, "sweep.csv"),
        ["grid_n", "method", "precision", "recall", "f1"],
        ((str(n), args.method, repr(rep.precision), repr(rep.recall), repr(rep.f1)) for n, rep in results),
    )
    payload = {
        "command": "sweep",
        "config": _report_config(args),
        "results": [{"grid_n": n, "report": rep.to_dict()} for n, rep in results],
    }
    write_json(os.path.join(args.out, "report.json"), payload)
    print(f"{'grid_n':>8} {'precision':>10} {'recall':>10} {'f1':>10}")
    for n, rep in results:
        print(f"{n:>8} {rep.precision:>10.4f} {rep.recall:>10.4f} {rep.f1:>10.4f}")
    return {"grids": len(results)}, _resolved_config(args)


# ---------------------------------------------------------------- parser


def _add_data_opts(p):
    p.add_argument("data", help="data directory holding addresses/locations/labels files")
    p.add_argument("--format", choices=FORMATS, default="csv")


def _add_common_opts(p):
    p.add_argument("--out", default="out", help="output directory (default: out)")
    p.add_argument("--verbose", action="store_true")


def _add_cluster_threshold(p):
    p.add_argument("--cluster-threshold", type=float, default=DEFAULT_CLUSTER_THRESHOLD)


def _add_scoring_opts(p):
    """The options of the five commands that score pairs."""
    defaults = {f.name: f.default for f in fields(MetricConfig)}
    for name in _TUNABLES:
        default = defaults[name]
        p.add_argument("--" + name.replace("_", "-"), type=type(default), default=default)
    _add_cluster_threshold(p)
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker pool size for per-district scoring (default: 1)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poialias",
        description="Discover POI name aliases from delivery addresses and user GPS locations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a seeded synthetic city")
    p.add_argument("--seed", type=int, default=SynthConfig.seed)
    p.add_argument("--config", action="append", metavar="KEY=VALUE", help="override a synth config field")
    _add_common_opts(p)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("ingest-check", help="parse inputs and report row errors and orphans")
    _add_data_opts(p)
    _add_common_opts(p)
    p.set_defaults(func=_cmd_ingest_check)

    p = sub.add_parser("preprocess", help="emit per-district canonical name maps")
    _add_data_opts(p)
    _add_common_opts(p)
    _add_cluster_threshold(p)
    p.set_defaults(func=_cmd_preprocess)

    method_help = "similarity method"
    for name, handler, needs_threshold in (
        ("discover", _cmd_discover, True),
        ("evaluate", _cmd_evaluate, True),
        ("crossval", _cmd_crossval, False),
    ):
        p = sub.add_parser(name)
        _add_data_opts(p)
        p.add_argument("--method", choices=sorted(CLI_METHODS), required=True, help=method_help)
        if needs_threshold:
            p.add_argument(
                "--threshold",
                default="calibrate",
                help="numeric threshold or 'calibrate' (default)",
            )
        if name == "crossval":
            p.add_argument(
                "--train-frac", type=float, default=evaluation.DEFAULT_TRAIN_FRAC, dest="train_frac"
            )
        if name == "discover":
            p.add_argument("--dump-profiles", action="store_true", dest="dump_profiles")
            p.add_argument("--dump-density", action="store_true", dest="dump_density")
        _add_common_opts(p)
        _add_scoring_opts(p)
        p.set_defaults(func=handler)

    p = sub.add_parser("transfer", help="calibrate on a source city, evaluate on a target city")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--format", choices=FORMATS, default="csv")
    p.add_argument("--method", choices=sorted(CLI_METHODS), required=True)
    _add_common_opts(p)
    _add_scoring_opts(p)
    p.set_defaults(func=_cmd_transfer)

    p = sub.add_parser("sweep", help="calibrate and evaluate across grid resolutions")
    _add_data_opts(p)
    p.add_argument("--method", choices=("kl", "jaccard"), required=True)
    p.add_argument("--grids", default="20,50,150,300,500")
    _add_common_opts(p)
    _add_scoring_opts(p)
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(message)s",
        stream=sys.stderr,
    )
    timer = _Timer()
    try:
        counts, config = args.func(args, timer)
        timer.done()
        manifest = {
            "command": args.command,
            "config": config,
            "counts": counts,
            "timings_ms": timer.timings_ms,
        }
        write_json(os.path.join(args.out, "run_manifest.json"), manifest)
    except (PoiAliasError, OSError) as exc:
        print(f"error: command={args.command} {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
