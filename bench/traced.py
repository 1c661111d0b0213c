"""Traced run: per-layer busy times and counts, in-process.

Composition: `poialias.cli.main` runs each command of the workload's mix
in-process; then the harness calls the public functions the CLI handler
calls, in the same order and with the CLI's own defaults, each inside a
span. The `cli.main` time minus the command's spans is the CLI's glue
(argument parsing, writes, manifest).

Breakdown: the sub-layer public functions re-run on the same inputs
(per-file parsers, near-duplicate clustering, profile build, per-profile
features and per-pair kernels) and must reproduce the composite results
exactly, scores included. Every method's features and kernels are timed
on every workload, so each per-layer metric exists for each workload.

Spans are kept in memory and written to the run record at the end.
"""

from __future__ import annotations

import contextlib
import io
import os
import statistics
import sys
import time
import traceback

import numpy as np
from poialias import cli, discovery, distribution, evaluation, geo, ingestion
from poialias import pipeline, preprocess, profile, synth

import workloads as wl


class Tracer:
    """Spans (name, start, end, parent) kept in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {"name": name, "parent": self._open[-1] if self._open else None}
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def busy(self, name: str) -> float:
        return sum(self.durations(name))

    def median(self, name: str) -> float:
        d = self.durations(name)
        return statistics.median(d) if d else 0.0

    def children_s(self, index: int) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["parent"] == index)


def _metric_config(args):
    # what the CLI builds for --threshold calibrate
    return discovery.MetricConfig(
        method=cli.CLI_METHODS[args.method],
        threshold=0.0,
        local_window_m=args.local_window_m,
        grid_n=args.grid_n,
        kl_epsilon=args.kl_epsilon,
        min_profile_points=args.min_profile_points,
    )


# ------------------------------------------------------------ set-up


def _synth_config(seed: int, items) -> object:
    """SynthConfig from --config key=value items, parsed as the CLI does."""
    defaults = synth.SynthConfig()
    overrides = {}
    for item in items:
        key, value = item.split("=", 1)
        current = getattr(defaults, key)
        if isinstance(current, tuple):
            overrides[key] = tuple(int(v) for v in value.split(","))
        else:
            overrides[key] = type(current)(value)
    return synth.SynthConfig(seed=seed, **overrides)


def _setup(T: Tracer, run, data: str):
    w = run.workload
    items = w.synth_config + (wl.SMOKE_CONFIG if run.args.smoke else ())
    config = _synth_config(run.args.seed, items)
    summary = T.call("synth.generate_city", synth.generate_city, config, data)
    injected = wl.inject_noise(data, run.args.seed) if w.noisy else None
    run.check_inputs(injected, wl.digest(data))
    rows = summary["n_addresses"] + summary["n_points"] + summary["n_labels"]
    return injected, rows


# ------------------------------------------------------------ composition


def _compose(T: Tracer, args) -> dict:
    """The CLI handler's public calls for one command; returns its results."""
    if args.command == "ingest-check":
        corpus = T.call(
            "ingestion.load_corpus", ingestion.load_corpus, args.data, fmt=args.format, require_labels=False
        )
        T.call("ingestion.partition_by_district", ingestion.partition_by_district, corpus.addresses)
        return {"corpus": corpus}
    corpus = T.call(
        "ingestion.load_corpus", ingestion.load_corpus, args.data, fmt=args.format, require_labels=True
    )
    city = T.call(
        "pipeline.build_city_data", pipeline.build_city_data, corpus, cluster_threshold=args.cluster_threshold
    )
    config = _metric_config(args)
    out = {"corpus": corpus, "city": city}
    if args.command == "sweep":
        grids = [int(g) for g in args.grids.split(",") if g.strip()]
        out["sweep"] = T.call(
            "evaluation.resolution_sweep",
            evaluation.resolution_sweep,
            city,
            config.method,
            grids,
            config,
            workers=args.workers,
        )
        return out
    scores = T.call(
        f"pipeline.score_city.{args.method}", pipeline.score_city, city, config, workers=args.workers
    )
    cal = T.call(
        f"evaluation.calibrate_on_districts.{args.method}",
        evaluation.calibrate_on_districts,
        city,
        scores,
        sorted(scores),
    )
    out.update(scores=scores, calibration=cal)
    if args.command == "evaluate":
        out["report"] = T.call(
            "evaluation.evaluate_districts",
            evaluation.evaluate_districts,
            city,
            scores,
            cal.theta,
            method=args.method,
        )
    else:  # discover
        for d, pairs in scores.items():
            dd = city.districts[d]
            T.call(
                "discovery.apply_threshold",
                discovery.apply_threshold,
                pairs,
                cal.theta,
                d,
                dd.standard_names,
                dd.candidate_names,
            )
    return out


def _composed_summary(label: str, res: dict) -> dict:
    """The composition's results in the shape of workloads.summarize."""
    if label == wl.INGEST_CHECK.label:
        return {n: r.n_errors for n, r in sorted(res["corpus"].reports.items())}
    if label.startswith("evaluate_"):
        return {k: getattr(res["report"], k) for k in wl.EVALUATE_FACTS}
    if label.startswith("sweep_"):
        return {"f1": {str(n): rep.f1 for n, rep in res["sweep"]}}
    pairs = sum(len(p) for p in res["scores"].values())
    return {"alias_rows": pairs, "pairs": pairs}


def _cli_summary(label: str, summary: dict) -> dict:
    if label == wl.INGEST_CHECK.label:
        return {n: sum(per.values()) for n, per in sorted(summary["errors"].items())}
    return summary


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


# ------------------------------------------------------------ breakdown


def _same_profiles(a: dict, b: dict) -> bool:
    return sorted(a) == sorted(b) and all(
        a[n].user_count == b[n].user_count and np.array_equal(a[n].points, b[n].points) for n in a
    )


def _breakdown_inputs(T: Tracer, data: str, corpus, city, defaults, counts: dict) -> list[str]:
    """Parsers, clustering and profile build re-run; returns mismatches."""
    problems = []
    parsers = (
        ("addresses", ingestion.parse_address_records),
        ("locations", ingestion.parse_location_log),
        ("labels", ingestion.parse_labels),
    )
    for name, fn in parsers:
        parsed, report = T.call(f"ingestion.{fn.__name__}", fn, os.path.join(data, f"{name}.csv"))
        counts[f"ingestion.rows.{name}"] = report.n_rows
        counts[f"ingestion.rows_rejected.{name}"] = report.n_errors
        whole = {"addresses": corpus.addresses, "locations": corpus.locations, "labels": corpus.labels}[name]
        same = (
            parsed.keys() == whole.keys() and all(np.array_equal(parsed[u], whole[u]) for u in parsed)
            if name == "locations"
            else parsed == whole
        )
        if not same or report.to_dict() != corpus.reports[name].to_dict():
            problems.append(f"{fn.__name__} differs from load_corpus's result")

    by_district = ingestion.partition_by_district(corpus.addresses)
    spellings = canonical = n_profiles = n_points = insufficient = 0
    for d, dd in sorted(city.districts.items()):
        freq: dict[str, int] = {}
        for rec in by_district[d]:
            cleaned = preprocess.clean_text(rec.poi_name)
            if cleaned:
                freq[cleaned] = freq.get(cleaned, 0) + 1
        cmap = T.call(
            "preprocess.cluster_near_duplicates",
            preprocess.cluster_near_duplicates,
            sorted(freq.items()),
            defaults.cluster_threshold,
        )
        with T.span("profile.build"):
            index = profile.build_associated_users(by_district[d], cmap)
            profiles = profile.build_all_profiles(index, corpus.locations)
        if cmap.mapping != dd.canonical_map.mapping:
            problems.append(f"{d}: cluster_near_duplicates differs from build_city_data's map")
        if not _same_profiles(profiles, dd.profiles):
            problems.append(f"{d}: rebuilt profiles differ from build_city_data's")
        spellings += len(freq)
        canonical += len(cmap.cluster_sizes)
        n_profiles += len(profiles)
        n_points += sum(p.point_count for p in profiles.values())
        insufficient += sum(p.point_count < defaults.min_profile_points for p in profiles.values())
    counts.update(
        {
            "preprocess.spellings": spellings,
            "preprocess.canonical_names": canonical,
            "profile.profiles": n_profiles,
            "profile.points": n_points,
            "profile.insufficient": insufficient,
        }
    )
    return problems


def _features(T: Tracer, method: str, profiles, grid_feats: dict, cfg, counts: dict) -> dict:
    """Per-profile features as the pair scorer builds them.

    kl and jaccard take their normalized grids from `grid_feats`, which
    the rasterization breakdown built at the configured grid_n.
    """
    if method == "edit_distance":
        return {p.name: p.name for p in profiles}
    if method in ("kl_div", "jaccard"):
        return {p.name: grid_feats.get(p.name) for p in profiles}
    usable = [p for p in profiles if p.point_count >= cfg.min_profile_points]
    feats = {p.name: None for p in profiles}
    if method == "centroid":
        with T.span("geo.centroid"):
            feats.update({p.name: geo.centroid(p.points) for p in usable})
    elif method == "loc_cent":
        with T.span("geo.local_region_centroid"):
            feats.update({p.name: geo.local_region_centroid(p.points, cfg.local_window_m) for p in usable})
        counts["geo.window_calls"] += len(usable)
        counts["geo.window_points"] += sum(p.point_count for p in usable)
    return feats


_KERNEL_SPAN = {
    "centroid": "geo.haversine",
    "loc_cent": "geo.haversine",
    "kl_div": "distribution.kl_divergence",
    "jaccard": "distribution.jaccard_distance",
    "edit_distance": "discovery.normalized_edit_distance",
}


def _kernels(T: Tracer, method: str, stds, cands, feats: dict, cfg) -> list:
    """Every pair's score from the per-pair kernels, as the pair scorer forms it."""
    geo_floor, div_floor = discovery.MIN_GEO_DISTANCE_M, discovery.MIN_DIVERGENCE
    kernel = {
        "centroid": lambda a, b: 1.0 / max(geo.haversine(a, b), geo_floor),
        "loc_cent": lambda a, b: 1.0 / max(geo.haversine(a, b), geo_floor),
        "kl_div": lambda a, b: 1.0 / max(distribution.kl_divergence(a, b, cfg.kl_epsilon), div_floor),
        "jaccard": lambda a, b: 1.0 / max(distribution.jaccard_distance(a, b), div_floor),
        "edit_distance": lambda a, b: 1.0 - preprocess.normalized_edit_distance(a, b),
    }[method]
    out = []
    with T.span(_KERNEL_SPAN[method]):
        for ci in stds:
            fi = feats[ci.name]
            for cj in cands:
                fj = feats[cj.name]
                out.append(None if fi is None or fj is None else kernel(fi, fj))
    return out


def _rasterize_grids(T: Tracer, city, defaults, counts: dict) -> dict:
    """Every sweep grid's rasterization of each sufficient profile.

    Returns the normalized grids at the configured grid_n per district:
    the kl and jaccard features.
    """
    for g in wl.SWEEP_GRIDS:
        counts[f"distribution.occupied_cells.g{g}"] = 0
    counts["distribution.points_dropped"] = 0
    features = {}
    for d, dd in sorted(city.districts.items()):
        usable = [p for p in dd.profiles.values() if p.point_count >= defaults.min_profile_points]
        for g in wl.SWEEP_GRIDS:
            with T.span(f"distribution.rasterize.g{g}"):
                grids = {p.name: distribution.rasterize(p, dd.bbox, g) for p in usable}
                normalized = {name: distribution.normalize(dm) for name, dm in grids.items()}
            counts[f"distribution.occupied_cells.g{g}"] += sum(len(dm.cells) for dm in grids.values())
            if g == defaults.grid_n:
                counts["distribution.points_dropped"] += sum(dm.dropped for dm in grids.values())
                features[d] = normalized
    return features


def _breakdown_scoring(
    T: Tracer, data: str, city, defaults, composed: dict, counts: dict
) -> list[str]:
    """Features and kernels per method; they must reproduce score_city exactly."""
    problems = []
    counts.update({"geo.window_calls": 0, "geo.window_points": 0})
    grid_feats = _rasterize_grids(T, city, defaults, counts)
    for cli_method in wl.METHODS:
        args = cli.build_parser().parse_args(["evaluate", data, "--method", cli_method])
        cfg = _metric_config(args)
        scores = composed.get(cli_method)
        if scores is None:
            scores = T.call(
                f"pipeline.score_city.{cli_method}", pipeline.score_city, city, cfg, workers=args.workers
            )
            cal = T.call(
                f"evaluation.calibrate_on_districts.{cli_method}",
                evaluation.calibrate_on_districts,
                city,
                scores,
                sorted(scores),
            )
            counts[f"evaluation.calibration_candidates.{cli_method}"] = cal.n_candidates
        n_pairs = n_insufficient = 0
        for d, dd in sorted(city.districts.items()):
            stds, cands = dd.standard_profiles(), dd.candidate_profiles()
            pairs = T.call(
                f"discovery.score_pairs.{cli_method}", discovery.score_pairs, stds, cands, cfg, bbox=dd.bbox
            )
            feats = _features(T, cfg.method, stds + cands, grid_feats.get(d, {}), cfg, counts)
            rebuilt = _kernels(T, cfg.method, stds, cands, feats, cfg)
            from_city = [p.score for p in scores.get(d, [])]
            if [p.score for p in pairs] != from_city or rebuilt != from_city:
                problems.append(f"{d}/{cli_method}: features + kernels do not reproduce score_city")
            n_pairs += len(rebuilt)
            n_insufficient += sum(s is None for s in rebuilt)
        if cli_method == "centroid":
            counts["discovery.pairs"] = n_pairs
            counts["discovery.pairs_insufficient"] = n_insufficient
    return problems


# ------------------------------------------------------------ the run


def traced_run(run, run_cli) -> tuple[dict, dict]:
    T = Tracer()
    data = os.path.join(run.work, "data")
    injected, rows_written = _setup(T, run, data)
    counts: dict = {"synth.rows_written": rows_written}

    startup = []  # interpreter plus imports: a child that only prints its help
    for i in range(3):
        res = run_cli(["--help"], os.path.join(run.work, f"help{i}.log"))
        if not res.ok:
            run.problems.append(f"--help exited {res.exit_code}: {res.stderr[-500:]}")
        startup.append(res.wall_s)

    main_s: dict[str, float] = {}
    glue_s: dict[str, float] = {}
    overhead_s = 0.0
    bytes_written: dict[str, int] = {}
    composed_scores: dict = {}
    first = None
    summaries = {}
    for cmd in run.workload.mix:
        out = os.path.join(run.work, "out", cmd.label)
        argv = [a.replace("{data}", data) for a in cmd.argv] + ["--out", out]
        args = cli.build_parser().parse_args(argv)
        problems = []
        try:
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):  # sweep prints a table
                code = cli.main(argv)
            main_s[cmd.label] = time.perf_counter() - t0
            with T.span(f"command.{cmd.label}") as root:
                res = _compose(T, args)
            composed_s = root["end"] - root["start"]
            overhead_s += composed_s - T.children_s(T.spans.index(root))
            glue_s[cmd.label] = main_s[cmd.label] - composed_s
            if code != 0:
                problems.append(f"cli.main returned {code}")
            else:
                bytes_written[cmd.label] = _dir_bytes(out)
                summaries[cmd.label] = wl.summarize(cmd.label, out)
                if _cli_summary(cmd.label, summaries[cmd.label]) != _composed_summary(cmd.label, res):
                    problems.append("the composition's results differ from cli.main's outputs")
            if "scores" in res and cmd.label.startswith("evaluate_"):
                composed_scores[args.method] = res["scores"]
                counts[f"evaluation.calibration_candidates.{args.method}"] = res["calibration"].n_candidates
            if first is None and "city" in res:
                first = res
        except Exception:  # one command's crash must not hide the others' results
            problems.append(traceback.format_exc(limit=3))
        run.problems += [f"{cmd.label}: {p}" for p in problems]
        run.record(not problems)
    for label, msg in wl.check_outputs(summaries, injected, run.pins):
        run.problems.append(f"{label}: {msg}")

    if first is not None:
        # the CLI's defaults for the tunables the layers take
        defaults = cli.build_parser().parse_args(["evaluate", data, "--method", "jaccard"])
        run.problems += _breakdown_inputs(T, data, first["corpus"], first["city"], defaults, counts)
        run.problems += _breakdown_scoring(T, data, first["city"], defaults, composed_scores, counts)

    metrics = {
        "ingestion.parse_location_log_s": T.busy("ingestion.parse_location_log"),
        "ingestion.parse_address_records_s": T.busy("ingestion.parse_address_records"),
        "ingestion.parse_labels_s": T.busy("ingestion.parse_labels"),
        "ingestion.load_corpus_s": T.median("ingestion.load_corpus"),
        "preprocess.cluster_near_duplicates_s": T.busy("preprocess.cluster_near_duplicates"),
        "profile.build_s": T.busy("profile.build"),
        "pipeline.build_city_data_s": T.median("pipeline.build_city_data"),
        "geo.local_region_centroid_s": T.busy("geo.local_region_centroid"),
        "geo.centroid_s": T.busy("geo.centroid"),
        "geo.haversine_s": T.busy("geo.haversine"),
        "distribution.kl_divergence_s": T.busy("distribution.kl_divergence"),
        "distribution.jaccard_distance_s": T.busy("distribution.jaccard_distance"),
        "discovery.normalized_edit_distance_s": T.busy("discovery.normalized_edit_distance"),
        "evaluation.evaluate_districts_s": T.median("evaluation.evaluate_districts"),
        "synth.generate_city_s": T.busy("synth.generate_city"),
        "cli.startup_s": statistics.median(startup),
        "cli.main_s": sum(main_s.values()),
        "cli.glue_s": sum(glue_s.values()),
        "cli.trace_overhead_s": overhead_s,
        "cli.bytes_written": sum(bytes_written.values()),
    }
    for method in wl.METHODS:
        metrics[f"pipeline.score_city_s.{method}"] = T.median(f"pipeline.score_city.{method}")
        metrics[f"discovery.score_pairs_s.{method}"] = T.busy(f"discovery.score_pairs.{method}")
        metrics[f"evaluation.calibrate_on_districts_s.{method}"] = T.median(
            f"evaluation.calibrate_on_districts.{method}"
        )
    for g in wl.SWEEP_GRIDS:
        metrics[f"distribution.rasterize_s.g{g}"] = T.busy(f"distribution.rasterize.g{g}")
    metrics.update(counts)
    detail = {"main_s": main_s, "glue_s": glue_s, "bytes_written": bytes_written, "spans": T.spans}
    return {k: (v, unit_of(k)) for k, v in sorted(metrics.items())}, detail


def unit_of(name: str) -> str:
    if "_s." in name or name.endswith("_s"):
        return "s"
    if "bytes" in name:
        return "bytes"
    return "count"
