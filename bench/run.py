"""poialias benchmark: seeded synthetic-city workloads timed through the CLI.

Usage (from the repository root):

    python3 bench/run.py --workload default-city --seed 42 --seconds 20 --trace 0

With --trace 0 every command of the workload's mix runs as a fresh
`python3 -m poialias.cli` child process, one at a time, and the run
reports end-to-end wall times. With --trace 1 the mix runs in-process
with a span around every call into a layer (see traced.py) and the run
reports per-layer metrics. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. A fuller record,
including the host-noise readings, lands in .bench_results/.

See bench/README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

import workloads as wl

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
RESULTS_DIR = os.path.join(ROOT, ".bench_results")
SETUP_REPEATS = 2


# ------------------------------------------------------------ child processes


@dataclass
class ChildResult:
    wall_s: float
    peak_rss_mb: float
    exit_code: int
    stderr: str

    @property
    def ok(self) -> bool:
        return self.exit_code == 0


def run_cli(argv: list[str], log_path: str) -> ChildResult:
    """Run one `poialias` command as a child and reap it with wait4.

    Wall time spans spawn to reap; peak RSS is the child's own high-water
    mark from its rusage, not this process's.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, "-m", "poialias.cli", *argv]
    with open(log_path, "w", encoding="utf-8") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=log, env=env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)  # already reaped
    with open(log_path, encoding="utf-8") as log:
        stderr = log.read()
    return ChildResult(wall, usage.ru_maxrss / 1024.0, proc.returncode, stderr)


def with_paths(argv: tuple, data: str, out: str) -> list[str]:
    return [a.replace("{data}", data) for a in argv] + ["--out", out]


# ------------------------------------------------------------ host noise


def reference_loop_s() -> float:
    """Wall time of a fixed pure-Python loop: a yardstick for host speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


def host_record(label: str) -> dict:
    return {
        "when": label,
        "reference_loop_s": reference_loop_s(),
        "loadavg": list(os.getloadavg()),
        "nproc": len(os.sched_getaffinity(0)),
    }


# ------------------------------------------------------------ set-up


class SetupError(RuntimeError):
    """The inputs could not be built, so nothing can be measured."""


class Run:
    """Book-keeping shared by the e2e and traced runs."""

    def __init__(self, args):
        self.args = args
        self.workload = wl.WORKLOADS[args.workload]
        os.makedirs(WORK_ROOT, exist_ok=True)
        self.work = tempfile.mkdtemp(prefix=f"{args.workload}-s{args.seed}-", dir=WORK_ROOT)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.summaries: dict = {}
        self.inputs: dict = {}
        self.pins = None if args.smoke or args.seed != wl.REFERENCE_SEED else wl.load_pins(args.workload)

    def record(self, ok: bool):
        self.attempted += 1
        self.failed += not ok

    def check_pass(self, results, first_bytes: dict, injected):
        """Count each command of a pass as failed on a non-zero exit, a
        report that differs from an earlier pass, or a failed output check."""
        problems = []
        summaries = {}
        for cmd, out, res in results:
            if not res.ok:
                problems.append((cmd.label, f"exited {res.exit_code}: {res.stderr[-500:]}"))
                continue
            name = wl.artifact(cmd.label)
            try:
                with open(os.path.join(out, name), "rb") as fh:
                    blob = fh.read()
                summaries[cmd.label] = wl.summarize(cmd.label, out)
            except (OSError, KeyError, ValueError) as exc:
                problems.append((cmd.label, f"unreadable outputs: {exc!r}"))
                continue
            if first_bytes.setdefault(cmd.label, blob) != blob:
                problems.append((cmd.label, f"{name} differs between passes"))
        problems += wl.check_outputs(summaries, injected, self.pins)
        self.summaries = summaries
        failed = {label for label, _ in problems}
        for cmd, _, _ in results:
            self.record(cmd.label not in failed)
        self.problems += [f"{label}: {msg}" for label, msg in problems]

    def check_inputs(self, injected, digests: dict):
        self.inputs = {"digests": digests, "injected": injected}
        if self.pins is None:
            return
        if digests != self.pins["digests"]:
            self.problems.append(f"input digests {digests} != pinned {self.pins['digests']}")
        if injected is not None and injected != self.pins["injected"]:
            self.problems.append(f"injected {injected} != pinned {self.pins['injected']}")


def setup_once(run: Run, index: int):
    """synth, noise injection, digest check and one warm-up command.

    The warm-up is the mix's first command; its main artifact becomes the
    first sample of the byte-identity check.
    """
    data = os.path.join(run.work, f"data{index}")
    log = os.path.join(run.work, f"setup{index}.log")
    t0 = time.perf_counter()
    synth_argv = tuple(run.workload.synth_argv(run.args.seed, run.args.smoke))
    synth = run_cli(with_paths(synth_argv, data, data), log)
    if not synth.ok:
        raise SetupError(f"synth exited {synth.exit_code}: {synth.stderr[-500:]}")
    injected = wl.inject_noise(data, run.args.seed) if run.workload.noisy else None
    digests = wl.digest(data)
    run.check_inputs(injected, digests)
    first = run.workload.mix[0]
    warm = run_cli(with_paths(first.argv, data, os.path.join(run.work, "out", first.label)), log)
    if not warm.ok:
        raise SetupError(f"warm-up exited {warm.exit_code}: {warm.stderr[-500:]}")
    return data, injected, digests, time.perf_counter() - t0


def setup(run: Run):
    """Set up SETUP_REPEATS times; return the last inputs and the median time."""
    results = []
    for i in range(SETUP_REPEATS):
        if results:
            shutil.rmtree(results[-1][0], ignore_errors=True)
        results.append(setup_once(run, i))
    if len({json.dumps(r[2], sort_keys=True) for r in results}) != 1:
        run.problems.append("the same seed generated different inputs across set-ups")
    data, injected, digests, _ = results[-1]
    return data, injected, statistics.median(r[3] for r in results)


# ------------------------------------------------------------ e2e


def e2e(run: Run, data: str, injected, setup_s: float) -> tuple[dict, dict]:
    passes = []
    first = run.workload.mix[0]
    with open(os.path.join(run.work, "out", first.label, wl.artifact(first.label)), "rb") as fh:
        first_bytes = {first.label: fh.read()}  # written by the last warm-up
    t_start = time.perf_counter()

    def another_pass_fits() -> bool:
        typical = statistics.median(pass_s for pass_s, _ in passes)
        return time.perf_counter() - t_start + typical <= run.args.seconds

    # whole passes only, at least one; another while it should end in time
    while not passes or another_pass_fits():
        t0 = time.perf_counter()
        results = []
        for cmd in run.workload.mix:
            out = os.path.join(run.work, "out", cmd.label)
            log = os.path.join(run.work, f"{cmd.label}.log")
            results.append((cmd, out, run_cli(with_paths(cmd.argv, data, out), log)))
        passes.append((time.perf_counter() - t0, results))
        run.check_pass(results, first_bytes, injected)

    median = statistics.median
    per_command = {
        f"{cmd.label}_s": median([results[i][2].wall_s for _, results in passes])
        for i, cmd in enumerate(run.workload.mix)
    }
    metrics = {
        "setup_s": (setup_s, "s"),
        "pass_s": (median([pass_s for pass_s, _ in passes]), "s"),
        "peak_rss_mb": (median([max(r.peak_rss_mb for _, _, r in results) for _, results in passes]), "MB"),
    }
    detail = {"passes": len(passes), "per_command_s": per_command, "summaries": run.summaries}
    return metrics, detail


# ------------------------------------------------------------ entry


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument(
        "--seconds", type=float, required=True, help="measuring window; whole passes, at least one"
    )
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="shrunken cities, no pinned outputs")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "poialias", "cli.py")):
        print(f"error: no poialias sources under {SRC}", file=sys.stderr)
        return 2
    run = Run(args)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "smoke": args.smoke}
    record["host"] = [host_record("before")]
    try:
        if args.trace:
            sys.path.insert(0, SRC)  # the traced run imports the checkout's poialias
            import traced

            metrics, detail = traced.traced_run(run, run_cli)
        else:
            data, injected, setup_s = setup(run)
            metrics, detail = e2e(run, data, injected, setup_s)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    record["host"].append(host_record("after"))
    record["detail"] = detail
    record["inputs"] = run.inputs
    record["problems"] = run.problems
    result = {
        "correct": not run.problems and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record["result"] = result
    os.makedirs(RESULTS_DIR, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{args.workload}-s{args.seed}-t{args.trace}-{stamp}-{os.getpid()}.json"
    with open(os.path.join(RESULTS_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    for p in run.problems:
        print(f"problem: {p}")
    for host in record["host"]:
        print(
            f"host {host['when']}: reference_loop_s={host['reference_loop_s']:.4f}"
            f" loadavg={host['loadavg']} nproc={host['nproc']}"
        )
    if not args.trace:
        for k, v in sorted(detail["per_command_s"].items()):
            print(f"{k} {v:.4f} s")
        print(f"error_rate {run.failed / max(run.attempted, 1):.4f}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
