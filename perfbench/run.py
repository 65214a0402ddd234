#!/usr/bin/env python3
"""Benchmark of the advrelight CLI workloads.

    python3 perfbench/run.py --workload aq_analytic --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 15 --trace 0

Drives one workload (see ``workloads.py``) through ``advrelight.cli.cli``
in this process, with one thread, repeating whole passes for about
``--seconds`` seconds. Every pass's outputs are checked; a failed check
makes the run fail. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics from untraced passes, after
one untimed warm-up pass where the workload has one:

- ``units_per_s``: units completed per second of pass wall time. A unit is
  one attacked target (aq workloads), one training-sample gradient
  (ap_train) or one phy-sim scenario.
- ``unit_p50_ms`` and ``unit_tail_ms``: median unit latency, and latency at
  the highest percentile with at least 10 of the pass's samples beyond it.
- ``setup_s``: median over fresh processes of the time from before the
  package import to the start of the first unit.
- ``peak_rss_mb``: peak resident memory of this process.

The first three are computed per pass and reported as the median over
passes. Failed units (``failed`` of ``attempted``) fail the run.

``--trace 1`` alternates untraced passes with passes that trace every
layer function (``spans.py``), reports the per-layer metrics and
``trace.overhead_frac``, and checks each workload's predicted bypasses.
Spans and a record of every run go to ``.perfbench_run/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

#: One BLAS thread unless the caller chose otherwise, here and in every
#: process the run starts (set-up probes, the embedding endpoint). The
#: program drives its work from one thread on small matrices; a second BLAS
#: thread competes with the endpoint process and with other tenants for the
#: cores: on 2 cores, one other busy process slowed ap_train 10x with 2 threads.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

import spans  # noqa: E402  (imports numpy, which reads the settings above)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60

END_TO_END = ("units_per_s", "unit_p50_ms", "unit_tail_ms", "setup_s", "peak_rss_mb")

#: Deterministic figures that are checked against pins and printed, but are
#: not timing metrics: the same seed always gives the same value.
QUALITY_UNITS = {"auc": "ratio", "mean_abs_change": "luminance",
                 "mean_adjustments": "count"}

#: Bypass predictions checked on every traced run: metrics that must be
#: zero, and metrics that must not be, per workload.
_EXTERNAL = ("embedder.external.calls", "embedder.external.rtt_p50_ms",
             "embedder.external.rtt_tail_ms", "embedder.external.wait_ms",
             "embedder.external.failures")
BYPASS = {
    "aq_analytic": (_EXTERNAL + ("attack_aq.loss_gradient_fd.calls",),
                    ("attack_aq.relight_jacobian.calls", "embedder.input_gradient.calls")),
    "aq_blackbox": (("attack_aq.relight_jacobian.calls", "embedder.input_gradient.calls",
                     "embedder.external.failures"),
                    ("embedder.external.calls", "attack_aq.loss_gradient_fd.calls",
                     "pngio.read_png.calls")),
    "ap_train": (_EXTERNAL + ("attack_aq.loss_gradient_fd.calls",),
                 ("attack_aq.relight_jacobian.calls", "embedder.input_gradient.calls",
                  "attack_ap.sample_gradient.calls")),
    "phy_lightmap": (_EXTERNAL + ("embedder.embed.calls", "embedder.input_gradient.calls"),
                     ("shading.lighting_map.calls", "relight.estimate_light.calls",
                      "phy_sim.map_feedback.calls")),
}


@dataclass
class UnitClock:
    """Times the units of a pass; under tracing it also labels spans by unit."""

    tracer: object = None
    latencies: list = field(default_factory=list)  # seconds, completed units
    ok: int = 0
    failed: int = 0
    _count: int = 0
    _t: float = 0.0

    def start(self) -> None:
        self._count += 1
        if self.tracer is not None:
            self.tracer.unit = self._count
        self._t = time.perf_counter()

    def stop(self, failed: bool) -> None:
        elapsed = time.perf_counter() - self._t
        if self.tracer is not None:
            self.tracer.unit = None
        if failed:
            self.failed += 1
        else:
            self.ok += 1
            self.latencies.append(elapsed)

    def wrap(self, fn):
        def unit(*args, **kwargs):
            self.start()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.stop(failed=True)
                raise
            self.stop(failed=False)
            return result
        return unit


@dataclass
class PassResult:
    wall_s: float
    units: int
    failed: int
    latencies: list
    digests: dict
    quality: dict
    problems: list

    @property
    def units_per_s(self) -> float:
        return (self.units - self.failed) / self.wall_s


def run_cli(argv) -> tuple[int, str]:
    """Run one CLI command; returns its exit code and what it wrote to stderr.

    An exception that escapes the CLI is a failed command (code -1), so the
    run reports it instead of stopping.
    """
    from advrelight.cli import cli
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            rc = cli(argv)
        except Exception:
            traceback.print_exc()
            rc = -1
    return rc, err.getvalue()


@contextlib.contextmanager
def replaced(module: str, fn_name: str, make_wrapper):
    """Replace every binding of ``advrelight.<module>.<fn_name>`` while active."""
    original = getattr(sys.modules[f"advrelight.{module}"], fn_name)
    undo = spans.replace_bindings(original, make_wrapper(original), spans.package_modules())
    try:
        yield
    finally:
        spans.restore(undo)


@contextlib.contextmanager
def capture_reports():
    """Collect the report of every ``harness.evaluate`` call while active."""
    reports = []

    def make_wrapper(evaluate):
        def capture(*args, **kwargs):
            reports.append(evaluate(*args, **kwargs))
            return reports[-1]
        return capture

    with replaced("harness", "evaluate", make_wrapper):
        yield reports


def run_pass(workload, tracer=None) -> PassResult:
    """Run the workload's commands once, then check what they wrote."""
    clock = UnitClock(tracer)
    per_command = workload.unit_function is None
    if tracer is not None:
        tracer.begin_pass()
    workload.out.mkdir(parents=True, exist_ok=True)
    codes = []
    with contextlib.ExitStack() as stack:
        reports = stack.enter_context(capture_reports())
        if not per_command:
            stack.enter_context(replaced(*workload.unit_function, clock.wrap))
        t0 = time.perf_counter()
        for argv in workload.commands():
            if per_command:
                clock.start()
            rc, err = run_cli(argv)
            if per_command:
                clock.stop(failed=rc != 0)
            codes.append((rc, argv[0], err))
        wall = time.perf_counter() - t0

    units = workload.units_per_pass()
    problems = [f"{cmd} exited {rc}: {err.strip()[-300:]}" for rc, cmd, err in codes if rc]
    if per_command:
        failed = clock.failed
    elif problems:
        failed = units  # a failed command leaves no usable result for any unit
    else:
        failed = units - clock.ok
    if clock.ok + clock.failed != units and not problems:
        problems.append(f"ran {clock.ok + clock.failed} units, expected {units}")
    digests, quality = {}, {}
    if not problems:
        problems += workload.check(reports)
        digests = workload.digests()
        quality = workload.quality(reports)
    return PassResult(wall, units, failed, clock.latencies, digests, quality, problems)


def run_passes(workload, seconds: float) -> tuple[list[PassResult], list[PassResult]]:
    """Repeat passes while the next one is expected to end within ``seconds``.

    Warm-up passes run first and are returned with the rest: their outputs
    are checked like any other, but they are not timed.
    """
    warmup = [run_pass(workload) for _ in range(workload.warmup_passes)]
    results = []
    begin = time.perf_counter()
    while True:
        results.append(run_pass(workload))
        elapsed = time.perf_counter() - begin
        if elapsed + results[-1].wall_s > seconds:
            return warmup, results


def run_alternating(workload, seconds: float, tracer):
    """Alternate untraced and traced passes, at least one of each.

    Alternating exposes both kinds of pass to the same warm-up and drift,
    so their ratio gives the tracing overhead.
    """
    warmup = [run_pass(workload) for _ in range(workload.warmup_passes)]
    untraced, traced = [], []
    begin = time.perf_counter()
    while True:
        untraced.append(run_pass(workload))
        with tracer:
            traced.append(run_pass(workload, tracer))
        elapsed = time.perf_counter() - begin
        if elapsed + untraced[-1].wall_s + traced[-1].wall_s > seconds:
            return warmup, untraced, traced


def setup_times(workload) -> list[float]:
    """Cold set-up time of the workload's first command, in fresh processes."""
    spec = json.dumps({"argv": workload.commands()[0], "stop": list(workload.setup_stop)})
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), spec],
                              capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                              cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def baseline_auc(workload) -> float | None:
    """AUC of the workload's evaluation without an attack, if it has one."""
    command = getattr(workload, "baseline_command", None)
    if command is None:
        return None
    with capture_reports() as reports:
        rc, err = run_cli(command())
    if rc != 0:
        raise RuntimeError(f"baseline eval exited {rc}: {err.strip()[-300:]}")
    return reports[-1].auc


def output_checks(workload, passes, expected) -> list[str]:
    """Checks across passes: no failures, identical outputs, pinned values."""
    problems = []
    for i, result in enumerate(passes):
        problems += [f"pass {i}: {p}" for p in result.problems]
        if result.failed:
            problems.append(f"pass {i}: {result.failed} of {result.units} units failed")
    if problems:
        return problems
    first = passes[0]
    for i, result in enumerate(passes[1:], start=1):
        if result.digests != first.digests or result.quality != first.quality:
            problems.append(f"pass {i} wrote different outputs than pass 0")
    pinned = expected.get(workload.name, {}).get(str(workload.seed))
    if pinned is not None:
        for key, value in pinned["quality"].items():
            if abs(first.quality[key] - value) > 1e-12:
                problems.append(f"{key} {first.quality[key]!r} != pinned {value!r}")
        for name, digest in pinned["sha256"].items():
            if first.digests.get(name) != digest:
                problems.append(f"{name} differs from the pinned bytes")
    return problems


def pin_to_one_cpu() -> None:
    """Run this process, and every process it starts, on one CPU.

    Each workload has one caller at a time, and the aq_blackbox client and
    its endpoint take turns, so one CPU costs no parallelism. Across CPUs
    every round trip waits on cross-CPU wake-ups, which the host schedules:
    in interleaved trials on 2 cores the unpinned black-box pass ran at
    1.2-2.1 units/s against 2.4 pinned.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    sha = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, cwd=ROOT)
        sha = proc.stdout.strip() or sha
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else "all",
        "blas_threads": {var: os.environ.get(var, "unset") for var in BLAS_THREAD_VARS},
    }


def end_to_end(passes, setups) -> tuple[dict, dict]:
    """End-to-end metrics, plus the tail's percentile and per-pass sample count.

    Rate, median and tail are taken per pass and reported as their median
    over passes, so one disturbed pass moves none of them.
    """
    tails = [spans.tail([1e3 * t for t in r.latencies]) for r in passes]
    metrics = {
        "units_per_s": statistics.median(r.units_per_s for r in passes),
        "unit_p50_ms": statistics.median(1e3 * statistics.median(r.latencies) for r in passes),
        "unit_tail_ms": statistics.median(value for value, _, _ in tails),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    _, pct, n = min(tails, key=lambda t: t[2])
    return metrics, {"unit_tail_percentile": pct, "unit_samples": n,
                     "setup_samples": setups}


def per_layer(workload_name, untraced, traced, tracer) -> tuple[dict, list[str]]:
    """Median per-layer metrics over traced passes, and bypass-check problems."""
    per_pass = [spans.layer_metrics(s) for s in tracer.passes]
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    plain = statistics.median(r.units_per_s for r in untraced)
    metrics["trace.overhead_frac"] = 1.0 - statistics.median(
        r.units_per_s for r in traced) / plain
    zero, nonzero = BYPASS[workload_name]
    # A prediction about a function the package no longer has is moot.
    nonzero = [name for name in nonzero if name.rsplit(".", 1)[0] not in tracer.missing]
    problems = [f"bypass check: {name} = {metrics[name]} on {workload_name}, predicted 0"
                for name in zero if metrics[name] != 0]
    problems += [f"bypass check: {name} = 0 on {workload_name}, predicted > 0"
                 for name in nonzero if metrics[name] == 0]
    return metrics, problems


def write_spans(path: Path, tracer) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(["pass", "name", "start", "end", "parent", "unit",
                             "failed", "rows", "repeat"]) + "\n")
        for index, pass_spans in enumerate(tracer.passes):
            for s in pass_spans:
                fh.write(json.dumps([index, s.name, s.start, s.end, s.parent, s.unit,
                                     s.failed, s.rows, s.repeat]) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pin_to_one_cpu()
    # Let a terminated run unwind, so the CLI closes any endpoint it started.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "advrelight" / "cli.py").is_file():
        print(f"error: no advrelight sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload == "all":
        return run_all(args, workloads.WORKLOADS)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from all, "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}"
    work = RUN_DIR / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = workloads.WORKLOADS[args.workload](work, args.seed)

    problems = []
    if workload.fingerprint(args.seed) == workload.fingerprint(args.seed + 1):
        problems.append(f"seeds {args.seed} and {args.seed + 1} give the same inputs")
    workload.prepare()
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "environment": environment()}

    if args.trace:
        tracer = spans.Tracer()
        warmup, untraced, traced = run_alternating(workload, args.seconds, tracer)
        passes = warmup + untraced + traced
        metrics, bypass_problems = per_layer(args.workload, untraced, traced, tracer)
        problems += bypass_problems
        record["absent_functions"] = tracer.missing
        write_spans(RUN_DIR / f"{tag}-spans.jsonl", tracer)
    else:
        setups = setup_times(workload)
        warmup, timed = run_passes(workload, args.seconds)
        passes = warmup + timed
        metrics, extra = end_to_end(timed, setups)
        record.update(extra)

    expected = workloads.load_expected()
    record["pinned"] = str(args.seed) in expected.get(args.workload, {})
    problems += output_checks(workload, passes, expected)
    baseline = None
    if not problems:
        try:
            baseline = baseline_auc(workload)
        except RuntimeError as exc:
            problems.append(str(exc))
        auc = passes[0].quality.get("auc")
        if baseline is not None and not auc < baseline:
            problems.append(f"attack AUC {auc:.6g} is not below the unattacked {baseline:.6g}")

    attempted = sum(r.units for r in passes)
    failed = sum(r.failed for r in passes)
    record.update(passes=len(passes), warmup_passes=len(warmup),
                  pass_walls_s=[r.wall_s for r in passes], attempted=attempted, failed=failed,
                  quality=passes[0].quality, baseline_auc=baseline,
                  problems=problems, metrics=metrics)
    with open(RUN_DIR / f"{tag}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    report(record)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit_of(name)}
                                  for name, value in metrics.items()}}))
    return 0 if not problems else 1


def run_all(args, names) -> int:
    """Run every workload, each in its own process as a single run would be."""
    codes = []
    for name in names:
        codes.append(subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode)
    return max(codes)


def unit_of(name: str) -> str:
    if name == "units_per_s":
        return "1/s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def report(record: dict) -> None:
    """Human-readable summary, printed before the JSON line."""
    env = record["environment"]
    print(f"perfbench {record['workload']} seed={record['seed']} trace={record['trace']} "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    rate = record["failed"] / record["attempted"]
    print(f"passes={record['passes']} (warm-up {record['warmup_passes']}) units={record['attempted']} "
          f"error_rate={rate:.6g} ({record['failed']} of {record['attempted']} units failed)")
    for name, value in record["metrics"].items():
        line = f"{name} {value:.6g} {unit_of(name)}"
        if name == "unit_tail_ms":
            line += (f" (p{record['unit_tail_percentile']:.2f} of "
                     f"{record['unit_samples']} units per pass, median of "
                     f"{record['passes'] - record['warmup_passes']} passes)")
        if name.endswith(".repeat_frac"):
            base = record["metrics"][name.replace("repeat_frac", "calls")]
            line += f" (of {base:.6g} calls)"
        print(line)
    pinned = "pinned for this seed" if record["pinned"] else "no pin for this seed"
    for name, value in record["quality"].items():
        print(f"{name} {value:.6g} {QUALITY_UNITS[name]} ({pinned})")
    if record["baseline_auc"] is not None:
        print(f"baseline_auc {record['baseline_auc']:.6g} ratio (method none)")
    if record.get("absent_functions"):
        print(f"not in the package, read as 0: {', '.join(record['absent_functions'])}")
    for problem in record["problems"]:
        print(f"CHECK FAILED: {problem}")


if __name__ == "__main__":
    sys.exit(main())
