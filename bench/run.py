"""Benchmark for ibsest: one caller, a closed loop, three workloads.

Usage (from the repository root):

    python3 bench/run.py --workload paper-cells --seed 42 --seconds 30 --trace 0

A run
1. makes the workload's inputs from ``--seed`` (see ``workloads.py``);
2. measures set-up: several fresh interpreters each import ``ibsest.cli``,
   parse and validate those inputs (``setup_probe.py``);
3. repeats the workload's timed calls, one after another, pass after pass,
   until the next pass would end after ``--seconds``, and checks every
   output;
4. with ``--trace 1``, also makes one untraced pass and one traced pass in
   this process with ``workers=1``, and requires both to be bit-identical to
   the first timed pass.  The traced pass wraps ibsest's public functions
   (``TRACED``) and gives the per-module figures; its spans are written to
   ``bench/out/``.

It prints every metric with its unit, median, quartiles and sample count,
then, as the last line, one JSON object: the end-to-end metrics with
``--trace 0``, the per-module metrics with ``--trace 1``.  Timings use
``time.perf_counter``.  The exit code is 0 only if every output passed.

End-to-end metrics
    setup_s      median wall time of a fresh set-up (interpreter included)
    solve_s      median wall time of one pass of the timed calls
    peak_rss_mb  peak resident memory of this process plus the sum over the
                 estimator's live pool workers, sampled during the first pass
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

sys.path.insert(0, str(SRC))
try:
    import numpy as np

    import ibsest
    from ibsest.belief import validate_ibs
    from ibsest.io import file_digest, parse_observation_text

    import workloads
    from tracing import Tracer
except ImportError as exc:
    sys.exit(f"error: cannot import ibsest from {SRC}: {exc}")

SETUP_STARTS = 7
RSS_INTERVAL_S = 0.05

TRACED = (
    "ibsest.io.parse_observation_text",
    "ibsest.belief.validate_ibs",
    "ibsest.likelihood.prepare_observations",
    "ibsest.likelihood.joint_likelihood_bounds",
    "ibsest.likelihood.joint_likelihood",
    "ibsest.likelihood.ibs_likelihood",
    "ibsest.intervalprob.ignorance",
    "ibsest.estimator.estimate",
    "ibsest.estimator.objective",
)


class PeakRss:
    """Peak resident memory of this process plus its child processes.

    A thread samples the high-water mark (VmHWM) of every live child; the
    largest sum seen is added to this process's own high-water mark.  Pools
    of different calls never overlap, so a sum covers one pool's workers.
    """

    def __init__(self, interval: float = RSS_INTERVAL_S):
        self.interval = interval
        self.children_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    @staticmethod
    def _children() -> list[int]:
        pids = []
        for task in Path("/proc/self/task").iterdir():
            try:
                pids += [int(p) for p in (task / "children").read_text().split()]
            except FileNotFoundError:  # the thread has exited
                pass
        return pids

    @staticmethod
    def _hwm_kb(pid: int) -> int:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:  # the worker has exited
            return 0
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
        return 0

    def _sample(self) -> None:
        total = sum(self._hwm_kb(pid) for pid in self._children())
        self.children_kb = max(self.children_kb, total)

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self._sample()

    def __enter__(self):
        if not Path(f"/proc/self/task/{threading.get_native_id()}/children").exists():
            raise RuntimeError("cannot list child processes: no /proc/.../children")
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    @property
    def mb(self) -> float:
        own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return (own_kb + self.children_kb) / 1024.0


def measure_setup(files: list[Path]) -> tuple[list[float], list[dict]]:
    """Wall time and per-step report of each of SETUP_STARTS fresh starts."""
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), *map(str, files)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    walls, reports = [], []
    for _ in range(SETUP_STARTS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=120)
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        report = json.loads(proc.stdout.splitlines()[-1])
        if not report["valid"]:
            raise RuntimeError("an input observation fails validate_ibs")
        reports.append(report)
    return walls, reports


def load_inputs(files: list[Path]) -> dict:
    sets = {}
    for path in files:
        sets[path] = parse_observation_text(path.read_text(encoding="utf-8"))
        for obs in sets[path].observations:
            report = validate_ibs(obs)
            if not report.ok:
                raise RuntimeError(f"{path}: observation {obs.label!r} is invalid:"
                                   f" {report.violations}")
    return sets


class Raised:
    """Stands for the output of a call that raised."""

    def __init__(self, exc: BaseException):
        self.reason = f"raised {type(exc).__name__}: {exc}"


def run_pass(calls: list) -> tuple[float, list, list[float]]:
    """Wall time of the pass, the outputs, and the wall time of each call."""
    outputs, call_times = [], []
    t0 = time.perf_counter()
    for call in calls:
        t = time.perf_counter()
        try:
            outputs.append(call())
        except Exception as exc:  # counted as a failed call, never dropped
            outputs.append(Raised(exc))
        call_times.append(time.perf_counter() - t)
    return time.perf_counter() - t0, outputs, call_times


def check_pass(wl, sets, outputs: list, first: list | None = None,
               first_reasons: list[str] | None = None) -> list[str]:
    """Reasons per call ('' = passed).  Without ``first`` the outputs are
    checked in full; otherwise they must reproduce ``first`` bit for bit."""
    if first is None:
        if not any(isinstance(o, Raised) for o in outputs):
            return wl.check(sets, outputs)
        return [o.reason if isinstance(o, Raised)
                else "not checked: another call in its pass raised" for o in outputs]
    reasons = []
    for out, ref, ref_reason in zip(outputs, first, first_reasons):
        if isinstance(out, Raised):
            reasons.append(out.reason)
        elif isinstance(ref, Raised) or wl.key(out) != wl.key(ref):
            reasons.append("output differs from the first pass")
        else:
            reasons.append(ref_reason)
    return reasons


def summary(samples) -> dict:
    xs = [float(x) for x in samples]
    if not xs:
        return {"median": 0.0, "q1": 0.0, "q3": 0.0, "n": 0}
    if len(xs) == 1:
        return {"median": xs[0], "q1": xs[0], "q3": xs[0], "n": 1}
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(xs)}


def metric(value, unit: str, samples=None) -> dict:
    """A reported metric; ``samples`` are what its median and quartiles
    describe (for an exact count, the count itself)."""
    return {"value": float(value), "unit": unit,
            **summary([value] if samples is None else samples)}


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def per_layer(wl, tracer: Tracer, setup_reports, traced_outputs, probe_outputs,
              t_traced: float, t_untraced1: float, timed_passes: list[float]) -> dict:
    """Per-module figures.

    The set-up steps come from the fresh-interpreter starts; the rest from
    the traced pass (``workers=1``).  A ``_s``/``_ms``/``_us`` figure is the
    mean time per call (the table also shows median and quartiles);
    ``joint_bounds_us`` is self time.  On score-large, which never searches,
    the search figures come from ``probe``: one sweep of one restart.

    kernel_share    self time in joint_likelihood_bounds / time in estimate
    pool_speedup    traced one-process time / median timed pass (nproc)
    trace.overhead  traced / untraced one-process time - 1
    """
    tab = tracer.table()
    empty = {"dur": np.zeros(0), "self": np.zeros(0)}

    def spans(label):
        return tab.get(label, empty)

    def per_call(label, unit, scale, field="dur"):
        xs = spans(label)[field] * scale
        return metric(float(np.mean(xs)) if len(xs) else 0.0, unit, xs)

    jb = spans("likelihood.joint_likelihood_bounds")
    est = spans("estimator.estimate")
    search = traced_outputs if isinstance(wl, workloads.SearchWorkload) else probe_outputs
    stats = workloads.search_stats(search)
    est_total = float(est["dur"].sum())
    setup_col = {k: [r[k] for r in setup_reports] for k in ("import_s", "parse_s",
                                                            "validate_s")}
    return {
        "cli.import_s": metric(statistics.median(setup_col["import_s"]), "s",
                               setup_col["import_s"]),
        "io.parse_s": metric(statistics.median(setup_col["parse_s"]), "s",
                             setup_col["parse_s"]),
        "belief.validate_s": metric(statistics.median(setup_col["validate_s"]), "s",
                                    setup_col["validate_s"]),
        "likelihood.prepare_s": per_call("likelihood.prepare_observations", "s", 1.0),
        "likelihood.joint_bounds_calls": metric(len(jb["dur"]), "count"),
        "likelihood.joint_bounds_us": per_call(
            "likelihood.joint_likelihood_bounds", "us", 1e6, "self"),
        "likelihood.joint_likelihood_ms": per_call("likelihood.joint_likelihood", "ms",
                                                   1e3),
        "likelihood.ibs_likelihood_us": per_call("likelihood.ibs_likelihood", "us",
                                                 1e6),
        "intervalprob.ignorance_us": per_call("intervalprob.ignorance", "us", 1e6),
        "estimator.estimate_s": per_call("estimator.estimate", "s", 1.0),
        "estimator.objective_ms": per_call("estimator.objective", "ms", 1e3),
        "estimator.sweeps": metric(stats["sweeps"], "count"),
        "estimator.max_restart_sweeps": metric(stats["max_restart_sweeps"], "count"),
        "estimator.evals_per_sweep": metric(len(jb["dur"]) / stats["sweeps"],
                                            "evals/sweep"),
        "estimator.kernel_share": metric(
            float(jb["self"].sum()) / est_total if est_total else 0.0, "fraction"),
        "estimator.pool_speedup": metric(t_traced / statistics.median(timed_passes),
                                         "x"),
        "estimator.converged_frac": metric(stats["converged_frac"], "fraction"),
        "estimator.winner_agreement": metric(stats["winner_agreement"], "fraction"),
        "estimator.objective_mean": metric(wl.objective_mean(traced_outputs),
                                           "objective"),
        "trace.overhead": metric(t_traced / t_untraced1 - 1.0, "fraction"),
    }


def print_table(title: str, metrics: dict) -> None:
    print(f"{title}")
    print(f"  {'metric':32} {'value':>14} {'median':>14} {'q1':>14} {'q3':>14}"
          f" {'n':>7}  unit")
    for name, m in metrics.items():
        print(f"  {name:32} {m['value']:14.6g} {m['median']:14.6g} {m['q1']:14.6g}"
              f" {m['q3']:14.6g} {m['n']:7d}  {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not Path(ibsest.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: ibsest was imported from {ibsest.__file__}, not {SRC}")

    OUT.mkdir(exist_ok=True)
    nproc = len(os.sched_getaffinity(0))
    wl = workloads.make(args.workload, args.seed)
    files = wl.input_files(OUT)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "nproc": nproc,
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "inputs": {str(p.relative_to(ROOT)): file_digest(p) for p in files},
        "estimator_seeds": sorted({c.seed for c in getattr(wl, "cells", [])}),
    }

    setup_walls, setup_reports = measure_setup(files)
    sets = load_inputs(files)
    record.update(wl.check_input(sets))

    calls = wl.calls(sets, workers=nproc)
    run_start = time.perf_counter()
    # Memory is sampled in the first pass only: the sampling thread takes
    # the interpreter lock from time to time, which slows a caller that
    # computes in this process (score-large).
    with PeakRss() as rss:
        elapsed, outputs, call_times = run_pass(calls)
    pass_times, passes, pass_call_times = [elapsed], [outputs], [call_times]
    while time.perf_counter() - run_start + pass_times[-1] <= args.seconds:
        elapsed, outputs, call_times = run_pass(calls)
        pass_times.append(elapsed)
        passes.append(outputs)
        pass_call_times.append(call_times)
    reasons = []
    first_reasons = check_pass(wl, sets, passes[0])
    for outputs in passes:
        reasons += check_pass(wl, sets, outputs, passes[0], first_reasons)
    attempted = len(reasons)

    record["setup_s_samples"] = setup_walls
    if isinstance(wl, workloads.SearchWorkload):
        record["exhausted_restarts"] = wl.exhausted(passes[0])
    record["solve_s_samples"] = pass_times
    end_to_end = {
        "setup_s": metric(statistics.median(setup_walls), "s", setup_walls),
        "solve_s": metric(statistics.median(pass_times), "s", pass_times),
        "peak_rss_mb": metric(rss.mb, "MB"),
    }
    layers = {}
    spans_path = None
    if args.trace:
        # Each call runs untraced, then traced, back to back, so that drift
        # in machine speed hits both sides of the overhead alike.
        tracer = Tracer(TRACED)
        t_untraced1 = t_traced = 0.0
        untraced1, traced, traced_call_times = [], [], []
        with tracer.active(), tracer.span("bench.setup"):
            load_inputs(files)
        for call in wl.calls(sets, workers=1):
            elapsed, [out], _ = run_pass([call])
            t_untraced1 += elapsed
            untraced1.append(out)
            with tracer.active(), tracer.span("bench.solve"):
                elapsed, [out], _ = run_pass([call])
            t_traced += elapsed
            traced.append(out)
            traced_call_times.append(elapsed)
        with tracer.active():
            with tracer.span("bench.check"):
                traced_reasons = check_pass(wl, sets, traced)
            with tracer.span("bench.probe"):
                probe = wl.probe(sets)
        # Results must not depend on workers or on tracing: both extra passes
        # must reproduce the first timed pass bit for bit.
        for label, outputs, own in (("traced", traced, traced_reasons),
                                    ("untraced", untraced1, [""] * len(calls))):
            for i, (out, ref) in enumerate(zip(outputs, passes[0])):
                same = not isinstance(out, Raised) and not isinstance(ref, Raised) \
                    and wl.key(out) == wl.key(ref)
                reasons.append(own[i] or ("" if same else
                               f"call {i}: {label} workers=1 output differs from"
                               f" workers={nproc}"))
        layers = per_layer(wl, tracer, setup_reports, traced, probe, t_traced,
                           t_untraced1, pass_times)
        spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.json.gz"
        tracer.write(spans_path)
        record["missing_spans"] = sorted(tracer.missing)
        record["traced_solve_s"] = t_traced
        # Per call, as estimator.pool_speedup is for the whole pass: on
        # straggler-search this shows each placement of the long restart.
        record["call_pool_speedup"] = [
            t / statistics.median(times)
            for t, times in zip(traced_call_times, zip(*pass_call_times))]
        record["untraced_workers1_solve_s"] = t_untraced1

    failures = [r for r in reasons if r]
    attempted_all = len(reasons)
    fail_frac = len(failures) / attempted_all
    print(f"ibsest benchmark: {args.workload}, seed {args.seed}, "
          f"{len(passes)} pass(es) of {len(calls)} call(s), trace {args.trace}")
    for key in ("nproc", "cpu", "python", "numpy", "estimator_seeds", "inputs",
                "exhausted_restarts", "least_joint_lower_bound", "underflow_points"):
        if key in record:
            print(f"  {key}: {record[key]}")
    print_table("end-to-end", end_to_end)
    print(f"  fail_frac {fail_frac:.6g} ({len(failures)} of {attempted_all} calls;"
          f" {attempted} timed)")
    if layers:
        print_table("per-module (traced, workers=1)", layers)
        if isinstance(wl, workloads.SearchWorkload):
            print("  pool_speedup per call: " + ", ".join(
                f"{label} {x:.3f}x" for label, x in zip(wl.labels(),
                                                        record["call_pool_speedup"])))
        if record["missing_spans"]:
            print(f"  missing spans: {', '.join(record['missing_spans'])}")
        print(f"  spans: {spans_path.relative_to(ROOT)}")
    for reason in failures:
        print(f"FAIL {reason}")

    result_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps({
        "record": record, "end_to_end": end_to_end, "per_layer": layers,
        "fail_frac": fail_frac, "failures": failures,
    }, indent=1) + "\n", encoding="utf-8")

    chosen = layers if args.trace else end_to_end
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted_all,
        "failed": len(failures),
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in chosen.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
