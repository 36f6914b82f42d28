"""Measurement loop, metrics and reports of the benchmark (entry point: run.py)."""

from __future__ import annotations

import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import tracing
import workloads
from hfpquad import _kernels

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"

#: fresh interpreters timed for setup_s; the median is reported
SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 120
TAIL_BEYOND = workloads.TAIL_BEYOND
#: op-time metrics are taken per block of whole cycles holding at least this
#: many ops, and the median over the blocks is reported
BLOCK_MIN_OPS = 250
#: top-level spans must cover at least this share of the wall time of the
#: ops of each kind (median over the kind's traced ops)
MIN_SPAN_COVERAGE = 0.9

#: calibration samples are taken between ops at least this far apart
CAL_EVERY_S = 0.25

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def environment(blas_threads: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": blas_threads,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "backend": _kernels.active_backend(),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            out[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return out


# ---------------------------------------------------------------------------
# machine-speed calibration
# ---------------------------------------------------------------------------
#
# On a shared host the speed of fixed work drifts by up to 2x for tens
# of seconds at a time, far more than the bounds a change is judged by.  A
# fixed unit of numpy and interpreter work, independent of hfpquad, is
# timed between ops; each op time is scaled by the speed measured around
# it.  Raw times are kept in the report next to the calibrated ones.

class SpeedLog:
    """Calibration samples taken between ops; scales op times to reference speed.

    The calibration unit is ``calls`` numpy calls on 64-element arrays and
    ``loops`` iterations of plain interpreter work (the per-call overhead of
    small-n tables and the rhs loop), plus one pass over a
    ``vector``-element array (the large node sums), as the workload sets.
    """

    def __init__(self, workload):
        calls, loops, vector = workload.calibration
        self._calls, self._loops = calls, loops
        self._small = np.linspace(0.1, 1.0, 64)
        self._large = np.linspace(0.1, 1.0, vector) if vector else None
        self.ref_s = workload.cal_ref_s
        self.samples: list[tuple[int, float]] = []  # (index of the next op, seconds)
        self._last = -math.inf

    def _unit(self):
        for i in range(self._calls):
            math.fsum(np.sin(self._small * (1 + i)) / (self._small + 1.0))
        acc, table = 0.0, {}
        for i in range(self._loops):
            pair = (i, i * 0.5)
            table[i & 63] = pair
            acc += pair[1] * 1.000001 + len(table)
        if self._large is not None:
            math.fsum(np.sin(self._large) / self._large**3)

    def sample(self) -> float:
        """Best of two runs of the calibration unit, in seconds."""
        best = math.inf
        for _ in range(2):
            start = time.perf_counter()
            self._unit()
            best = min(best, time.perf_counter() - start)
        return best

    def maybe_sample(self, next_op: int, force: bool = False):
        if force or time.perf_counter() - self._last >= CAL_EVERY_S:
            self.samples.append((next_op, self.sample()))
            self._last = time.perf_counter()

    def factors(self, n_ops: int) -> list[float]:
        """Per op: ref_s over the mean of the samples just before and after it."""
        out, k = [], 0
        for i in range(n_ops):
            while k + 1 < len(self.samples) and self.samples[k + 1][0] <= i:
                k += 1
            after = next(c for pos, c in self.samples[k + 1:] if pos > i)
            out.append(self.ref_s / (0.5 * (self.samples[k][1] + after)))
        return out

    def median_s(self) -> float:
        return statistics.median(c for _, c in self.samples)


# ---------------------------------------------------------------------------
# one op, one measured loop
# ---------------------------------------------------------------------------


def run_op(workload, op, tracer=None):
    """Run one op; return (seconds, outcome or None, failure text or None)."""
    start = time.perf_counter()
    try:
        if tracer is None:
            outcome = workload.run(op)
        else:
            with tracer.op(op["id"]):
                outcome = workload.run(op)
    except Exception:  # op boundary: record the failure, keep the loop going
        return time.perf_counter() - start, None, traceback.format_exc()
    elapsed = time.perf_counter() - start
    bad = outcome.violations()
    failure = "; ".join(f"{label}: {v:.3e} > {lim:.3e}" for label, v, lim in bad) or None
    return elapsed, outcome, failure


def warm_up(workload, ops):
    """Fill the library's lazy caches with the first op of each kind, untimed."""
    for op in workloads.first_of_each_kind(ops):
        run_op(workload, op)


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def split_blocks(times: list[float], per_cycle: int) -> list[list[float]]:
    """Consecutive blocks of whole cycles, each with >= BLOCK_MIN_OPS ops if possible."""
    cycles = len(times) // per_cycle
    per_block = per_cycle * min(cycles, -(-BLOCK_MIN_OPS // per_cycle))
    starts = range(0, len(times) - per_block + 1, per_block)
    blocks = [times[i:i + per_block] for i in starts]
    blocks[-1] = times[starts[-1]:]  # a partial block joins the last one
    return blocks


def measure_setup(args, ref_s: float) -> tuple[list[float], list[float]]:
    """Fresh interpreter to the first op of each kind done, SETUP_REPEATS times.

    Returns raw and calibrated seconds per probe.  The probe reports a
    timeline of calibration samples (see probe_setup); each segment between
    samples is scaled by the samples around it, the first one (interpreter
    start and imports) by the first sample.
    """
    base = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds)]
    # an untimed first start writes the bytecode caches
    subprocess.run(base + ["--probe", "import"], check=True, timeout=PROBE_TIMEOUT_S,
                   stdout=subprocess.DEVNULL)
    raw, calibrated = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        done = subprocess.run(base + ["--probe", "setup"], check=True, timeout=PROBE_TIMEOUT_S,
                              capture_output=True, text=True)
        # perf_counter is CLOCK_MONOTONIC, shared by parent and child
        marks = json.loads(done.stdout.splitlines()[-1])
        seg_start, prev_cal, total_raw, total_cal = start, None, 0.0, 0.0
        for before, cal, after in marks:
            seg = before - seg_start
            ref = cal if prev_cal is None else 0.5 * (prev_cal + cal)
            total_raw += seg
            total_cal += seg * ref_s / ref
            seg_start, prev_cal = after, cal
        raw.append(total_raw)
        calibrated.append(total_cal)
    return raw, calibrated


def probe_setup(workload, ops):
    """Child side of measure_setup: run the first op of each kind, print the timeline.

    Each mark is (time before a calibration sample, the sample, time after);
    the samples' own time is left out of the setup time.
    """
    marks, speed = [], SpeedLog(workload)

    def mark():
        before = time.perf_counter()
        cal = speed.sample()
        marks.append((before, cal, time.perf_counter()))

    mark()
    for op in workloads.first_of_each_kind(ops):
        workload.run(op)
        mark()
    print(json.dumps(marks))


def diagnostics(outcomes: list) -> dict:
    """Recorded, ungated values from the op outcomes."""

    def values(key):
        return [o.diag[key] for o in outcomes if o is not None and key in o.diag]

    return {
        "quadrature.err_to_floor_max": max(values("err_to_floor_max"), default=0.0),
        "harness.rate_rel_err_p50": statistics.median(values("rate_rel_err") or [0.0]),
        "ie_solver.condition_max": max(values("condition"), default=0.0),
        "ie_solver.max_node_err": max(values("max_node_err"), default=0.0),
        "rate_fits_unavailable": len(values("rate_unavailable")),
        "max_node_err_ungated_max": max(values("max_node_err_ungated"), default=0.0),
    }


def untraced(workload, ops, args) -> dict:
    setup_raw, setup = measure_setup(args, workload.cal_ref_s)
    warm_up(workload, ops)
    raw, outcomes, failures = [], [], {}
    speed = SpeedLog(workload)
    for op in ops:
        speed.maybe_sample(op["id"])
        dt, outcome, failure = run_op(workload, op)
        raw.append(dt)
        outcomes.append(outcome)
        if failure:
            failures[str(op["id"])] = failure
    speed.maybe_sample(len(ops), force=True)
    times = [dt * f for dt, f in zip(raw, speed.factors(len(ops)))]
    blocks = split_blocks(times, sum(weight for _, weight in workload.mix))
    by_kind = {}
    for op, dt in zip(ops, times):
        by_kind.setdefault(op["kind"], []).append(1e3 * dt)
    return {
        "metrics": {
            "setup_s": statistics.median(setup),
            "ops_per_s": statistics.median(len(b) / sum(b) for b in blocks),
            "op_p50_ms": 1e3 * statistics.median(statistics.median(b) for b in blocks),
            "op_tail_ms": 1e3 * statistics.median(tail(b)[0] for b in blocks),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "units": dict(END_TO_END),
        "attempted": len(ops),
        "failures": failures,
        "notes": {
            "fail_frac": len(failures) / len(ops),
            "op_samples": len(times),
            "blocks": len(blocks),
            "block_ops": [len(b) for b in blocks],
            "op_tail_percentile_in_block": tail(blocks[0])[1],
            "op_tail_samples_beyond": TAIL_BEYOND,
            "calibration_median_s": speed.median_s(),
            "calibration_ref_s": speed.ref_s,
            "setup_s_samples": setup,
            "raw_setup_s_samples": setup_raw,
            "raw_ops_per_s": len(ops) / sum(raw),
            "raw_op_p50_ms": 1e3 * statistics.median(raw),
            "raw_op_tail_ms": 1e3 * tail(raw)[0],
            "op_p50_ms_by_kind": {k: statistics.median(v) for k, v in sorted(by_kind.items())},
            **diagnostics(outcomes),
        },
    }


def traced(workload, ops, args) -> dict:
    tracer = tracing.Tracer()
    warm_up(workload, ops)
    plain, with_trace, outcomes, failures = [], [], [], {}
    for op in ops:
        # alternate which pass goes first so cache warmth favours neither
        order = (False, True) if op["id"] % 2 == 0 else (True, False)
        for use_trace in order:
            dt, outcome, failure = run_op(workload, op, tracer if use_trace else None)
            (with_trace if use_trace else plain).append(dt)
            if use_trace:
                outcomes.append(outcome)
            if failure:
                failures[f"{op['id']}{'-traced' if use_trace else ''}"] = failure
    # the median per kind: a layer missing from an op kind lowers every op
    # of that kind, a preemption in unspanned glue only one op
    by_kind = {}
    for op, share in zip(ops, tracer.coverage()):
        by_kind.setdefault(op["kind"], []).append(share)
    coverage = {kind: statistics.median(v) for kind, v in by_kind.items()}
    coverage_min = min(coverage.values())
    if coverage_min < MIN_SPAN_COVERAGE:
        failures["span_coverage"] = (
            f"top-level spans cover only {coverage_min:.3f} of the wall time of "
            f"{min(coverage, key=coverage.get)} ops (median)"
        )
    diag = diagnostics(outcomes)
    metrics = {
        **tracer.layer_metrics(),
        **diag,
        "trace_overhead_frac": sum(with_trace) / sum(plain) - 1.0,
        "span_coverage_min": coverage_min,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.write(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl")
    return {
        "metrics": {name: metrics[name] for name, _ in tracing.LAYER_METRICS},
        "units": dict(tracing.LAYER_METRICS),
        "attempted": 2 * len(ops),
        "failures": failures,
        "notes": {
            "fail_frac": len(failures) / (2 * len(ops)),
            "spans": len(tracer.spans),
            "op_samples": len(ops),
            "rate_fits_unavailable": diag["rate_fits_unavailable"],
            "max_node_err_ungated_max": diag["max_node_err_ungated_max"],
        },
    }


# ---------------------------------------------------------------------------
# entry
# ---------------------------------------------------------------------------


def main(args, blas_threads: int) -> int:
    workload = workloads.WORKLOADS[args.workload]
    ops = workloads.make_ops(workload, args.seed, workloads.cycles_for(workload, args.seconds))
    if args.probe == "import":
        return 0
    if args.probe == "setup":
        probe_setup(workload, ops)
        return 0

    env = environment(blas_threads)
    digest = workloads.manifest_digest(ops)
    result = (traced if args.trace else untraced)(workload, ops, args)
    failed = len(result["failures"])

    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    (OUT / f"{stem}-manifest.json").write_text(workloads.manifest_json(workload, args.seed, ops))
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "manifest_sha256": digest, "environment": env, **result,
    }
    (OUT / f"{stem}-trace{args.trace}-result.json").write_text(json.dumps(report, indent=1))

    print(f"workload = {args.workload}, seed = {args.seed}, trace = {args.trace}, "
          f"ops = {len(ops)}, manifest sha256 = {digest}")
    print("environment = " + json.dumps(env))
    for key, value in result["notes"].items():
        print(f"note {key} = {value}")
    for op_id, text in result["failures"].items():
        print(f"FAILED op {op_id}: {text.strip().splitlines()[-1]}")
    for name, value in result["metrics"].items():
        print(f"{name} = {value!r} {result['units'][name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": result["units"][name]}
            for name, value in result["metrics"].items()
        },
    }))
    return 0 if failed == 0 else 1
