"""Tests of the benchmark itself: gates, negative controls, manifest, tracer.

Run with:  python3 -m pytest -q hfpbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import runner  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from hfpquad import harness, ie_solver, oracles, quadrature  # noqa: E402
from hfpquad.errors import ReferenceConvergenceError  # noqa: E402


def first_op(name: str, kind: str, seed: int = 1) -> dict:
    w = workloads.WORKLOADS[name]
    ops = workloads.make_ops(w, seed, 1)
    return next(op for op in ops if op["kind"] == kind)


def outcome_of(name: str, op: dict):
    return runner.run_op(workloads.WORKLOADS[name], op)


CASES = [
    ("floor-sweep", "s0-compact"),
    ("floor-sweep", "s2-generic"),
    ("paper-tables", "m3-s2"),
    ("paper-tables", "m4-s3"),
    ("ie-solve", "simple-n16"),
    ("ie-solve", "advanced-n16"),
]


@pytest.mark.parametrize("name,kind", CASES)
def test_gate_passes_on_unperturbed_op(name, kind):
    _, outcome, failure = outcome_of(name, first_op(name, kind))
    assert failure is None
    assert outcome.checks or kind == "advanced-n16"  # 16 unknowns: recorded only


# -- negative controls: each gate fails when the checked value is perturbed --


def _shifted(fn, rel=1e-6):
    def wrapper(*args, **kwargs):
        v = fn(*args, **kwargs)
        return v + rel * max(1.0, abs(v))

    return wrapper


def test_floor_sweep_gate_catches_perturbed_rule_value(monkeypatch):
    monkeypatch.setattr(quadrature, "t_hat", _shifted(quadrature.t_hat))
    _, outcome, failure = outcome_of("floor-sweep", first_op("floor-sweep", "s1-compact"))
    assert failure and outcome.violations()


def test_floor_sweep_gate_catches_perturbed_oracle(monkeypatch):
    monkeypatch.setattr(oracles, "exact_supersingular", _shifted(oracles.exact_supersingular))
    _, _, failure = outcome_of("floor-sweep", first_op("floor-sweep", "s0-generic"))
    assert failure


@pytest.mark.parametrize("kind", ["m3-s1", "m2-s2"])
def test_paper_tables_gate_catches_perturbed_rule_value(monkeypatch, kind):
    monkeypatch.setattr(harness, "t_hat", _shifted(harness.t_hat))
    _, _, failure = outcome_of("paper-tables", first_op("paper-tables", kind))
    assert failure and "n=100" in failure


def test_paper_tables_gate_catches_perturbed_reference(monkeypatch):
    monkeypatch.setattr(oracles, "hfp_reference", _shifted(oracles.hfp_reference))
    _, _, failure = outcome_of("paper-tables", first_op("paper-tables", "m1-s1"))
    assert failure


def test_ie_solve_gate_catches_failed_doubling_check(monkeypatch):
    real = ie_solver.t_hat

    def drifting(spec, integrand):  # disagrees between n_high and 2 n_high
        return real(spec, integrand) + 1e-6 * spec.n

    monkeypatch.setattr(ie_solver, "t_hat", drifting)
    _, outcome, failure = outcome_of("ie-solve", first_op("ie-solve", "simple-n16"))
    assert outcome is None and ReferenceConvergenceError.__name__ in failure


def test_ie_solve_gate_catches_perturbed_solution(monkeypatch):
    real = ie_solver.solve_collocation

    def perturbed(system):
        sol = real(system)
        sol.values = sol.values + 1e-5
        return sol

    monkeypatch.setattr(ie_solver, "solve_collocation", perturbed)
    _, _, failure = outcome_of("ie-solve", first_op("ie-solve", "simple-n16"))
    assert failure and "max node error" in failure


def test_outcome_nan_fails():
    out = workloads.Outcome()
    out.check("nan", float("nan"), 1.0)
    assert out.violations()


# -- op manifest -------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_manifest_is_fixed_by_seed(name):
    w = workloads.WORKLOADS[name]
    a, b, c = (workloads.make_ops(w, seed, 3) for seed in (1, 1, 2))
    assert workloads.manifest_digest(a) == workloads.manifest_digest(b)
    assert workloads.manifest_digest(a) != workloads.manifest_digest(c)
    cycle = sum(weight for _, weight in w.mix)
    assert len(a) == 3 * cycle
    firsts = workloads.first_of_each_kind(a)
    assert sorted(op["kind"] for op in firsts) == sorted(kind for kind, _ in w.mix)
    assert all(op["id"] < cycle for op in firsts)


def test_cycles_for_keeps_a_tail_sample():
    for w in workloads.WORKLOADS.values():
        cycle = sum(weight for _, weight in w.mix)
        assert workloads.cycles_for(w, 1) * cycle > runner.TAIL_BEYOND


def test_blocks_hold_whole_cycles():
    blocks = runner.split_blocks(list(range(12 * 200)), 12)
    assert all(len(b) % 12 == 0 and len(b) >= runner.BLOCK_MIN_OPS for b in blocks)
    assert sum(blocks, []) == list(range(12 * 200))
    assert runner.split_blocks(list(range(9 * 15)), 9) == [list(range(9 * 15))]


def test_calibration_scales_by_surrounding_samples():
    speed = runner.SpeedLog(workloads.WORKLOADS["ie-solve"])
    speed.samples = [(0, 1.0), (2, 3.0), (3, 2.0)]
    ref = speed.ref_s
    assert speed.factors(3) == [ref / 2.0, ref / 2.0, ref / 2.5]


def test_tail_has_ten_samples_beyond():
    times = [float(i) for i in range(100)]
    value, pct = runner.tail(times)
    assert sum(t > value for t in times) == runner.TAIL_BEYOND
    assert pct == 90.0


# -- tracer ------------------------------------------------------------------


def test_tracer_counts_generic_path_nodes():
    case = oracles.GeometricKernelCase(eta=0.5, t=1.0)
    tracer = tracing.Tracer()
    with tracer.op(0):
        quadrature.t_hat(quadrature.RuleSpec(3, 2, 1024), case.integrand())
    assert (tracer.nodes_evaluated, tracer.nodes_distinct) == (7165, 4095)
    metrics = tracer.layer_metrics()
    assert metrics["quadrature.t_hat.calls"] == 1
    assert metrics["kernels.singular_sum.terms"] == 7165
    assert quadrature.t_hat.__module__ == "hfpquad.quadrature"  # restored


def test_traced_op_is_covered_by_spans():
    tracer = tracing.Tracer()
    op = first_op("ie-solve", "advanced-n16")
    _, _, failure = runner.run_op(workloads.WORKLOADS["ie-solve"], op, tracer)
    assert failure is None
    assert min(tracer.coverage()) > runner.MIN_SPAN_COVERAGE
    metrics = tracer.layer_metrics()
    assert metrics["ie_solver.rhs.points"] == 16
    assert metrics["ie_solver.rhs.t_hat_calls"] == 32
    assert metrics["kernels.dirichlet_dz.calls"] > 0


def test_benchmark_json_lists_the_reported_metrics():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(runner.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.LAYER_METRICS)


# -- refusals ----------------------------------------------------------------


def _run(args, cwd, env=None):
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )


@pytest.mark.parametrize("var", ["HFPQUAD_BACKEND", "HFPQUAD_THREADS"])
def test_refuses_code_path_switches(var):
    env = {**os.environ, var: "1"}
    done = _run(["hfpbench/run.py", "--workload", "paper-tables", "--seed", "1",
                 "--seconds", "1"], ROOT, env)
    assert done.returncode != 0 and var in done.stderr and not done.stdout


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(
        BENCH, tmp_path / "hfpbench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run(["hfpbench/run.py", "--workload", "paper-tables", "--seed", "1",
                 "--seconds", "1"], tmp_path)
    assert done.returncode != 0 and not done.stdout
