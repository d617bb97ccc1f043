"""Tests of the benchmark itself: PYTHONPATH=src python3 -m pytest -q bench"""

from __future__ import annotations

import importlib
import random

import pytest

import run
import workloads
from tracer import BOUNDARIES, Tracer
from i2gatp.container import validate_container
from i2gatp.dsl import emit_dsl, parse_dsl

SMALL = {
    "ingest": ((10, 20), (100, 1)),
    "author": ((10, 3), (100, 1)),
    "check": ((100, 2, 5),),
}


@pytest.mark.parametrize("workload", workloads.BUILDERS)
def test_generator_is_deterministic_per_seed(workload):
    build = workloads.BUILDERS[workload]
    assert build(7) == build(7)
    assert build(7) != build(8)


@pytest.mark.parametrize("n", (10, 100, 1000))
def test_generated_dsl_parses_and_is_canonical(n):
    for seed in range(20 if n < 1000 else 3):
        text = workloads.generate_dsl(random.Random(seed), n, f"g{seed}")
        problem = parse_dsl(text)
        assert len(problem.construction.constraints) == n
        quotas = workloads._quotas(n)
        assert len(problem.conjecture.conclusion) == quotas["midpoint"] + quotas["foot"]
        assert emit_dsl(problem) == text


@pytest.mark.parametrize("label,code,mutate", workloads.MUTATIONS, ids=[m[0] for m in workloads.MUTATIONS])
def test_mutation_reports_its_code(label, code, mutate):
    container = workloads._generated_container(random.Random(label), 10, "m", 3)
    assert validate_container(container) == []
    mutated = workloads._rezip(mutate(workloads._entries(container)))
    assert code in {v.code for v in validate_container(mutated)}


def _module_attrs():
    names = {module for module, _, _ in BOUNDARIES}
    return {name: dict(vars(importlib.import_module(name))) for name in names}


@pytest.mark.parametrize("workload", workloads.BUILDERS)
def test_untraced_run_leaves_modules_untouched(workload):
    runner = run.Runner(workloads.BUILDERS[workload](1, SMALL[workload]))
    before = _module_attrs()
    assert runner.run_pass().failed == 0
    after = _module_attrs()
    assert before.keys() == after.keys()
    for name in before:
        assert before[name].keys() == after[name].keys()
        assert all(before[name][k] is after[name][k] for k in before[name])

    with Tracer().installed():
        swapped = _module_attrs()
    assert any(swapped[m][a] is not before[m][a] for m, a, _ in BOUNDARIES)
    restored = _module_attrs()
    assert all(restored[m][a] is before[m][a] for m, a, _ in BOUNDARIES)


@pytest.mark.parametrize("workload", workloads.BUILDERS)
def test_self_times_per_op_sum_to_at_most_op_wall(workload):
    runner = run.Runner(workloads.BUILDERS[workload](2, SMALL[workload]))
    runner.run_pass()
    tracer = Tracer()
    with tracer.installed():
        traced = runner.run_pass(tracer)
    assert traced.failed == 0
    assert tracer.ops == len(traced.latencies)
    per_op = [0] * tracer.ops
    for op, own in zip(tracer.op, tracer.self_times()):
        assert own >= 0
        per_op[op] += own
    for own, wall in zip(per_op, traced.raw_ns):
        assert 0 < own <= wall


def test_ingest_has_no_numeric_spans_and_check_scans_once_per_predicate():
    spans = {}
    for workload in ("ingest", "check"):
        runner = run.Runner(workloads.BUILDERS[workload](3, SMALL[workload]))
        tracer = Tracer()
        with tracer.installed():
            runner.run_pass(tracer)
        spans[workload] = tracer.totals()
    assert not any(layer.startswith("numeric.") for layer in spans["ingest"])
    assert spans["check"]["numeric.scene_scale"][1] == spans["check"]["numeric.eval_predicate"][1] > 0


def test_span_dump_round_trips(tmp_path):
    tracer = Tracer()
    with tracer.installed():
        tracer.root("cli.validate", lambda: parse_dsl("point A 0 0\n"))
    tracer.dump(tmp_path / "spans")
    header = (tmp_path / "spans.json").read_text()
    assert '"count": 2' in header  # the root and numeric.instantiate under it
    assert len((tmp_path / "spans.bin").read_bytes()) == 2 * (4 + 4 + 4 + 8 + 8)


def test_failed_operation_is_counted():
    step = workloads.Step("validate", ("validate", "-"), b"not a zip", exit_code=workloads.EXIT_OK, expect="silent")
    runner = run.Runner([workloads.Job("broken", (step,))])
    result = runner.run_pass()
    assert (result.attempted, result.failed) == (1, 1)
