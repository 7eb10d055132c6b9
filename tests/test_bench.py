"""Every benchmark op, run once through its own check.

``bench/workloads.py`` builds the op lists the benchmark times and checks,
and ``bench/spans.py`` wraps the package's entry points by name to trace
them.  Both are read here, never changed: each workload's ops are built
from a fixed seed, each op is run once and must pass its check, and the
first op of each workload runs traced, so that a broken check or a name
the tracer patches that no longer exists fails here.
"""

from __future__ import annotations

import importlib.util
import os
import sys

import pytest

from killingflow import flow

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "bench")


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", os.path.join(BENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # where dataclasses look it up
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
spans = _load("spans")


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_benchmark_op_passes_its_check(workload, tmp_path):
    ops = workloads.build_ops(workload, 31, str(tmp_path))
    assert ops
    solve_ball = flow.solve_ball
    for i, op in enumerate(ops):
        op.prepare()
        if i == 0:
            tracer = spans.Tracer()
            tracer.install()
            try:
                out = op.run()
            finally:
                tracer.unpatch()
            assert tracer.spans and spans.span_problems(tracer) == []
            assert flow.solve_ball is solve_ball
        else:
            out = op.run()
        check = op.check(out)
        assert check["ok"], (op.label, check["problems"])
