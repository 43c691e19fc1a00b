"""Seconds-long self-check of the benchmark's own code.

    python3 perfbench/smoke.py

Checks span self-time arithmetic on a fake clock, the op probes and the
output checks, then runs every workload, untraced and traced, at tiny
shapes.  Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import sys

import run

run.cap_blas_threads()
sys.path.insert(0, str(run.ROOT / "src"))

import probes  # noqa: E402  (after the thread cap)
import workloads  # noqa: E402
from tracing import Tracer, self_time  # noqa: E402

TINY = workloads.Sizes(batch=4, filters=3, n_train=8, n_test=2,
                       eval_batch=4, min_ops=3,
                       gradcheck_args=("--sizes", "1"), gradcheck_cases=7,
                       gradcheck_repeats=1, basis_window="3x3",
                       basis_size=126)

# nodes of one training step's graph, leaves included; shape-independent
GRAPH_NODES = {"train-morpho1": 37, "train-relu-maxpool": 17}


def check_spans() -> None:
    # root [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 8]
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 8.0, 10.0])
    t = Tracer(clock=lambda: next(ticks))
    with t.span("root"):
        with t.span("a"):
            with t.span("g"):
                pass
        with t.span("b"):
            pass
    got = {s["name"]: s["self"] for s in t.finish()}
    assert got == {"root": 4.0, "a": 2.0, "g": 1.0, "b": 3.0}, got
    assert t.child_sums("root", "a") == [3.0]
    assert t.durations("b") == [3.0]
    # overlapping and overhanging children are counted once, clipped
    span = {"start": 0.0, "end": 10.0}
    kids = [{"start": 1.0, "end": 5.0}, {"start": 4.0, "end": 6.0},
            {"start": 9.0, "end": 12.0}]
    assert self_time(span, kids) == 4.0


def check_probes() -> None:
    mods = workloads.import_morphnn()
    for name, ops in probes.WORKLOAD_OPS.items():
        variant = {"train-morpho1": "morpho1", "eval-morpho2": "morpho2",
                   "train-relu-maxpool": "relu-maxpool"}[name]
        spec = mods.train.ModelSpec(variant=variant, filters=3)
        model = mods.train.build_model(spec, mods.autodiff.make_rng(0))
        shape = probes.ProbeShape(batch=2, filters=3, variant=variant,
                                  m_terms=2, n_terms=3)
        got = probes.run_probes(mods, name, shape, 0, model)
        assert set(got) == set(probes.metric_names())
        for key, value in got.items():
            used = any(key.startswith(f"op.{op}.") for op in ops)
            assert (value > 0.0) == used, (name, key, value)


def check_output_checks() -> None:
    good = {"train_loss": 2.3, "test_acc": 0.5}
    assert workloads.epoch_problems(good) == []
    assert workloads.epoch_problems(dict(good, train_loss=math.nan))
    assert workloads.epoch_problems(dict(good, test_acc=1.5))
    assert workloads.epoch_problems(None)
    assert workloads.loss_trend_problems([2.3, 2.2, 2.1]) == []
    assert workloads.loss_trend_problems([2.3, 2.4])
    assert workloads.loss_trend_problems([2.3])
    a = workloads.np.zeros((2, 10))
    assert workloads.init_equivalence_problems(a, a + 1e-13) == []
    assert workloads.init_equivalence_problems(a, a + 1e-9)
    assert workloads.finite_problems(a) == []
    assert workloads.finite_problems(a + workloads.np.inf)
    ok = json.dumps({"report": {"pass": True, "n_cases": 52,
                                "failures": []}})
    assert workloads.gradcheck_problems((0, ok), 52) == []
    assert workloads.gradcheck_problems((1, ok), 52)
    assert workloads.gradcheck_problems((0, ok), 7)
    basis = json.dumps({"report": {"basis_size": 6435,
                                   "dual_basis_size": 6435,
                                   "verdict": "PASS"}})
    assert workloads.basis_problems((0, basis), 6435) == []
    assert workloads.basis_problems((0, basis), 126)
    assert workloads.basis_problems((1, basis), 6435)
    ledger = workloads.Ledger()
    ledger.timed(lambda: 1 / 0)
    ledger.timed(lambda: 1, lambda v: [])
    assert (ledger.attempted, ledger.failed) == (2, 1)
    ledger.late(["whole-run check failed"])
    assert (ledger.attempted, ledger.failed) == (2, 2)


def check_workloads() -> None:
    out = run.OUT_DIR / "smoke"
    e2e = set(workloads.END_TO_END)
    layers = set(workloads.per_layer_units())
    for name in run.WORKLOADS:
        for traced in (False, True):
            result, work = workloads.run(name, 0, 0, traced, out, TINY)
            assert result["correct"], (name, traced, work.ledger.problems)
            assert set(result["metrics"]) == (layers if traced else e2e)
            values = {k: m["value"] for k, m in result["metrics"].items()}
            if not traced:
                assert all(v > 0 for v in values.values()), values
            elif name == "verify":
                # the command's top-level calls plus its own time add up
                parts = sum(v for k, v in values.items()
                            if k.startswith("representation."))
                total = parts + values["cli.basis_overhead_s"]
                assert math.isclose(total, values["cli.basis_s"]), values
            elif name in GRAPH_NODES:
                assert values["autodiff.graph_nodes"] == GRAPH_NODES[name]


def main() -> int:
    for check in (check_spans, check_output_checks, check_probes,
                  check_workloads):
        check()
        print(f"ok {check.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
