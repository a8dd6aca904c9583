"""Self-tests of the benchmark: seeded inputs, the tracer, the correctness
checks, and the metric names BENCHMARK.json declares. They run small
instances so that they take a few seconds."""
from __future__ import annotations

import copy
import inspect
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "swap-lcu": workloads.Workload("swap-lcu", ("swap", "lcu"), n=4, kappa=4.0, instances=2, repeats=(1, 1)),
    "readout": workloads.Workload(
        "readout", ("readout-swap", "readout-sve", "readout-hhl"), n=4, kappa=2.0, instances=2, repeats=(2, 1, 1)
    ),
}


def _bindings():
    """Every function-valued attribute of the qmm modules and their classes."""
    out = {}
    for modname, mod in list(sys.modules.items()):
        if modname != "qmm" and not modname.startswith("qmm."):
            continue
        for attr, value in vars(mod).items():
            if inspect.isclass(value) and value.__module__.startswith("qmm"):
                for mattr, member in vars(value).items():
                    out[(modname, attr, mattr)] = member
            elif callable(value):
                out[(modname, attr)] = value
    return out


def test_generator_is_deterministic_per_seed(tmp_path):
    wl = workloads.WORKLOADS["swap-lcu"]
    first = workloads.set_up(wl, 5, tmp_path / "a")
    again = workloads.set_up(wl, 5, tmp_path / "b")
    other = workloads.set_up(wl, 6, tmp_path / "c")
    for x, y, z in zip(first.instances, again.instances, other.instances):
        assert np.array_equal(x["a"], y["a"]) and np.array_equal(x["b"], y["b"])
        assert not np.array_equal(x["a"], z["a"])


def test_tracer_restores_every_patched_name():
    import qmm.matmul
    import qmm.readout

    before = _bindings()
    original = qmm.matmul._sve_component
    with tracer.Tracer():
        assert qmm.readout._sve_component is not original  # bound by name at import
        assert qmm.matmul._sve_component is qmm.readout._sve_component
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(before[k] is after[k] for k in before)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_and_untraced_outputs_have_equal_digests(tmp_path, name):
    wl = SMALL[name]
    fx = workloads.set_up(wl, 3, tmp_path)
    plain = [workloads.digest(workloads.run_op(fx, kind, 0)[0]) for kind in wl.kinds]
    with tracer.Tracer() as tr:
        traced = []
        for op_id, kind in enumerate(wl.kinds):
            with tr.op(op_id, kind):
                traced.append(workloads.digest(workloads.run_op(fx, kind, 0)[0]))
    assert traced == plain
    assert any(span[tracer.NAME] == "qpe._controlled_powers" for span in tr.spans)


def test_perturbed_row_is_counted_as_failed(tmp_path):
    wl = SMALL["readout"]
    bench_run = run.Run(wl, 3, tmp_path, None)
    bench_run.set_up()
    outputs = json.loads(json.dumps(workloads.run_op(bench_run.fixture, "readout-swap", 0)[0]))
    assert bench_run.check("readout-swap", 0, outputs) == []

    bench_run.reference = {"3": [{"readout-swap": outputs}]}
    assert bench_run.check("readout-swap", 0, outputs) == []
    for field, factor in (("realized_error", 1 + 1e-6), ("bound", 1 + 1e-9)):
        nudged = copy.deepcopy(outputs)
        nudged[0][field] *= factor
        assert bench_run.check("readout-swap", 0, nudged)  # differs from the record

    bench_run.reference = None
    wrong = copy.deepcopy(outputs)
    wrong[0]["c_tilde"][0][0] += 0.5
    assert bench_run.check("readout-swap", 0, wrong)  # breaks the eps_abs contract
    assert bench_run.check("verify", 0, [{"ok": False, "findings": [{"id": "x", "problem": "p"}]}])


def test_metric_names_match_benchmark_json(tmp_path):
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    bench_run = run.Run(SMALL["swap-lcu"], 3, tmp_path, None)
    setup_times = bench_run.set_up()
    untraced = bench_run.measure(0.0)
    with tracer.Tracer() as tr:
        traced = bench_run.measure(0.0, tr=tr)
    assert not any(op["problems"] for op in untraced + traced)
    e2e = run.end_to_end(bench_run, setup_times, 0.1, untraced)
    layers = run.per_layer(tr, traced, untraced)
    assert [m["name"] for m in declared["end_to_end"]] == list(e2e)
    assert [m["name"] for m in declared["per_layer"]] == list(layers)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == {k: u for k, (_, u) in e2e.items()}
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == {k: u for k, (_, u) in layers.items()}
    assert all(value > 0 for value, _ in e2e.values())
