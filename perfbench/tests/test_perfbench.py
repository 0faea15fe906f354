"""Fast checks of the benchmark itself: span arithmetic, tracing side effects,
count repeatability, output checks and BENCHMARK.json consistency.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import run  # noqa: E402
import spans  # noqa: E402
from poisson_deconv import experiments, operators, solvers  # noqa: E402

SMALL_EXPERIMENT = {"n_trials": "2", "max_iters": "25", "max_iters_srl": "25"}


def small_workloads(tmp_path):
    yield run.ExperimentWorkload("oned_high", 3, str(tmp_path), overrides=SMALL_EXPERIMENT)
    yield run.ExperimentWorkload(
        "twod_splines", 3, str(tmp_path), overrides={**SMALL_EXPERIMENT, "rows": "32", "cols": "32"}
    )
    yield run.SolveWorkload(3, str(tmp_path), shape=(64, 64), max_iters=3)


def test_self_time_is_duration_minus_children():
    ticks = iter([0.0, 2.0, 5.0, 6.0, 7.0, 10.0, 20.0, 21.0])
    tracer = spans.Tracer(clock=lambda: next(ticks), scope="outer")
    tracer.enter("outer")  # 0
    tracer.enter("a")  # 2
    tracer.exit()  # 5
    tracer.enter("b")  # 6
    tracer.exit()  # 7
    tracer.exit()  # 10
    tracer.enter("a")  # 20
    tracer.exit()  # 21
    assert tracer.stats == {"outer": [1, 10.0, 6.0], "a": [2, 4.0, 4.0], "b": [1, 1.0, 1.0]}
    assert tracer.edges == {(None, "outer"): 1, ("outer", "a"): 1, ("outer", "b"): 1, (None, "a"): 1}
    assert tracer.in_scope == {"a": 1, "b": 1}


def test_missing_target_is_listed_not_fatal():
    tracer = spans.Tracer()
    targets = (("gone", "solvers", "no_such_step"), ("gone.method", "operators", "Nope.synthesize"))
    with spans.instrument(tracer, targets):
        pass
    assert tracer.missing == ["gone", "gone.method"]


def test_traced_run_matches_untraced_and_restores_functions(tmp_path):
    originals = {
        "experiments.run_solver": experiments.run_solver,
        "solvers.srl_step": solvers.srl_step,
        "operators.conv_forward": operators.conv_forward,
        "ForwardModel.__init__": operators.ForwardModel.__dict__["__init__"],
    }
    for workload in small_workloads(tmp_path):
        runner, plain, traced, tracer, _ = run.traced_run(workload, 1)
        assert plain[0].output == traced[0].output
        assert plain[0].failures == traced[0].failures == []
        assert runner.failed == 0
        assert tracer.calls("run_solver") > 0
    assert experiments.run_solver is originals["experiments.run_solver"]
    assert solvers.srl_step is originals["solvers.srl_step"]
    assert experiments.conv_forward is originals["operators.conv_forward"]
    assert operators.ForwardModel.__dict__["__init__"] is originals["ForwardModel.__init__"]


def test_traced_metrics_csv_is_byte_identical(tmp_path):
    workload = next(small_workloads(tmp_path))
    workload.run_unit(0)
    plain = (tmp_path / "metrics.csv").read_bytes()
    with spans.instrument(spans.Tracer()):
        workload.run_unit(0)
    assert (tmp_path / "metrics.csv").read_bytes() == plain


def counts(metrics):
    return {
        k: v
        for k, v in metrics.items()
        if k.endswith(".calls") or k in ("solvers.iters", "solvers.synth_per_srl_iter")
    }


@pytest.mark.parametrize("index", [0, 1, 2])
def test_counts_repeat_exactly(tmp_path, index):
    seen = []
    for _ in range(2):
        workload = list(small_workloads(tmp_path))[index]
        _, plain, traced, tracer, cpu_s = run.traced_run(workload, 2)
        seen.append(counts(run.layer_metrics(tracer, cpu_s, plain, traced)))
    assert seen[0] == seen[1]
    assert seen[0]["solvers.iters"][0] > 0
    assert seen[0]["solvers.synth_per_srl_iter"][0] >= 1.0


def test_reference_check_admits_last_digit_only():
    rows = ["srl,2,0.0251175857183,0.00229449971022,,,false"]
    text = "# comment\n" + run.experiments.MetricReport.CSV_HEADER + "\n" + rows[0] + "\n"
    assert run.csv_failures(text, rows) == []
    assert run.csv_failures(text, ["srl,2,0.0251175857184,0.00229449971022,,,false"]) == []
    assert run.csv_failures(text, ["srl,2,0.0251185857183,0.00229449971022,,,false"])
    assert run.csv_failures(text, ["srl,2,0.0251175857183,0.00229449971022,,,true"])
    assert run.csv_failures(text.replace("0.0251175857183", "nan"), None)


def test_solve_reference_mismatch_fails_the_unit(tmp_path):
    workload = run.SolveWorkload(3, str(tmp_path), shape=(64, 64), max_iters=3)
    workload.setup()
    good = workload.run_unit(0).output
    workload.reference = [[good[0] * (1 + 1e-4), good[1], good[2]]]
    assert workload.run_unit(0).failures
    workload.reference = [good]
    assert workload.run_unit(0).failures == []


@pytest.mark.parametrize("index", [0, 1, 2])
def test_altered_srl_step_fails_the_check(tmp_path, monkeypatch, index):
    workload = list(small_workloads(tmp_path))[index]
    workload.setup()
    workload.reference = workload.record([workload.run_unit(0)])
    original = solvers.srl_step
    with monkeypatch.context() as patch:
        patch.setattr(solvers, "srl_step", lambda *a, **k: original(*a, **k) * (1 + 1e-6))
        assert workload.run_unit(0).failures
    assert workload.run_unit(0).failures == []


def test_benchmark_json_names_every_emitted_metric(tmp_path):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    end_to_end = run.end_to_end_metrics([0.1], [run.Unit(1.0, [0.5], 0, None)])
    assert [m["name"] for m in spec["end_to_end"]] == list(end_to_end)
    assert [m["unit"] for m in spec["end_to_end"]] == [u for _, u in end_to_end.values()]
    emitted = run.layer_metrics(spans.Tracer(), 0.0, [], [])
    assert [m["name"] for m in spec["per_layer"]] == list(emitted)
    assert [m["unit"] for m in spec["per_layer"]] == [u for _, u in emitted.values()]
