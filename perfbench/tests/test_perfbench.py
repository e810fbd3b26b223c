"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root:  python -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys
import time
from decimal import Decimal

import pytest

import run
import workloads
from tracer import Tracer

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)

bq = run.import_library()
import betheqq.cli  # noqa: E402  (bq.cli below)
ERRORS = (bq.BetheqqError, ValueError, ArithmeticError)


def _run_cli(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=300)


def test_spec_lists_the_metrics_the_benchmark_prints():
    assert [m["name"] for m in SPEC["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == dict(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == dict(run.PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_each_workload_prints_every_end_to_end_metric(workload):
    proc = _run_cli("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    for name, unit in run.END_TO_END:
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit for line in lines[:-1])
    assert any("fail_frac = 0/" in line for line in lines)
    assert set(result["metrics"]) == {n for n, _ in run.END_TO_END}


def test_traced_run_reports_every_per_layer_metric():
    proc = _run_cli("--workload", "diagonalize", "--seed", "3", "--seconds", "0", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = result["metrics"]
    assert result["correct"] is True
    assert set(metrics) == {n for n, _ in run.PER_LAYER}
    assert metrics["cli.cmd_diagonalize.self_s"]["value"] > 0
    assert metrics["fileio.instance_from_doc.self_s"]["value"] > 0
    assert metrics["opermat.gauge_transform.self_s"]["value"] > 0
    assert metrics["bethe.solve_newton.calls"]["value"] == 0  # diagonalize never solves
    assert metrics["opermat.v_max_degree"]["value"] > 1  # numeric backend: v blows up
    assert metrics["cli.exit_nonzero"]["value"] == 0
    assert abs(sum(metrics[f"{layer}.self_share"]["value"] for layer in run.SHARE_LAYERS) - 1) < 1e-9


def _tiny_traced(wl):
    wl.rotation = 1  # trace only the first operation
    tracer = Tracer()
    res, infos, overhead = run.measure_traced(wl, 0, ERRORS, tracer)
    return res, run.per_layer_metrics(tracer, infos, overhead)


def test_traced_solve_counts_repeat_exactly(tmp_path):
    first = _tiny_traced(workloads.SolveWorkload(bq, 5, str(tmp_path)))[1]
    res, second = _tiny_traced(workloads.SolveWorkload(bq, 5, str(tmp_path)))
    assert res.failed == 0
    counts = [n for n, unit in run.PER_LAYER if unit == "1/op"]
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
    assert second["bethe.solve_newton.calls"] > 0 and second["bethe.newton_steps"] > 0
    assert second["scalars.NumericField.abs.calls"] > 0
    assert second["opermat.RatMatrix.matmul.calls"] == 0  # solve bypasses opermat


def test_tracer_restores_every_original():
    originals = (bq.cli.qq_residual, bq.qqcore.cartan_matrix, bq.bethe.bethe_residual,
                 bq.Poly.__mul__, vars(bq.RationalFn)["make"], bq.NumericField.abs, bq.seed_and_continue)
    tracer = Tracer().install()
    assert bq.cli.qq_residual is not originals[0]
    assert bq.qqcore.cartan_matrix is not originals[1]
    assert bq.cli.qq_residual is bq.qqcore.qq_residual  # rebound wherever it is looked up
    tracer.uninstall()
    after = (bq.cli.qq_residual, bq.qqcore.cartan_matrix, bq.bethe.bethe_residual,
             bq.Poly.__mul__, vars(bq.RationalFn)["make"], bq.NumericField.abs, bq.seed_and_continue)
    assert all(a is b for a, b in zip(after, originals))


def test_same_seed_same_inputs(tmp_path):
    def shapes(seed):
        wl = workloads.SolveWorkload(bq, seed, str(tmp_path))
        return [(op.inst.twist.zeta, op.inst.points, op.part.w_sets, op.solver_seed) for op in wl.pool]

    assert shapes(11) == shapes(11)
    assert shapes(11) != shapes(12)


def test_bumped_solve_root_counts_as_failed(tmp_path, monkeypatch):
    solve = bq.seed_and_continue

    def bumped(*args, **kwargs):
        roots = solve(*args, **kwargs)
        flat = roots.flat()
        flat[0] += bq.NumericField(256)("1e-6")
        return roots.replace_flat(flat)

    monkeypatch.setattr(bq, "seed_and_continue", bumped)
    wl = workloads.SolveWorkload(bq, 2, str(tmp_path))
    wl.pool = wl.pool[:1]
    wl.rotation = 1
    res, _ = run.measure_end_to_end(wl, 0, ERRORS)
    assert res.attempted == 1 and res.failed == 1
    assert "Bethe residual" in res.reasons[0]


def test_corrupted_solution_file_counts_as_failed(tmp_path):
    wl = workloads.DiagonalizeWorkload(bq, 2, str(tmp_path))
    sol_path = wl.op(0).argv[2]
    with open(sol_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["q_minus"][0][0] = str(Decimal(doc["q_minus"][0][0]) + Decimal("1e-6"))
    with open(sol_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    res = run.Result()
    for k in range(wl.rotation):  # only the first operation reads the corrupted file
        assert (wl.op(k).argv[2] == sol_path) == (k == 0)
        res.add(run.run_checked(wl, wl.op(k), ERRORS), 0.0)
    assert (res.attempted, res.failed) == (4, 1)
    assert len(res.digits) == 3 and min(res.digits) > 40


def test_accuracy_is_taken_over_one_whole_pass_of_the_pool():
    class Stub:
        pool = [3.0, 1.0, 2.0]
        rotation = 1

        def op(self, k):
            return self.pool[k % 3] - k // 3  # later passes would lower the minimum

        def run(self, op):
            return workloads.Outcome(True, op)

    res, _ = run.measure_end_to_end(Stub(), 0, ERRORS)
    assert res.attempted == 3 and sorted(res.digits) == [1.0, 2.0, 3.0]


def test_timings_are_rescaled_to_nominal_speed(monkeypatch, capsys):
    class Sleeper:
        name, rotation, warmup, pool = "sleeper", 1, (), [0.02] * 12

        def __init__(self, bq, seed, workdir):
            pass

        def op(self, k):
            return self.pool[k % len(self.pool)]

        def run(self, op):
            time.sleep(op)
            return workloads.Outcome(True, 50.0)

    def slow_reference():  # a host at half its nominal speed
        time.sleep(2 * run.REF_NOMINAL_S)
        return 2 * run.REF_NOMINAL_S

    monkeypatch.setitem(workloads.WORKLOADS, "sleeper", Sleeper)
    monkeypatch.setattr(run, "reference_loop", slow_reference)
    assert run.main(["--workload", "sleeper", "--seed", "1", "--seconds", "0"]) == 0
    metrics = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["metrics"]
    assert 0.01 <= metrics["latency_p50_s"]["value"] < 0.02  # half of a sleep of at least 0.02 s
    assert metrics["ops_per_s"]["value"] > 50  # unscaled, at most 50 sleeps of 0.02 s fit in a second


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    values = list(range(1, 26))
    assert run.tail(values) == (15, 60.0, 25)
    assert run.tail([3, 1, 2]) == (3, 100.0, 3)


def test_fails_without_the_library_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__", ".pytest_cache"))
    proc = _run_cli("--workload", "solve", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
