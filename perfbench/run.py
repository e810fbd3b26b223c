"""Benchmark of the betheqq library: one seeded workload per run.

    python3 perfbench/run.py --workload {solve,diagonalize} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from its
``src/`` directory and nowhere else.  One process, one thread, a closed loop
with one client: each operation starts when the previous one has returned
and had its output checked.

``--trace 0`` measures the end-to-end metrics with tracing off: one whole
pass over the workload's pool of operations, then on in whole rotations (one
of each kind of operation) until ``--seconds`` have passed.  After every
operation it also times a fixed pure-Python reference loop.  The speed of a
shared host drifts by tens of percent over minutes, and the library's speed
drifts with it; the timing metrics other than ``setup_s`` are therefore
rescaled to the host's nominal speed, at which the reference loop takes
``REF_NOMINAL_S`` (unit ``nominal_s``).  The summary also prints them
unscaled, in seconds.
``--trace 1`` alternates passes over the first rotation of operations,
untraced then traced, for the same time budget; it reports the per-layer
metrics of the traced passes and the tracing overhead against the untraced
ones, and writes the spans to ``perfbench/.out/``.

A summary goes to standard output first; the last line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # set-up is timed from here

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

from tracer import LAYERS, Tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, ".out")

#: set-up (input generation, files, warm-up) is repeated this often; the median counts
SETUP_REPS = 7
#: the import is timed again in this many fresh interpreters; the median of
#: those and this process's own import counts, as one import is a short sample
IMPORT_REPS = 4
#: what a fresh interpreter runs to time the import the same way this module does
_IMPORT_PROBE = ("import time; t0 = time.perf_counter(); "
                 "import argparse, gc, json, os, resource, shutil, statistics, subprocess, sys; "
                 "sys.path.insert(0, sys.argv[1]); import betheqq; print(time.perf_counter() - t0)")

#: iterations of the reference loop timed after every operation
REF_ITERATIONS = 60_000
#: seconds one reference loop takes at the host's nominal speed (about its
#: median on a 2-vCPU Xeon VM under Python 3.11); only fixes the unit
REF_NOMINAL_S = 0.005

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/nominal_s"),
    ("latency_p50_s", "nominal_s"),
    ("latency_tail_s", "nominal_s"),
    ("accuracy_digits", "digits"),
    ("peak_rss_mb", "MB"),
)

# per-layer metrics: span or counter name, statistic, unit.  Per-operation
# values are averaged over the traced operations.
_SPAN_METRICS = (
    ("bethe.seed_and_continue", ("self_s",)),
    ("bethe.solve_newton", ("calls", "failed", "useful_ratio", "self_s")),
    ("bethe.bethe_residual", ("calls", "self_s")),
    ("bethe.bethe_jacobian", ("calls", "self_s")),
    ("bethe.verify_bethe", ("self_s",)),
    ("bethe.roots_to_solution", ("self_s",)),
    ("scalars.NumericField.abs", ("calls",)),
    ("scalars.NumericField.call", ("calls",)),
    ("rootsys.cartan_matrix", ("calls", "self_s")),
    ("qqcore.complete_minus", ("calls", "self_s")),
    ("qqcore.qq_residual", ("calls", "self_s")),
    ("qqcore.check_nondegenerate", ("calls", "self_s")),
    ("qqcore.build_lambdas", ("calls",)),
    ("polyalg.Poly.mul", ("calls", "self_s")),
    ("polyalg.RationalFn.make", ("calls", "self_s")),
    ("polyalg.solve_linear_system", ("calls", "self_s")),
    ("polyalg.roots", ("self_s",)),
    ("backlund.chain", ("calls", "self_s")),
    ("backlund.apply_simple", ("calls", "self_s")),
    ("backlund.mu", ("calls",)),
    ("opermat.diagonalize_type_a", ("self_s",)),
    ("opermat.gauge_transform", ("self_s",)),
    ("opermat.RatMatrix.matmul", ("calls", "self_s")),
    ("opermat.bruhat_factor_w0", ("self_s",)),
    ("fileio.instance_from_doc", ("self_s",)),
    ("fileio.solution_from_doc", ("self_s",)),
    ("cli.cmd_diagonalize", ("self_s",)),
)
_STAT_UNITS = {"calls": "1/op", "failed": "1/op", "useful_ratio": "ratio", "self_s": "s/op"}
SHARE_LAYERS = LAYERS + ("perfbench",)
PER_LAYER = (
    tuple((f"{name}.{stat}", _STAT_UNITS[stat]) for name, stats in _SPAN_METRICS for stat in stats)
    + (
        ("bethe.newton_steps", "1/op"),
        ("opermat.v_max_degree", "degree"),
        ("opermat.v_upper_triangular_ratio", "ratio"),
        ("cli.exit_nonzero", "1/op"),
    )
    + tuple((f"{layer}.self_share", "ratio") for layer in SHARE_LAYERS)
    + (("trace.overhead_ratio", "ratio"),)
)


class SourceMissing(Exception):
    pass


def import_library():
    """Import betheqq from this checkout's src/ only."""
    if not os.path.isdir(os.path.join(SRC, "betheqq")):
        raise SourceMissing(f"no betheqq package under {SRC}")
    sys.path.insert(0, SRC)
    import betheqq

    if os.path.dirname(os.path.dirname(os.path.abspath(betheqq.__file__))) != SRC:
        raise SourceMissing(f"betheqq was imported from {betheqq.__file__}, not from {SRC}")
    return betheqq


def run_checked(wl, op, errors):
    """One operation and its check; library errors count as a failed outcome."""
    from workloads import Outcome

    try:
        return wl.run(op)
    except errors as exc:
        return Outcome(False, reason=f"{type(exc).__name__}: {exc}")


def tail(values: list) -> tuple:
    """(value, percentile, samples): the highest percentile with >= 10 samples beyond it.

    With n >= 11 sorted samples that is sample n-11 (0-based), percentile
    100 (n-10)/n; with fewer, the maximum is reported at percentile 100.
    """
    s = sorted(values)
    n = len(s)
    if n >= 11:
        return s[n - 11], 100.0 * (n - 10) / n, n
    return s[-1], 100.0, n


class Result:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.latencies: list = []  # passed operations only
        self.digits: list = []  # of the operations that count toward accuracy_digits
        self.reasons: list = []
        self.reference: list = []  # seconds of each reference loop

    def add(self, outcome, seconds: float, count_digits: bool = True) -> None:
        self.attempted += 1
        if count_digits and outcome.digits is not None:
            self.digits.append(outcome.digits)
        if outcome.ok:
            self.latencies.append(seconds)
        else:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(outcome.reason)


def reference_loop() -> float:
    """Seconds for a fixed pure-Python integer loop, which no library code touches.

    Its speed follows the host's: over 15-50 s windows its median and the
    workloads' speed moved together (correlation 0.93), and dividing it out
    cut the spread of the workloads' speed from about 20% to about 5%.
    """
    t0 = time.perf_counter()
    s = 0
    for i in range(REF_ITERATIONS):
        s += i * i % 7
    return time.perf_counter() - t0


def time_imports(reps: int) -> list:
    """Seconds to import the library in ``reps`` fresh interpreters, one after another."""
    return [float(subprocess.run([sys.executable, "-c", _IMPORT_PROBE, SRC], capture_output=True,
                                 text=True, check=True, timeout=120).stdout)
            for _ in range(reps)]


def set_up(bq, workload_cls, seed: int, workdir: str, errors, reps: int):
    """Generate inputs, write files and warm up ``reps`` times; returns (workload, seconds each)."""
    times = []
    wl = None
    for _ in range(reps):
        gc.collect()  # the previous repetition's garbage is not this one's cost
        t0 = time.perf_counter()
        shutil.rmtree(workdir, ignore_errors=True)
        wl = workload_cls(bq, seed, workdir)
        for k in wl.warmup:
            run_checked(wl, wl.op(k), errors)
        times.append(time.perf_counter() - t0)
    return wl, times


def measure_end_to_end(wl, seconds: float, errors) -> tuple:
    """Run the pool once, then whole rotations until ``seconds`` have passed.

    Stopping only at the end of a rotation keeps the mix of operation kinds
    the same in every run, so the latency percentiles do not depend on where
    the time ran out.  Only the first pass over the pool counts toward
    accuracy_digits, so its minimum is over the same seed-defined instances
    however fast the code is.  Returns the result and the seconds spent on
    operations, which leaves out the reference loops timed between them.
    """
    res = Result()
    clock = time.perf_counter
    n_pool = len(wl.pool)
    t_begin = clock()
    k = 0
    while True:
        op = wl.op(k)
        t0 = clock()
        outcome = run_checked(wl, op, errors)
        res.add(outcome, clock() - t0, count_digits=k < n_pool)
        res.reference.append(reference_loop())
        k += 1
        if k >= n_pool and k % wl.rotation == 0 and clock() - t_begin >= seconds:
            break
    return res, clock() - t_begin - sum(res.reference)


def measure_traced(wl, seconds: float, errors, tracer) -> tuple:
    """Alternate untraced and traced passes over the first rotation of operations."""
    res = Result()
    clock = time.perf_counter
    ops = [wl.op(k) for k in range(wl.rotation)]
    plain_s = traced_s = 0.0
    infos: list = []
    passes = 0
    t_begin = clock()
    while True:
        for op in ops:
            t0 = clock()
            outcome = run_checked(wl, op, errors)
            dt = clock() - t0
            plain_s += dt
            res.add(outcome, dt)
        tracer.install()
        try:
            for k, op in enumerate(ops):
                t0 = clock()
                outcome = tracer.run_op(passes * len(ops) + k, run_checked, wl, op, errors)
                dt = clock() - t0
                traced_s += dt
                res.add(outcome, dt)
                infos.append(outcome.info)
        finally:
            tracer.uninstall()
        passes += 1
        if clock() - t_begin >= seconds:
            break
    return res, infos, traced_s / plain_s - 1.0


def per_layer_metrics(tracer, infos: list, overhead: float) -> dict:
    n_ops = len(infos)
    agg = tracer.aggregate()
    out = {}
    for name, stats in _SPAN_METRICS:
        a = agg.get(name, {"calls": 0, "raised": 0, "self_s": 0.0})
        for stat in stats:
            if stat == "useful_ratio":
                value = (a["calls"] - a["raised"]) / a["calls"] if a["calls"] else 0.0
            elif stat == "failed":
                value = a["raised"] / n_ops
            else:
                value = a[stat] / n_ops
            out[f"{name}.{stat}"] = value

    def info_values(key):
        return [i[key] for i in infos if key in i]

    out["bethe.newton_steps"] = sum(info_values("newton_steps")) / n_ops
    out["opermat.v_max_degree"] = max(info_values("v_max_degree"), default=0)
    shares = info_values("v_lower_zero_share")
    out["opermat.v_upper_triangular_ratio"] = sum(shares) / len(shares) if shares else 0.0
    out["cli.exit_nonzero"] = sum(1 for c in info_values("exit_code") if c != 0) / n_ops
    layers = tracer.layer_self_s()
    total = sum(layers.values())
    for layer in SHARE_LAYERS:
        out[f"{layer}.self_share"] = layers.get(layer, 0.0) / total if total else 0.0
    out["trace.overhead_ratio"] = overhead
    return out


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        bq = import_library()
    except (SourceMissing, ImportError) as exc:
        print(f"perfbench: cannot import the library: {exc}", file=sys.stderr)
        return 2
    import_times = [time.perf_counter() - T_START] + time_imports(IMPORT_REPS)
    errors = (bq.BetheqqError, ValueError, ArithmeticError)

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"inputs-{args.workload}-{args.seed}-{os.getpid()}")
    try:
        wl, setup_times = set_up(bq, WORKLOADS[args.workload], args.seed, workdir, errors, SETUP_REPS)
        setup_s = statistics.median(import_times) + statistics.median(setup_times)
        if args.trace:
            tracer = Tracer()
            res, infos, overhead = measure_traced(wl, args.seconds, errors, tracer)
            metrics = per_layer_metrics(tracer, infos, overhead)
            units = dict(PER_LAYER)
            trace_path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
            tracer.dump(trace_path, {"workload": args.workload, "seed": args.seed,
                                     "traced_ops": len(infos), "overhead_ratio": overhead})
            notes = [f"traced operations: {len(infos)}; tracing overhead {overhead:+.1%}; "
                     f"spans stored {len(tracer.spans)}, dropped {tracer.dropped}; written to "
                     f"{os.path.relpath(trace_path, ROOT)}"]
        else:
            res, wall = measure_end_to_end(wl, args.seconds, errors)
            passed = len(res.latencies)
            tail_s, tail_pct, n = tail(res.latencies) if passed else (0.0, 0.0, 0)
            p50_s = statistics.median(res.latencies) if passed else 0.0
            ref_s = statistics.median(res.reference)
            scale = REF_NOMINAL_S / ref_s  # seconds on this host -> nominal seconds
            metrics = {
                "setup_s": setup_s,
                "ops_per_s": passed / (wall * scale),
                "latency_p50_s": p50_s * scale,
                "latency_tail_s": tail_s * scale,
                "accuracy_digits": min(res.digits) if res.digits else 0.0,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = dict(END_TO_END)
            notes = [f"latency_tail_s is p{tail_pct:.1f} of {n} passed operations",
                     f"reference loop: median {ref_s * 1e3:.3f} ms of {len(res.reference)}, nominal "
                     f"{REF_NOMINAL_S * 1e3:.3f} ms; unscaled: ops_per_s {passed / wall:.6g} 1/s, "
                     f"latency_p50_s {p50_s:.6g} s, latency_tail_s {tail_s:.6g} s",
                     f"setup_s = median of imports {', '.join(f'{t:.4f}' for t in import_times)} s"
                     f" + median of set-ups "
                     f"{', '.join(f'{t:.4f}' for t in setup_times)} s"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    notes.append(f"fail_frac = {res.failed}/{res.attempted} = {res.failed / res.attempted:.4f} ratio")
    notes += [f"failure: {r}" for r in res.reasons]
    for note in notes:
        print(f"# {note}")
    for name, value in metrics.items():
        print(f"{name:42s} {value:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
