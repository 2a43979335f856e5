"""Benchmark of the ellweights certifier.

    python3 perfbench/run.py --workload verify_n3 --seed 1 --seconds 30 --trace 0

Each workload is one seeded closed loop: one process, one client thread,
BLAS/OpenMP pinned to one thread.  An op certifies one seeded parameter
point.  The first op of the process is the cold op; the loop then runs
warm ops until the next one would end after ``--seconds``.  Set-up time is
the median over fresh probe processes.  Latencies count every op.

Times are wall-clock seconds divided by the host-speed factor that a fixed
calibration kernel measures next to them (hostspeed.py), so they read as
seconds on the reference host and do not follow the drift of a shared VM.
The raw seconds and the factors are in the detail line.

Every op's output is checked.  An op that raises, or whose report or
recursion deviation does not certify its point, is failed: it is counted in
``failed`` and ``fail_ratio``, by error type, and never retried or
re-seeded.  ``correct`` is false when an output is wrong rather than
uncertified: a report that skips requested work or contradicts its own
checks, or (traced runs) one that differs from the untraced run's bytes.

With ``--trace 0`` the last line holds the end-to-end metrics (BENCHMARK.json
``end_to_end``).  With ``--trace 1`` the process runs each seed untraced and
then again with every public function of each module wrapped (see
tracing.py), requires byte-identical outputs, and the last line holds the
per-layer metrics (``per_layer``), in raw seconds.  The line before the
last one holds the details: environment, fail_ratio, the tail percentile and
its sample count, the samples behind each median and the error tally.

``--workload all`` runs every workload in its own process and prints all
end-to-end metrics, fail_ratio included.  ``--smoke`` runs each workload's op
path at n <= 3, for the benchmark's own tests.
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
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 9        # fresh processes per run for setup_s
HARD_CAP_S = 120.0      # no op starts after this, whatever --seconds says
PROBE_TIMEOUT_S = 60.0

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[var] = "1"      # before numpy loads

try:
    import numpy
    import hostspeed
    import tracing
    import workloads
except ImportError as exc:     # a checkout without the program
    sys.exit(f"perfbench: cannot import the program: {exc}")

END_TO_END = (("setup_s", "s"), ("first_op_s", "s"), ("op_s_p50", "s"),
              ("op_s_tail", "s"), ("ops_per_s", "1/s"), ("peak_rss_mb", "MB"))
#: fixed here, not read from the program, so the metric names stay put;
#: no workload runs the interface suite (see workloads.py)
SUITE_NAMES = ("theta", "triangular", "diagonal", "rmatrel", "dualrel",
               "mirror", "pprop")


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; below 21 samples no such percentile reaches the
    median, and the maximum is reported as percentile 100."""
    s = sorted(samples)
    if len(s) < 21:
        return s[-1], 100.0
    return s[-11], 100.0 * (len(s) - 10) / len(s)


def run_ops(op, seeds, seconds: float, min_ops: int, clock=time.perf_counter):
    """Call op(index, seed) on successive seeds until the next call would
    end after ``seconds`` by ``clock`` (after at least ``min_ops`` calls).
    Returns the results and the loop's duration by ``clock``."""
    results, durations = [], []
    start = clock()
    for i, seed in enumerate(seeds):
        if i >= min_ops:
            elapsed = clock() - start
            if elapsed + statistics.median(durations) > min(seconds, HARD_CAP_S):
                break
        t0 = clock()
        results.append(op(i, seed))
        durations.append(clock() - t0)
    return results, clock() - start


def probe(name: str, smoke: bool, seed: int, first_op: bool) -> dict:
    cmd = [sys.executable, str(HERE / "probe.py"), name, str(int(smoke)),
           str(seed), str(int(first_op))]
    done = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def tally(results) -> dict[str, int]:
    errors: dict[str, int] = {}
    for r in results:
        if not r.ok:
            errors[r.error] = errors.get(r.error, 0) + 1
    return errors


def wrong_output(errors: dict[str, int]) -> bool:
    return any(e in workloads.WRONG_OUTPUT for e in errors)


def environment(w, ctx) -> dict:
    q = complex(w.q)
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "n": w.n, "q": [q.real, q.imag], "trunc": ctx.trunc,
            "suites": list(w.suites) if w.suites else "all"}


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(w, ctx, seed: int, seconds: float, smoke: bool):
    seeds = (workloads.op_seed(seed, i) for i in range(10 ** 6))
    with hostspeed.Sampler() as sp:
        clock = lambda: time.perf_counter() - sp.spent  # noqa: E731  (kernel time excluded)
        start = time.perf_counter()
        results, window = run_ops(lambda i, s: workloads.run_op(w, ctx, s, clock),
                                  seeds, seconds, min_ops=2, clock=clock)
        end = time.perf_counter()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    factors = [sp.factor(r.start, r.end) for r in results]
    ops = [r.seconds / f for r, f in zip(results, factors)]
    probes = [probe(w.name, smoke, workloads.op_seed(seed, i), i < w.first_op_probes)
              for i in range(SETUP_PROBES)]
    cold = [ops[0]] + [p["first_op_s"] for p in probes if "first_op_s" in p]
    warm = ops[1:]
    tail_s, tail_pct = tail(warm)
    errors = tally(results)
    for p in probes:
        if p.get("ok") is False:
            errors[p["error"]] = errors.get(p["error"], 0) + 1
    attempted = len(results) + len(cold) - 1
    failed = sum(errors.values())
    values = {"setup_s": statistics.median(p["setup_s"] for p in probes),
              "first_op_s": statistics.median(cold),
              "op_s_p50": statistics.median(warm),
              "op_s_tail": tail_s,
              "ops_per_s": len(results) / (window / sp.factor(start, end)),
              "peak_rss_mb": rss_mb}
    metrics = {name: metric(values[name], unit) for name, unit in END_TO_END}
    detail = {"workload": w.name, "seed": seed, "trace": 0,
              "env": environment(w, ctx),
              "fail_ratio": metric(failed / attempted, "ratio"),
              "op_s_tail": {"percentile": tail_pct, "samples": len(warm)},
              "samples": {"setup_s": [p["setup_s"] for p in probes],
                          "first_op_s": cold, "op_s": warm},
              "raw_seconds": {"setup_s": [p["setup_raw_s"] for p in probes],
                              "first_op_s": [results[0].seconds]
                              + [p["first_op_raw_s"] for p in probes if "first_op_s" in p],
                              "op_s": [r.seconds for r in results[1:]],
                              "window_s": window},
              "host_speed": {"factor_p50": statistics.median(factors),
                             "factor_min": min(factors), "factor_max": max(factors),
                             "kernel_samples": len(sp.samples)},
              "errors": errors}
    return {"correct": not wrong_output(errors), "attempted": attempted,
            "failed": failed, "metrics": metrics}, detail


def layer_metrics(tr, traced, w, ctx) -> dict:
    """Per-layer metrics of the traced ops, per op where they are counts or
    times; trace.overhead_ratio is added by the caller."""
    ops = len(traced)
    st = tr.stats
    errors = tally(traced)

    def per_op(name, unit="calls/op"):
        return metric(st[name].calls / ops, unit)

    def secs(name):
        return metric(st[name].total / ops, "s/op")

    theta = st["qtheta.theta"]
    u = st["weightfn.U"]
    generic = st["weightfn.is_generic"]
    builds = tr.span_durations("restriction.build_A_direct")
    m = {
        "qtheta.theta.calls": per_op("qtheta.theta"),
        "qtheta.theta.distinct_args": metric(tr.theta_distinct / ops, "args/op"),
        "qtheta.theta.reuse_ratio": metric(
            1.0 - tr.theta_distinct / theta.calls if theta.calls else 0.0, "ratio"),
        "qtheta.theta.self_s": metric(theta.self_s / ops, "s/op"),
        "qtheta.theta.us_per_call": metric(
            1e6 * theta.self_s / theta.calls if theta.calls else 0.0, "us"),
        "qtheta.factors": metric(theta.calls * 2 * ctx.trunc / ops, "computed/op"),
        "weightfn.U.calls": per_op("weightfn.U"),
        "weightfn.U.useful_ratio": metric(
            (u.calls - tr.u_zero) / u.calls if u.calls else 0.0, "ratio"),
        "weightfn.U.self_s": metric(u.self_s / ops, "s/op"),
        "weightfn.psi.calls": per_op("weightfn.psi"),
        "weightfn.W.calls": per_op("weightfn.W"),
        "weightfn.resonance_margin.calls": per_op("weightfn.resonance_margin"),
        "restriction.build_A_direct.calls": per_op("restriction.build_A_direct"),
        "restriction.build_A_direct.s_p50": metric(
            statistics.median(builds) if builds else 0.0, "s"),
        "restriction.A_direct.calls": per_op("restriction.A_direct"),
        "restriction.A_diagonal.calls": per_op("restriction.A_diagonal"),
        "restriction.self_s": metric(tr.module_self_s("restriction") / ops, "s/op"),
        "rmatrix.build_A_by_R_recursion.s": secs("rmatrix.build_A_by_R_recursion"),
        "rmatrix.build_A_by_dual_recursion.s": secs("rmatrix.build_A_by_dual_recursion"),
        "rmatrix.felder_R.calls": per_op("rmatrix.felder_R"),
        "rmatrix.dual_R.calls": per_op("rmatrix.dual_R"),
        "rmatrix.exchange_residual.calls": per_op("rmatrix.exchange_residual"),
        "rmatrix.dual_residual.calls": per_op("rmatrix.dual_residual"),
        "rmatrix.resonance_errors": metric(errors.get("ResonanceError", 0), "count"),
        "mirror.mirror_residual.calls": per_op("mirror.mirror_residual"),
        "mirror.mirror_residual.s": secs("mirror.mirror_residual"),
        "permcomb.bruhat_leq.calls": per_op("permcomb.bruhat_leq"),
        "permcomb.fixed_point_tables.calls": per_op("permcomb.fixed_point_tables"),
        "permcomb.self_s": metric(tr.module_self_s("permcomb") / ops, "s/op"),
        "sampling.random_parameter_point.calls": per_op("sampling.random_parameter_point"),
        "sampling.random_parameter_point.s": secs("sampling.random_parameter_point"),
        "sampling.is_generic.reject_ratio": metric(
            tr.generic_rejects / generic.calls if generic.calls else 0.0, "ratio"),
        "sampling.resampling_errors": metric(errors.get("ResamplingError", 0), "count"),
    }
    reports = [r.report for r in traced if r.report is not None]
    for suite in SUITE_NAMES:
        ran = [rep["suites"][suite] for rep in reports if suite in rep.get("suites", {})]
        m[f"cli.suite.{suite}.s"] = secs(f"cli.suite.{suite}")
        m[f"cli.suite.{suite}.checks"] = metric(
            sum(len(s["checks"]) for s in ran) / ops, "checks/op")
        m[f"cli.suite.{suite}.max_residual"] = metric(
            max((s["max_residual"] for s in ran), default=0.0), "rel")
    m["cli.report_bytes"] = metric(sum(r.report_bytes for r in traced) / ops, "bytes/op")
    return m


def traced(w, ctx, seed: int, seconds: float):
    """Each seed untraced, then traced: pairs close in time share the host's
    speed, so the median pair ratio is the tracing overhead."""
    tr = tracing.Tracer()

    def pair(i, s):
        plain = workloads.run_op(w, ctx, s)
        with tr:
            tr.begin_op(i)
            again = tr.span("op", workloads.run_op, w, ctx, s)
            tr.end_op()
        return plain, again

    seeds = (workloads.op_seed(seed, i) for i in range(10 ** 6))
    pairs, _ = run_ops(pair, seeds, seconds, min_ops=1)
    plain = [p for p, _ in pairs]
    again = [a for _, a in pairs]
    mismatched = sum(p.digest != a.digest for p, a in pairs)
    errors = tally(plain + again)
    failed = sum(errors.values())
    metrics = layer_metrics(tr, again, w, ctx)
    metrics["trace.overhead_ratio"] = metric(
        statistics.median(a.seconds / p.seconds for p, a in pairs), "ratio")
    (workloads.OUT / f"spans_{w.name}_{seed}.json").write_text(
        json.dumps(tr.spans_json()))
    detail = {"workload": w.name, "seed": seed, "trace": 1,
              "env": environment(w, ctx), "ops": len(again),
              "report_mismatches": mismatched, "errors": errors,
              "spans": len(tr.spans)}
    return {"correct": not wrong_output(errors) and mismatched == 0,
            "attempted": len(plain) + len(again), "failed": failed,
            "metrics": metrics}, detail


def run_all(args) -> int:
    """Each workload in its own fresh process; a table of every metric."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(cmd, capture_output=True, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return done.returncode
        lines = done.stdout.strip().splitlines()
        detail, result = json.loads(lines[-2]), json.loads(lines[-1])
        shown = dict(result["metrics"])
        if "fail_ratio" in detail:
            shown["fail_ratio"] = detail["fail_ratio"]
        for key, m in shown.items():
            print(f"{name:14s} {key:40s} {m['value']:<14.6g} {m['unit']}")
            combined["metrics"][f"{name}.{key}"] = m
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="each op path at n <= 3, for the benchmark's tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if os.environ.get("ELLWEIGHTS_THREADS", "1") != "1":
        print("perfbench: refusing to run with ELLWEIGHTS_THREADS="
              f"{os.environ['ELLWEIGHTS_THREADS']}; unset it or set it to 1",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     + ", ".join(workloads.WORKLOADS) + " or all")
    w = workloads.WORKLOADS[args.workload]
    if args.smoke:
        w = w.smoke()
    workloads.OUT.mkdir(exist_ok=True)
    ctx = workloads.setup(w)
    if args.trace:
        result, detail = traced(w, ctx, args.seed, args.seconds)
    else:
        result, detail = end_to_end(w, ctx, args.seed, args.seconds, args.smoke)
    record = workloads.OUT / f"result_{w.name}_{args.seed}_{args.trace}.json"
    record.write_text(json.dumps({"detail": detail, "result": result}, indent=1))
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
