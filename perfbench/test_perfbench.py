"""The benchmark's own tests: wrapper coverage, count repeatability and a
smoke run of every workload path.

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import workloads  # first: puts the checkout's src tree on sys.path
import tracing
from ellweights import (Permutation, ThetaContext, cli, mirror, qtheta,
                        restriction, rmatrix, sampling, weightfn)

BENCHMARK = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())


def counts(tr: tracing.Tracer) -> dict:
    out = {name: st.calls for name, st in tr.stats.items()}
    out.update(theta_distinct=tr.theta_distinct, u_zero=tr.u_zero,
               generic_rejects=tr.generic_rejects)
    return out


def traced_counts(build) -> dict:
    """Counts of one traced call of build(p, ctx) at the n = 4, q = 0.3
    point of default_rng(1); sampling happens before tracing starts."""
    ctx = ThetaContext.create(q=0.3)
    p = sampling.random_parameter_point(4, np.random.default_rng(1), ctx)
    with tracing.Tracer() as tr:
        tr.begin_op(0)
        build(p, ctx)
        tr.end_op()
    return counts(tr)


def direct(p, ctx):
    restriction.build_A_direct(Permutation.identity(4), p, ctx)


def recursion_pair(p, ctx):
    rmatrix.build_A_by_R_recursion(p, ctx, crosscheck=True)
    rmatrix.build_A_by_dual_recursion(p, ctx, crosscheck=True)


@pytest.mark.parametrize("build, theta_calls, distinct, u_calls, u_zero", [
    (direct, 193_536, 164, 6_912, 6_597),
    (recursion_pair, 118_848, 157, 0, 0),
])
def test_wrapper_coverage_and_repeat(build, theta_calls, distinct, u_calls, u_zero):
    first = traced_counts(build)
    assert first["qtheta.theta"] == theta_calls
    assert first["theta_distinct"] == distinct
    assert first.get("weightfn.U", 0) == u_calls
    assert first["u_zero"] == u_zero
    assert traced_counts(build) == first


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_counts_repeat_and_outputs_unchanged(name):
    w = workloads.WORKLOADS[name].smoke()
    ctx = workloads.setup(w)
    seeds = [workloads.op_seed(7, i) for i in range(3)]
    plain = [workloads.run_op(w, ctx, s) for s in seeds]
    seen = []
    for _ in range(2):
        with tracing.Tracer() as tr:
            again = [workloads.run_op(w, ctx, s) for s in seeds]
        assert [r.digest for r in again] == [r.digest for r in plain]
        assert all(r.ok for r in again)
        seen.append(counts(tr))
    assert seen[0] == seen[1]
    assert seen[0]["qtheta.theta"] > 0


def test_uninstall_restores_every_binding():
    before = {m.__name__: dict(vars(m)) for m in tracing.MODULES}
    suites = dict(cli.SUITES)
    value = mirror.DualityInterface.value
    theta = qtheta.theta
    with tracing.Tracer():
        assert rmatrix.theta is weightfn.theta is qtheta.theta is not theta
        assert cli.SUITES["mirror"] is not suites["mirror"]
    for m in tracing.MODULES:
        for attr, obj in before[m.__name__].items():
            assert vars(m)[attr] is obj, (m.__name__, attr)
    assert cli.SUITES == suites
    assert mirror.DualityInterface.value is value


@pytest.mark.xfail(strict=True, reason="known defect: at q=0.3 the interface suite "
                   "misses tol at about 1.7% of n=3 points; once this passes, "
                   "put the interface suite back into verify_n3")
def test_interface_defect_still_present(tmp_path):
    out = tmp_path / "report.json"
    cli.main(["verify", "--n", "3", "--q", "0.3", "--seed", "3000039", "--points", "1",
              "--suites", "interface", "--out", str(out)])
    assert json.loads(out.read_text())["pass"] is True


def bench(*args, env=None):
    cmd = [sys.executable, str(workloads.ROOT / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, capture_output=True, text=True, env=env,
                          cwd=workloads.ROOT, timeout=300)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("name", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_emits_every_metric_with_unit(name, trace, section):
    done = bench("--workload", name, "--seed", "5", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    assert got == want
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_refuses_other_thread_settings():
    env = dict(os.environ, ELLWEIGHTS_THREADS="2")
    done = bench("--workload", "verify_n3", "--seed", "1", "--seconds", "1",
                 "--smoke", env=env)
    assert done.returncode != 0
    assert done.stdout == ""


def test_fails_without_the_program():
    bare = workloads.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(workloads.ROOT / "BENCHMARK.json", bare)
    for f in (workloads.ROOT / "perfbench").glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify_n3",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=bare, timeout=180)
    shutil.rmtree(bare)
    assert done.returncode != 0
    assert done.stdout == ""
