"""The benchmark's workloads: what one op does and how its output is checked.

Each op certifies one seeded parameter point through the public API of
``ellweights``, imported from the ``src`` tree of the checkout this file
sits in.  Functions are looked up on their modules at call time, so a traced
run that rebinds module attributes sees every call.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import ellweights  # noqa: E402
from ellweights import cli, permcomb, rmatrix, sampling  # noqa: E402

if Path(ellweights.__file__).resolve().parent.parent != SRC:
    raise ImportError(f"ellweights imported from {ellweights.__file__}, not from {SRC}")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str                    # "verify": cli.main; "recursion": rmatrix builders
    n: int
    q: complex
    trunc: int | None = None     # None: the library's |q|-based default
    suites: tuple[str, ...] | None = None   # None: every suite
    first_op_probes: int = 0     # extra fresh processes that time a cold op

    def context(self):
        return ellweights.ThetaContext.create(q=self.q, trunc=self.trunc)

    def smoke(self) -> "Workload":
        """The same op path at n <= 3, for the benchmark's own tests."""
        return replace(self, n=min(self.n - 1, 3), first_op_probes=min(self.first_op_probes, 1))


WORKLOADS = {w.name: w for w in (
    # The interface suite is left out: at q=0.3 it fails to certify about
    # 1.7% of points (residual above tol, or IllConditionedError), and every
    # op of a benchmark workload must certify its point.
    # test_perfbench.test_interface_defect_still_present tracks the defect.
    Workload(
        name="verify_n3",
        why="the default user command at n=3 with every suite but interface: small "
            "ops where sampling, report assembly and per-suite fixed costs weigh most",
        kind="verify", n=3, q=0.3, first_op_probes=8,
        suites=("theta", "triangular", "diagonal", "rmatrel", "dualrel", "mirror", "pprop")),
    Workload(
        name="direct_n4",
        why="n=4 direct build plus mirror check: nearly all time in restriction, "
            "weightfn and theta at restriction points, where 95% of U terms are zero",
        kind="verify", n=4, q=0.3, suites=("triangular", "diagonal", "mirror")),
    Workload(
        name="recursion_n4",
        why="n=4 R and dual recursions with crosscheck at q=0.5i: only rmatrix and "
            "theta run, with 120-factor products and no weight-function terms",
        kind="recursion", n=4, q=0.5j, trunc=120, first_op_probes=4),
)}


def op_seed(seed: int, index: int) -> int:
    """Seed of the index-th op of a run; the same run seed gives the same ops."""
    return seed * 1_000_000 + index


def setup(w: Workload):
    """What a fresh process needs before its first op: a context and the
    permutation tables of the workload's rank."""
    ctx = w.context()
    order = permcomb.all_permutations(w.n)
    for I in order:
        permcomb.fixed_point_tables(I)
    return ctx


@dataclass
class OpResult:
    seconds: float         # by the caller's clock
    start: float           # time.perf_counter() stamps around the op
    end: float
    ok: bool               # the point was certified
    error: str | None      # exception type, or the check that failed
    digest: str            # sha256 of the op's output bytes
    report: dict | None    # the CLI report, for per-suite figures
    report_bytes: int


def _q_text(q: complex) -> str:
    return repr(q.real) if q.imag == 0 else repr(q)


def _verify_argv(w: Workload, seed: int, out: Path) -> list[str]:
    argv = ["verify", "--n", str(w.n), "--q", _q_text(complex(w.q)),
            "--seed", str(seed), "--points", "1", "--out", str(out)]
    if w.trunc is not None:
        argv += ["--trunc", str(w.trunc)]
    if w.suites is not None:
        argv += ["--suites", ",".join(w.suites)]
    return argv


#: op errors that mean the program's output is wrong, not merely uncertified
WRONG_OUTPUT = frozenset({"report-config", "report-suites", "report-inconsistent"})


def _check_report(w: Workload, report: dict, status: int) -> str | None:
    """None when the report certifies the point, else why it does not.

    A report that names an error or a failed check is a failed op: the
    program did not certify the point.  A report that skips requested work
    or contradicts itself is a wrong output (WRONG_OUTPUT).
    """
    if report.get("config", {}).get("n") != w.n:
        return "report-config"
    if "error" in report:
        return report["error"]["type"]
    suites = report.get("suites", {})
    if tuple(suites) != (w.suites or cli.SUITE_NAMES):
        return "report-suites"
    certified = all(s["checks"] and s["pass"] for s in suites.values())
    if report.get("pass") is not certified or (status == 0) is not certified:
        return "report-inconsistent"
    return None if certified else "check-failed"


def _report_path(w: Workload) -> Path:
    return OUT / f"report_{w.name}.json"


def _call(w: Workload, ctx, seed: int):
    """The op's calls into the program, and nothing else."""
    if w.kind == "verify":
        return cli.main(_verify_argv(w, seed, _report_path(w)))
    p = sampling.random_parameter_point(w.n, np.random.default_rng(seed), ctx)
    return (p, rmatrix.build_A_by_R_recursion(p, ctx, crosscheck=True),
            rmatrix.build_A_by_dual_recursion(p, ctx, crosscheck=True))


def _check(w: Workload, ctx, output):
    """(error, digest, report, report bytes) of an op's output."""
    if w.kind == "verify":
        data = _report_path(w).read_bytes()
        report = json.loads(data)
        return (_check_report(w, report, output), hashlib.sha256(data).hexdigest(),
                report, len(data))
    p, a, b = output
    deviation = a.max_deviation(b)
    h = hashlib.sha256(json.dumps(p.to_json()).encode())
    h.update(a.entries.tobytes())
    h.update(b.entries.tobytes())
    h.update(repr(deviation).encode())
    return None if deviation < ctx.tol else "deviation", h.hexdigest(), None, 0


def run_op(w: Workload, ctx, seed: int, clock=time.perf_counter) -> OpResult:
    """One op, timed by ``clock`` over its calls into the program; checking
    the output is not timed."""
    start, t0 = time.perf_counter(), clock()
    try:
        output = _call(w, ctx, seed)
    except Exception as exc:  # an op that raises is counted, the run goes on
        seconds, end = clock() - t0, time.perf_counter()
        return OpResult(seconds, start, end, False, type(exc).__name__, "", None, 0)
    seconds, end = clock() - t0, time.perf_counter()
    error, digest, report, size = _check(w, ctx, output)
    return OpResult(seconds, start, end, error is None, error, digest, report, size)
