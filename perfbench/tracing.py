"""Traced runs: per-layer counts, self time and spans.

Tracing is installed from outside the package by rebinding module
attributes.  A function is rebound under every name that holds it in any
``ellweights`` module (``weightfn.theta``, ``rmatrix.theta``, ``cli.theta``,
``mirror.W``, ``sampling.is_generic``, ...) and in ``cli.SUITES``, so no call
escapes its wrapper.  ``uninstall`` restores every binding.

Spans are recorded at the op -> suite/build -> residual boundaries, each with
its parent span and the op it belongs to.  The hot leaves (``theta``,
``psi``, ``U``) and the other counted functions only aggregate calls, total
time and self time.  A function's self time is its duration minus the part
covered by wrapped functions it called.  Spans stay in memory until the
caller writes them out.
"""

from __future__ import annotations

import time
from collections import defaultdict

import workloads  # noqa: F401  (puts the checkout's src tree on sys.path)

import ellweights
from ellweights import (cli, mirror, permcomb, qtheta, restriction, rmatrix,
                        sampling, weightfn)

MODULES = (ellweights, qtheta, permcomb, weightfn, restriction, rmatrix,
           mirror, sampling, cli)

#: functions that aggregate counts and times only
COUNTED = (
    (weightfn, "psi"), (weightfn, "W"), (weightfn, "weight_terms"),
    (weightfn, "W_sigma"), (weightfn, "P"), (weightfn, "resonance_margin"),
    (restriction, "A_direct"), (restriction, "A_diagonal"),
    (restriction, "restriction_point"),
    (permcomb, "bruhat_leq"), (permcomb, "fixed_point_tables"),
    (permcomb, "all_permutations"),
    (rmatrix, "felder_R"), (rmatrix, "dual_R"),
    (sampling, "random_parameter_point"), (sampling, "random_chern_point"),
)

#: functions that also record one span per call
SPANNED = (
    (restriction, "build_A_direct"),
    (rmatrix, "build_A_by_R_recursion"), (rmatrix, "build_A_by_dual_recursion"),
    (rmatrix, "exchange_residual"), (rmatrix, "dual_residual"),
    (mirror, "mirror_residual"), (mirror, "interpolation_residuals"),
)

#: methods, rebound on their class
COUNTED_METHODS = (
    (restriction, restriction.RestrictionMatrix, "triangularity_violation"),
    (restriction, restriction.RestrictionMatrix, "zero_pairs"),
    (restriction, restriction.RestrictionMatrix, "max_deviation"),
)
SPANNED_METHODS = (
    (mirror, mirror.DualityInterface, "value"),
)


def _short(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


class Stat:
    """Calls, total and self seconds of one wrapped function."""

    __slots__ = ("calls", "total", "self_s")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_s = 0.0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.spans: list[tuple] = []          # (id, parent, op, name, start, end)
        self.theta_distinct = 0               # summed over ops
        self.u_zero = 0
        self.generic_rejects = 0
        self._args: set = set()
        self._child: list[float] = []         # child time of each open call
        self._open: list[int] = [0]           # open span ids; 0 is the root
        self._op = 0
        self._saved: list[tuple] = []

    # -- recording --------------------------------------------------------

    def _enter(self):
        self._child.append(0.0)
        return time.perf_counter()

    def _exit(self, st: Stat, t0: float) -> float:
        t1 = time.perf_counter()
        dt = t1 - t0
        child = self._child.pop()
        st.calls += 1
        st.total += dt
        st.self_s += dt - child
        if self._child:
            self._child[-1] += dt
        return t1

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named name."""
        st = self.stats[name]
        sid = len(self.spans) + 1
        parent = self._open[-1]
        self._open.append(sid)
        self.spans.append(None)
        t0 = self._enter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = self._exit(st, t0)
            self._open.pop()
            self.spans[sid - 1] = (sid, parent, self._op, name, t0, t1)

    def begin_op(self, op: int):
        self._op = op
        self._args.clear()

    def end_op(self):
        self.theta_distinct += len(self._args)
        self._args.clear()

    # -- wrappers ---------------------------------------------------------

    def _counted(self, name, fn):
        st = self.stats[name]

        def wrapper(*args, **kwargs):
            t0 = self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(st, t0)
        return wrapper

    def _spanned(self, name, fn):
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return wrapper

    def _theta(self, fn):
        st = self.stats["qtheta.theta"]
        args = self._args

        def theta(ctx, lx):
            args.add(getattr(lx, "value", lx))
            t0 = self._enter()
            try:
                return fn(ctx, lx)
            finally:
                self._exit(st, t0)
        return theta

    def _u(self, fn):
        st = self.stats["weightfn.U"]

        def U(*args, **kwargs):
            t0 = self._enter()
            try:
                value = fn(*args, **kwargs)
            finally:
                self._exit(st, t0)
            if value == 0:
                self.u_zero += 1
            return value
        return U

    def _is_generic(self, fn):
        st = self.stats["weightfn.is_generic"]

        def is_generic(*args, **kwargs):
            t0 = self._enter()
            try:
                ok = fn(*args, **kwargs)
            finally:
                self._exit(st, t0)
            if not ok:
                self.generic_rejects += 1
            return ok
        return is_generic

    # -- install ----------------------------------------------------------

    def _rebind(self, original, wrapper):
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def install(self):
        self._rebind(qtheta.theta, self._theta(qtheta.theta))
        self._rebind(weightfn.U, self._u(weightfn.U))
        self._rebind(weightfn.is_generic, self._is_generic(weightfn.is_generic))
        for module, attr in COUNTED:
            fn = getattr(module, attr)
            self._rebind(fn, self._counted(f"{_short(module)}.{attr}", fn))
        for module, attr in SPANNED:
            fn = getattr(module, attr)
            self._rebind(fn, self._spanned(f"{_short(module)}.{attr}", fn))
        for module, cls, attr in COUNTED_METHODS + SPANNED_METHODS:
            fn = vars(cls)[attr]
            name = f"{_short(module)}.{cls.__name__}.{attr}"
            make = self._spanned if (module, cls, attr) in SPANNED_METHODS else self._counted
            self._saved.append((cls, attr, fn))
            setattr(cls, attr, make(name, fn))
        for suite, fn in list(cli.SUITES.items()):
            self._saved.append((cli.SUITES, suite, fn))
            cli.SUITES[suite] = self._spanned(f"cli.suite.{suite}", fn)

    def uninstall(self):
        for owner, attr, value in reversed(self._saved):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- read-out ---------------------------------------------------------

    def module_self_s(self, module: str) -> float:
        prefix = module + "."
        return sum(st.self_s for name, st in self.stats.items()
                   if name.startswith(prefix))

    def span_durations(self, name: str) -> list[float]:
        return [s[5] - s[4] for s in self.spans if s[3] == name]

    def spans_json(self) -> list[dict]:
        keys = ("id", "parent", "op", "name", "start", "end")
        return [dict(zip(keys, s)) for s in self.spans]
