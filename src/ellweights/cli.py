"""Command-line verification harness.

Three modes:

* ``matrix``  -- build the restriction matrix by direct evaluation and by
  both recursions, report pairwise deviations;
* ``weights`` -- evaluate every weight function at a seeded random point;
* ``verify``  -- run identity suites and report per-check residuals.

Reports are JSON with a ``schema`` field; identical configurations
(including the seed) produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .errors import EvaluationError
from .mirror import (DualityInterface, interpolation_residuals,
                     mirror_residual)
from .permcomb import Permutation, all_permutations, compose
from .qtheta import ThetaContext, thetas
from .restriction import (A_diagonal, A_direct, build_A_direct, moduli_csv,
                          relative_residual)
from .rmatrix import (build_A_by_dual_recursion, build_A_by_R_recursion,
                      dual_residual, exchange_residual)
from .sampling import random_chern_point, random_parameter_point
from .weightfn import P, W

SUITE_NAMES = ("theta", "triangular", "diagonal", "rmatrel", "dualrel",
               "mirror", "interface", "pprop")
MODES = ("matrix", "weights", "verify")
N_CAP = 5


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters; equal configs give byte-identical reports."""

    n: int = 3
    q: complex = 0.3
    trunc: int | None = None           # None means the |q|-based default
    tol: float = 1e-8
    seed: int = 20240801
    points: int = 1
    sigma: tuple[int, ...] | None = None
    mode: str = "verify"
    suites: tuple[str, ...] = SUITE_NAMES

    def __post_init__(self):
        if not 1 <= self.n <= N_CAP:
            raise ValueError(f"n must lie in 1..{N_CAP}, got {self.n}")
        if not 0 < abs(complex(self.q)) < 1:
            raise ValueError("|q| must lie in (0, 1)")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError("tol must be positive and finite")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.points < 1:
            raise ValueError("points must be >= 1")
        if self.points != 1 and self.mode != "verify":
            raise ValueError(f"points applies to verify only, got {self.points}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "verify" and not self.suites:
            raise ValueError("no suite given")
        for s in self.suites:
            if s not in SUITE_NAMES:
                raise ValueError(f"unknown suite {s!r}")
            if self.suites.count(s) > 1:
                raise ValueError(f"suite {s!r} listed twice")
        if self.sigma is not None:
            if self.mode != "matrix":
                raise ValueError(f"sigma applies to matrix only, got {self.sigma}")
            Permutation(self.sigma)  # validates
            if len(self.sigma) != self.n:
                raise ValueError(
                    f"sigma has {len(self.sigma)} entries, expected n={self.n}")
        self.context()  # validates q against trunc

    def context(self) -> ThetaContext:
        return ThetaContext.create(q=self.q, trunc=self.trunc, tol=self.tol)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "q": [complex(self.q).real, complex(self.q).imag],
            "trunc": self.trunc,
            "tol": self.tol,
            "seed": self.seed,
            "points": self.points,
            "sigma": list(self.sigma) if self.sigma else None,
            "mode": self.mode,
            "suites": list(self.suites),
        }


def _rng_for(config: RunConfig, stream: str) -> np.random.Generator:
    return np.random.default_rng([config.seed, SUITE_NAMES.index(stream)
                                  if stream in SUITE_NAMES else 31 + len(stream)])


def _word(I: Permutation) -> str:
    return "".join(map(str, I.word))


# ---------------------------------------------------------------------------
# verification suites: one sampling loop, one check function per suite
# ---------------------------------------------------------------------------
#
# A check function takes (ctx, p, rng, fields) for one point p of its
# suite and yields (id, residual) pairs; run_suite appends the point's
# index to each id.  It may add extra report fields.  Library functions
# are called through their module-global names so that rebinding them (as
# a tracer does) reaches every call.

def _check_theta(ctx: ThetaContext, rng: np.random.Generator):
    """Oddness and quasi-periodicity over 1000 random log-arguments."""
    re, im = rng.uniform([-2, -2 * np.pi], [2, 2 * np.pi], (1000, 2)).T
    lx = re + 1j * im
    tv = np.array(thetas(ctx, lx))
    neg = np.array(thetas(ctx, -lx))
    shift = np.array(thetas(ctx, ctx.log_q + lx))
    odd = np.abs(neg + tv) / (1.0 + np.abs(tv))
    qp = np.abs(shift + np.exp(-ctx.log_q / 2 - lx) * tv) / (1.0 + np.abs(shift) + np.abs(tv))
    yield "oddness x1000", float(np.max(odd))
    yield "quasi-periodicity x1000", float(np.max(qp))


def _check_pprop(ctx, p, rng, fields):
    """Inversion-reflection symmetry of the diagonal product."""
    s0, perms = Permutation.longest(p.n), all_permutations(p.n)
    args_inv_rev = tuple(-v for v in p.log_z[::-1])
    # K = s0 I s0, the word n+1-I_{n+1-j}
    lhs = np.array([P(compose(compose(s0, I), s0), args_inv_rev, p, ctx) for I in perms])
    rhs = np.array([P(I, p.log_z, p, ctx) for I in perms])
    for I, res in zip(perms, relative_residual(lhs, rhs).tolist()):
        yield f"pprop I={_word(I)}", res


def _check_triangular(ctx, p, rng, fields):
    mat = build_A_direct(Permutation.identity(p.n), p, ctx)
    fields.setdefault("observed_zero_counts", []).append(len(mat.zero_pairs(ctx.tol)))
    yield "triangularity", mat.triangularity_violation()


def _check_diagonal(ctx, p, rng, fields):
    ident, perms = Permutation.identity(p.n), all_permutations(p.n)
    closed = np.array([A_diagonal(I, p, ctx) for I in perms])
    direct = np.array([A_direct(ident, I, I, p, ctx) for I in perms])
    for I, res in zip(perms, relative_residual(direct, closed).tolist()):
        yield f"diagonal I={_word(I)}", res


def _worst(name: str, res: np.ndarray, n: int) -> tuple[str, float]:
    """One check for a whole residual array indexed [i, j] or [k-1, i, j]:
    its maximum (a NaN is the maximum), with the step k and the row I and
    column J it is read at; an empty array reads 0.0 and names none."""
    if not res.size:
        return f"{name} x0", 0.0
    *k, i, j = np.unravel_index(np.argmax(res), res.shape)
    perms = all_permutations(n)
    at = "".join(f" k={s + 1}" for s in k) + f" I={_word(perms[i])} J={_word(perms[j])}"
    return f"{name} x{res.size} worst{at}", float(res.max())


def _check_rmatrel(ctx, p, rng, fields):
    res = exchange_residual(build_A_direct(Permutation.identity(p.n), p, ctx), ctx)
    yield _worst("exchange relation", res, p.n)


def _check_dualrel(ctx, p, rng, fields):
    res = dual_residual(build_A_direct(Permutation.identity(p.n), p, ctx), ctx)
    yield _worst("dual relation", res, p.n)


def _check_mirror(ctx, p, rng, fields):
    yield _worst("mirror", mirror_residual(p, ctx), p.n)


def _check_interface(ctx, p, rng, fields):
    t, tp = random_chern_point(p.n, rng), random_chern_point(p.n, rng)
    res = interpolation_residuals(DualityInterface(p, ctx), t, tp)
    for I, r1, r2 in zip(all_permutations(p.n), *(r.tolist() for r in res)):
        yield f"interface first I={_word(I)}", r1
        yield f"interface second I={_word(I)}", r2


_CHECKS = {
    "triangular": _check_triangular,
    "diagonal": _check_diagonal,
    "rmatrel": _check_rmatrel,
    "dualrel": _check_dualrel,
    "mirror": _check_mirror,
    "interface": _check_interface,
    "pprop": _check_pprop,
}


def _error(exc: EvaluationError) -> dict:
    return {"type": type(exc).__name__, "message": str(exc)}


def run_suite(name: str, config: RunConfig, ctx: ThetaContext) -> dict:
    """Report of one suite: the checks its check function gives at each of
    ``config.points`` points drawn from the suite's own rng stream.  The
    theta suite draws log-arguments, not points.  An evaluation error ends
    the suite: it fails, and reports the error after the checks made."""
    rng = _rng_for(config, name)
    fields: dict = {}
    pairs, points = [], []
    try:
        if name == "theta":
            pairs.extend(_check_theta(ctx, rng))
        else:
            for pt in range(config.points):
                p = random_parameter_point(config.n, rng, ctx)
                points.append(p.to_json())
                for cid, res in _CHECKS[name](ctx, p, rng, fields):
                    pairs.append((f"{cid} pt={pt}", res))
    except EvaluationError as exc:
        fields = {"error": _error(exc), **fields}
    if name != "theta":
        fields["points"] = points
    checks = [{"id": cid, "residual": res, "pass": bool(res < ctx.tol)}
              for cid, res in pairs]
    return {"checks": checks,
            "max_residual": float(np.max([c["residual"] for c in checks], initial=0.0)),
            "pass": "error" not in fields and all(c["pass"] for c in checks),
            **fields}


SUITES = {name: functools.partial(run_suite, name) for name in SUITE_NAMES}


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------

def run_matrix_mode(config: RunConfig, ctx: ThetaContext) -> dict:
    rng = _rng_for(config, "matrix-mode")
    n = config.n
    sigma = Permutation(config.sigma) if config.sigma else Permutation.identity(n)
    p = random_parameter_point(n, rng, ctx)
    direct = build_A_direct(sigma, p, ctx)
    report: dict = {"direct": direct.to_json_dict()}
    deviations = {}
    if sigma.word == Permutation.identity(n).word:
        rrec = build_A_by_R_recursion(p, ctx)
        drec = build_A_by_dual_recursion(p, ctx)
        report["r_recursion"] = rrec.to_json_dict()
        report["dual_recursion"] = drec.to_json_dict()
        deviations = {
            "direct_vs_r_recursion": direct.max_deviation(rrec),
            "direct_vs_dual_recursion": direct.max_deviation(drec),
            "r_recursion_vs_dual_recursion": rrec.max_deviation(drec),
        }
    report["deviations"] = deviations
    report["observed_zero_count"] = len(direct.zero_pairs(ctx.tol))
    report["pass"] = all(d < ctx.tol for d in deviations.values())
    return report


def run_weights_mode(config: RunConfig, ctx: ThetaContext) -> dict:
    rng = _rng_for(config, "weights-mode")
    n = config.n
    p = random_parameter_point(n, rng, ctx)
    t = random_chern_point(n, rng)
    values = {}
    for I in all_permutations(n):
        v = W(I, t, p, ctx)
        values[_word(I)] = [v.real, v.imag]
    return {
        "point": p.to_json(),
        "chern": [[[v.real, v.imag] for v in lv] for lv in t.levels],
        "values": values,
        "pass": True,
    }


@np.errstate(over="ignore", invalid="ignore")   # out-of-range thetas raise RangeError
def run(config: RunConfig) -> tuple[int, dict]:
    """Execute one configured run; returns (exit_status, report)."""
    ctx = config.context()
    report: dict = {"schema": 1, "version": __version__,
                    "config": config.to_json(), "mode": config.mode}
    try:
        if config.mode == "matrix":
            body = run_matrix_mode(config, ctx)
            report["matrix"] = body
            report["pass"] = body["pass"]
        elif config.mode == "weights":
            body = run_weights_mode(config, ctx)
            report["weights"] = body
            report["pass"] = True
        else:
            suites = {name: SUITES[name](config, ctx) for name in config.suites}
            report["suites"] = suites
            report["pass"] = all(s["pass"] for s in suites.values())
    except EvaluationError as exc:
        report["error"] = _error(exc)
        report["pass"] = False
        return 1, report
    return (0 if report["pass"] else 1), report


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _parse_sigma(text: str) -> tuple[int, ...]:
    parts = text.split(",") if "," in text else list(text)
    return tuple(int(v) for v in parts)


def _parse_q(text: str) -> complex:
    return complex(text.replace(" ", ""))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ellweights",
        description="Verify elliptic weight-function identities numerically.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="mode", required=True)

    def common(sp):
        sp.add_argument("--n", type=int, default=3, help="rank (default 3)")
        sp.add_argument("--q", type=_parse_q, default="0.3",
                        help="modular parameter, |q|<1 (default 0.3)")
        sp.add_argument("--trunc", default="auto",
                        help="product truncation depth or 'auto'")
        sp.add_argument("--tol", type=float, default=1e-8)
        sp.add_argument("--seed", type=int, default=20240801)
        sp.add_argument("--points", type=int, default=1,
                        help="number of random parameter points")
        sp.add_argument("--out", default=None, help="write the JSON report here")

    sp_matrix = sub.add_parser("matrix", help="build restriction matrices")
    common(sp_matrix)
    sp_matrix.add_argument("--sigma", type=_parse_sigma, default=None,
                           help="chamber permutation word, e.g. 2,1,3")
    sp_matrix.add_argument("--csv", default=None,
                           help="write the direct matrix moduli as CSV here")

    sp_weights = sub.add_parser("weights", help="evaluate weight functions")
    common(sp_weights)

    sp_verify = sub.add_parser("verify", help="run verification suites")
    common(sp_verify)
    sp_verify.add_argument("--suites", default=",".join(SUITE_NAMES),
                           help="comma-separated subset of: " + ", ".join(SUITE_NAMES))
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    trunc = None if args.trunc in (None, "auto") else int(args.trunc)
    suites = tuple(s.strip() for s in getattr(args, "suites", ",".join(SUITE_NAMES)).split(",") if s.strip())
    return RunConfig(
        n=args.n, q=args.q, trunc=trunc, tol=args.tol, seed=args.seed,
        points=args.points, sigma=getattr(args, "sigma", None),
        mode=args.mode, suites=suites)


def _finite(value):
    """value with each non-finite float written as the string "NaN",
    "Infinity" or "-Infinity"."""
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return "NaN" if math.isnan(value) else ("Infinity" if value > 0 else "-Infinity")
    return value


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        for path in (args.out, getattr(args, "csv", None)):
            if path and Path(path).is_dir():
                raise ValueError(f"cannot write {path}: it is a directory")
            if path and not Path(path).parent.is_dir():
                raise ValueError(f"no directory to write {path} into")
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    status, report = run(config)
    # strict JSON has no NaN or infinity: _finite writes them as strings
    text = json.dumps(_finite(report), indent=2, allow_nan=False)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    csv = getattr(args, "csv", None)
    if csv and "matrix" in report:
        with open(csv, "w") as fh:
            fh.write(moduli_csv(report["matrix"]["direct"]))
    return status


if __name__ == "__main__":
    sys.exit(main())
