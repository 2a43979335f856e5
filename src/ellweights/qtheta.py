"""Truncated q-series evaluation of the skew Jacobi theta function.

The building block is

    theta(x) = (x^(1/2) - x^(-1/2)) * phi(q*x) * phi(q/x),
    phi(x)   = prod_{s>=0} (1 - q^s x),

with |q| < 1.  All multiplicative arguments are handled as complex
logarithms: x = exp(lx) and x^(1/2) := exp(lx/2), so inversion is exact
negation and the parity theta(1/x) = -theta(x) holds to rounding instead
of breaking on a branch cut.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import RangeError

#: machine epsilon for double precision
_EPS = 2.220446049250313e-16

#: overflow guard: |Re lx| above this raises RangeError
LOG_RANGE = 32.0

#: modulus below which a theta denominator counts as a pole
POLE_TOL = 1e-12


def default_trunc(q: complex) -> int:
    """Default product truncation: tail below 1e-36 of the leading factor
    for |q| <= 0.5, never fewer than 24 factors."""
    aq = abs(q)
    if aq <= 0.0 or aq >= 1.0:
        raise ValueError(f"|q| must lie in (0, 1), got {aq}")
    return max(24, math.ceil(36.0 / -math.log10(aq)))


@dataclass(frozen=True)
class ThetaContext:
    """Evaluation environment for all q-series.

    Attributes
    ----------
    log_q : complex
        Logarithm of the modular parameter; Re(log_q) < 0 so |q| < 1.
    trunc : int
        Number of retained factors in each infinite product.
    tol : float
        Acceptance tolerance for identity residuals.
    """

    log_q: complex
    trunc: int
    tol: float = 1e-8

    def __post_init__(self):
        if not abs(cmath.exp(self.log_q)) < 1.0:
            raise ValueError("|q| = |exp(log_q)| must be strictly below 1")
        if self.trunc < 1 or not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError("trunc must be positive and tol finite and > 0")
        # dropped tail of phi must fall below machine epsilon
        need = math.ceil(math.log(_EPS) / self.log_q.real)
        if self.trunc < need:
            raise ValueError(f"trunc={self.trunc} too small for |q|: need >= {need}")

    @classmethod
    def create(cls, q: complex = 0.3, trunc: int | None = None,
               tol: float = 1e-8) -> "ThetaContext":
        """Build a context from the modular parameter itself."""
        q = complex(q)
        if trunc is None:
            trunc = default_trunc(q)
        return cls(log_q=cmath.log(q), trunc=trunc, tol=tol)


@lru_cache(maxsize=32)
def _q_powers(log_q: complex, trunc: int) -> np.ndarray:
    # q^s for s = 0 .. trunc-1
    return np.exp(log_q * np.arange(trunc))


def _checked(lx) -> complex:
    w = complex(lx)
    if abs(w.real) > LOG_RANGE:
        raise RangeError(f"|Re log x| = {abs(w.real):.3g} exceeds {LOG_RANGE}")
    return w


def _value(ctx: ThetaContext, w: complex, prod: complex, lost: bool) -> complex:
    # at |q| near 1 the truncated product can leave double range: lost marks
    # an underflow where theta is not exactly 0 (x = 1 or a factor is 0)
    value = (cmath.exp(w / 2) - cmath.exp(-w / 2)) * prod
    if lost or not cmath.isfinite(value):
        raise RangeError(f"theta at log x = {w:.6g}, |q| = {math.exp(ctx.log_q.real):.6g}"
                         f" is {value}: its product leaves double range")
    return value


def theta(ctx: ThetaContext, lx) -> complex:
    """Skew Jacobi theta function of x = exp(lx)."""
    w = _checked(lx)
    qs = _q_powers(ctx.log_q, ctx.trunc)
    xp = cmath.exp(ctx.log_q + w)
    xm = cmath.exp(ctx.log_q - w)
    factors = (1.0 - qs * xp) * (1.0 - qs * xm)
    prod = complex(np.prod(factors))
    return _value(ctx, w, prod, abs(prod) < sys.float_info.min and w != 0 and factors.all())


def thetas(ctx: ThetaContext, args) -> list[complex]:
    """[theta(ctx, lx) for lx in args], bit for bit, with the products of
    all arguments taken in one numpy pass over an (args x trunc) array."""
    ws = [_checked(lx) for lx in args]
    qs = _q_powers(ctx.log_q, ctx.trunc)
    xp = np.array([cmath.exp(ctx.log_q + w) for w in ws], dtype=complex)
    xm = np.array([cmath.exp(ctx.log_q - w) for w in ws], dtype=complex)
    factors = (1.0 - qs * xp[:, None]) * (1.0 - qs * xm[:, None])
    prods = np.prod(factors, axis=1)
    lost = np.abs(prods) < sys.float_info.min
    lost[lost] = factors[lost].all(axis=1) & (np.array(ws, dtype=complex)[lost] != 0)
    return [_value(ctx, w, v, f) for w, v, f in zip(ws, prods.tolist(), lost.tolist())]
