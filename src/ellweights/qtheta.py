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

#: most product factors a context may keep, so that one row of a thetas
#: pass holds at most 16 MiB per array; a larger trunc (the default one
#: past |q| = 0.99992) raises ValueError
MAX_TRUNC = 1 << 20

#: most (argument x factor) entries one numpy pass of thetas holds, so a
#: call's temporaries stay bounded whatever the number of arguments
BLOCK_ENTRIES = 1 << 13


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
        if self.trunc > MAX_TRUNC:
            raise ValueError(f"trunc={self.trunc} exceeds the cap of {MAX_TRUNC} factors")
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


def theta(ctx: ThetaContext, lx) -> complex:
    """Skew Jacobi theta function of x = exp(lx)."""
    return thetas(ctx, (lx,))[0]


def thetas(ctx: ThetaContext, args) -> list[complex]:
    """The skew theta function at each log-argument of args, in order, with
    the products taken in numpy passes over blocks of rows of an
    (args x trunc) array, each block at most BLOCK_ENTRIES entries (one row
    at least).  Only the arguments before the first one out of range are
    evaluated.  The first argument in order that fails raises RangeError:
    out of range, or a value whose product leaves double range."""
    w = np.array(args, dtype=complex)
    out = np.flatnonzero(np.abs(w.real) > LOG_RANGE)
    m = out[0] if out.size else len(w)
    qs = _q_powers(ctx.log_q, ctx.trunc)
    rows = max(1, BLOCK_ENTRIES // ctx.trunc)
    values = []
    for start in range(0, m, rows):
        block = w[start:min(start + rows, m)]
        xp = np.exp(ctx.log_q + block)
        xm = np.exp(ctx.log_q - block)
        factors = (1.0 - qs * xp[:, None]) * (1.0 - qs * xm[:, None])
        prods = np.prod(factors, axis=1)
        # at |q| near 1 the truncated product can leave double range: lost
        # marks an underflow where theta is not exactly 0 (x = 1 or a factor
        # is 0)
        lost = np.abs(prods) < sys.float_info.min
        lost[lost] = factors[lost].all(axis=1) & (block[lost] != 0)
        front = np.exp(block / 2) - np.exp(-block / 2)
        # front * prods in real arithmetic: numpy's complex product may round
        # differently from Python's, which every scalar product downstream
        # uses, so the two would not agree bit for bit
        v = np.empty_like(prods)
        v.real = front.real * prods.real - front.imag * prods.imag
        v.imag = front.real * prods.imag + front.imag * prods.real
        bad = np.flatnonzero(lost | ~np.isfinite(v))
        if bad.size:
            i = bad[0]
            raise RangeError(f"theta at log x = {complex(block[i]):.6g}, "
                             f"|q| = {math.exp(ctx.log_q.real):.6g} is {complex(v[i])}: "
                             "its product leaves double range")
        values += v.tolist()
    if m < len(w):
        raise RangeError(f"|Re log x| = {abs(w[m].real):.3g} exceeds {LOG_RANGE}")
    return values
