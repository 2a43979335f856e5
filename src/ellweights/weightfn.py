"""Elliptic weight functions and the diagonal theta product.

W_I is assembled from the case-analysis factor psi over consecutive
Chern-root levels, divided by the level-internal theta pairs, then
symmetrized within each level.  The symmetrization is the plain
(unnormalized) sum over the product of level permutation groups; the
closed n = 2 forms come out of that normalization on the nose.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from .errors import PoleError
from .permcomb import Permutation, compose_values
from .qtheta import POLE_TOL, ThetaContext, theta, thetas

#: theta-denominator modulus below which a random point counts as resonant
RESONANCE_TOL = 1e-4


def _number(v):
    """complex(v) for a Python or numpy int, float or complex; any other
    number (an mpmath value, say) is kept as given."""
    return complex(v) if isinstance(v, (int, float, complex, np.number)) else v


@dataclass(frozen=True)
class ParameterPoint:
    """Logs of the equivariant parameters z, the Kahler parameters mu and
    the symplectic weight hbar."""

    log_z: tuple[complex, ...]
    log_mu: tuple[complex, ...]
    log_h: complex

    def __post_init__(self):
        if len(self.log_z) != len(self.log_mu):
            raise ValueError("z and mu must have equal length")
        object.__setattr__(self, "log_z", tuple(map(_number, self.log_z)))
        object.__setattr__(self, "log_mu", tuple(map(_number, self.log_mu)))
        object.__setattr__(self, "log_h", _number(self.log_h))

    @property
    def n(self) -> int:
        return len(self.log_z)

    def z(self, i: int) -> complex:
        """log z_i, 1-based."""
        return self.log_z[i - 1]

    def mu(self, i: int) -> complex:
        return self.log_mu[i - 1]

    def permute_z(self, sigma: Permutation) -> "ParameterPoint":
        """Slot permutation z_sigma = (z_{sigma(1)}, ..., z_{sigma(n)})."""
        return ParameterPoint(
            log_z=tuple(self.log_z[s - 1] for s in sigma.word),
            log_mu=self.log_mu, log_h=self.log_h)

    def permute_mu(self, sigma: Permutation) -> "ParameterPoint":
        return ParameterPoint(
            log_z=self.log_z,
            log_mu=tuple(self.log_mu[s - 1] for s in sigma.word),
            log_h=self.log_h)

    def to_json(self) -> dict:
        return {
            "log_z": [[v.real, v.imag] for v in self.log_z],
            "log_mu": [[v.real, v.imag] for v in self.log_mu],
            "log_h": [self.log_h.real, self.log_h.imag],
        }


def resonance_margin(p: ParameterPoint, ctx: ThetaContext) -> float:
    """Smallest modulus among the theta denominators a generic evaluation
    can meet: theta of z_i/z_j, mu_i/mu_j (i != j) and their hbar-shifted
    versions including theta(hbar) itself."""
    n = p.n
    lh = p.log_h
    args = []
    for i in range(n):
        for j in range(n):
            if i != j:
                args.append(p.log_z[i] - p.log_z[j])
                args.append(p.log_mu[i] - p.log_mu[j])
            args.append(lh + p.log_z[i] - p.log_z[j])
            args.append(lh + p.log_mu[i] - p.log_mu[j])
    return min(abs(v) for v in thetas(ctx, args))


def is_generic(p: ParameterPoint, ctx: ThetaContext) -> bool:
    return resonance_margin(p, ctx) >= RESONANCE_TOL


@dataclass(frozen=True)
class ChernPoint:
    """Chern-root arguments: level k holds the k logs t^(k)_1 .. t^(k)_k
    for k = 1 .. n-1, each kept as ParameterPoint keeps its logs."""

    levels: tuple[tuple[complex, ...], ...]

    def __post_init__(self):
        for k, lv in enumerate(self.levels, start=1):
            if len(lv) != k:
                raise ValueError(f"level {k} must hold {k} entries, got {len(lv)}")
        object.__setattr__(
            self, "levels",
            tuple(tuple(map(_number, lv)) for lv in self.levels))

    @property
    def n(self) -> int:
        return len(self.levels) + 1


@lru_cache(maxsize=4096)
def _psi_cases(I: Permutation) -> tuple:
    """The case (e, j) of psi at every slot of I, as cases[k-1][a-1][c-1]:
    (1, None) if i_c < i_a, (0, None) if i_c > i_a, else e = 1 iff
    I_{k+1} > i_a and I_j = i_a; i_a is the a-th smallest of I_1..I_k and
    i_c the c-th smallest of I_1..I_{k+1}."""
    w = I.word
    return tuple(
        tuple(tuple((int(ic < ia), None) if ic != ia
                    else (int(w[k] > ia), w.index(ia) + 1)
                    for ic in sorted(w[:k + 1]))
              for ia in sorted(w[:k]))
        for k in range(1, len(w)))


def _psi_arg(case: tuple, lx: complex, k: int, p: ParameterPoint) -> complex:
    """Theta argument of a level-k psi factor of case (e, j): lx + e log hbar,
    plus log mu_{k+1} - log mu_j when j is set."""
    e, j = case
    if j is None:
        return lx + p.log_h if e else lx
    return lx + e * p.log_h + p.mu(k + 1) - p.mu(j)


def psi(I: Permutation, k: int, a: int, c: int, lx,
        p: ParameterPoint, ctx: ThetaContext) -> complex:
    """Case-analysis theta factor comparing the c-th ordered index at level
    k+1 against the a-th ordered index at level k; lx is the log of the
    Chern-root ratio it multiplies."""
    n = len(I)
    if not (1 <= a <= k <= n - 1 and 1 <= c <= k + 1):
        raise ValueError(f"indices out of range: k={k}, a={a}, c={c} for n={n}")
    return theta(ctx, _psi_arg(_psi_cases(I)[k - 1][a - 1][c - 1], lx, k, p))


def _level_args(I: Permutation, t: ChernPoint, p: ParameterPoint):
    if t.n != len(I):
        raise ValueError(f"Chern point is for n={t.n}, permutation for n={len(I)}")
    if p.n != len(I):
        raise ValueError("parameter point size mismatch")
    return list(t.levels) + [list(p.log_z)]


def _term(I: Permutation, levels, p: ParameterPoint,
          th: Callable[[complex], complex]) -> complex:
    """U at the Chern-root logs ``levels`` (level 1 to n-1, then log z),
    with theta(ctx, x) read through th(x); the caller checks the sizes.

    Raises PoleError when a level-internal theta denominator factor has
    modulus at most POLE_TOL.
    """
    cases = _psi_cases(I)
    num = 1.0 + 0j
    den = 1.0 + 0j
    for k in range(1, len(I)):
        tk, tk1 = levels[k - 1], levels[k]
        for ta, row in zip(tk, cases[k - 1]):
            for tc, case in zip(tk1, row):
                num *= th(_psi_arg(case, tc - ta, k, p))
        for a in range(1, k + 1):
            for b in range(a + 1, k + 1):
                f = th(tk[a - 1] + p.log_h - tk[b - 1]) * th(tk[b - 1] - tk[a - 1])
                if abs(f) <= POLE_TOL:
                    raise PoleError(
                        f"denominator theta vanished at level {k} (|.|={abs(f):.3e})")
                den *= f
    return num / den


def U(I: Permutation, t: ChernPoint, p: ParameterPoint, ctx: ThetaContext) -> complex:
    """Single (unsymmetrized) alternating product term of the weight function.

    Raises PoleError when a level-internal theta denominator factor has
    modulus at most POLE_TOL.
    """
    return _term(I, _level_args(I, t, p), p, partial(theta, ctx))


def weight_terms(I: Permutation, t: ChernPoint, p: ParameterPoint,
                 ctx: ThetaContext) -> list[complex]:
    """All symmetrization terms of W_I in a fixed deterministic order: U at
    every permutation of the logs within each Chern-root level.

    The terms share one table of theta values keyed on the exact
    log-argument, so each distinct theta of the call is evaluated once; the
    table lives for this call only, and a theta that raises is not stored.
    """
    table = {}

    def th(lx):
        value = table.get(lx)
        if value is None:
            value = table[lx] = theta(ctx, lx)
        return value

    *levels, z = _level_args(I, t, p)
    return [_term(I, (*perm, z), p, th)
            for perm in itertools.product(*map(itertools.permutations, levels))]


def W(I: Permutation, t: ChernPoint, p: ParameterPoint, ctx: ThetaContext) -> complex:
    """Weight function: unnormalized symmetrization of U over every
    Chern-root level."""
    return sum(weight_terms(I, t, p, ctx))


def W_sigma(sigma: Permutation, I: Permutation, t: ChernPoint,
            p: ParameterPoint, ctx: ThetaContext) -> complex:
    """Chamber-twisted weight function: W at the value-wise composed index
    sigma^{-1} o I, with the z slots of p permuted by sigma."""
    return W(compose_values(sigma.inverse(), I), t, p.permute_z(sigma), ctx)


def P_args(I: Permutation, log_w: tuple[complex, ...],
           p: ParameterPoint) -> list[complex]:
    """Theta arguments of P, in the order P multiplies them: over pairs
    k < l, log(hbar w_{I_l}/w_{I_k}) when I_l < I_k and log(w_{I_l}/w_{I_k})
    when I_l > I_k, with argument slots filled from log_w."""
    n = len(I)
    if len(log_w) != n:
        raise ValueError("argument list size mismatch")
    args = []
    for k in range(1, n):
        for l in range(k + 1, n + 1):
            il, ik = I.word[l - 1], I.word[k - 1]
            lx = log_w[il - 1] - log_w[ik - 1]
            args.append(p.log_h + lx if il < ik else lx)
    return args


def P(I: Permutation, log_w: tuple[complex, ...], p: ParameterPoint,
      ctx: ThetaContext) -> complex:
    """Diagonal theta product: the product of theta over P_args(I, log_w, p)."""
    out = 1.0 + 0j
    for lx in P_args(I, log_w, p):
        out *= theta(ctx, lx)
    return out
