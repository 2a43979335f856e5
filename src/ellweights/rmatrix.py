"""Felder's elliptic dynamical R-matrix and the two matrix recursions.

Two three-term relations tie neighbouring entries of the restriction
matrix together:

* the exchange relation moves both indices by the value swap s_k and
  exchanges z_k with z_{k+1}; its coefficients are Felder R-matrix entries
  in the Kahler parameters at x = z_k/z_{k+1}, with a, b the positions of
  the values k, k+1 in the row index.  The displayed identity holds when
  those values appear in natural order (a < b), which is exactly the
  orientation the recursion consumes.
* the dual relation moves both indices by the position swap s_k and
  exchanges mu_k with mu_{k+1}; its coefficients are the substituted
  entries at x = mu_{k+1}/mu_k with a = n - J_k + 1, b = n - J_{k+1} + 1
  read off the column word, valid when J_k > J_{k+1}.

Each relation, instantiated twice (once at the swapped point), solves to a
two-term update.  The exchange recursion grows rows upward from the row of
the identity; the dual recursion grows columns downward from the column of
the longest permutation.  Both seeds are fixed by triangularity plus the
closed-form diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConsistencyError, PoleError, ResonanceError
from .permcomb import Permutation, all_permutations
from .qtheta import ThetaContext, theta
from .restriction import A_diagonal, A_direct, RestrictionMatrix
from .weightfn import ParameterPoint

FELDER_KINDS = ("diag_equal", "diag", "exchange")


def felder_R(kind: str, j: int, k: int, lx, p: ParameterPoint,
             ctx: ThetaContext) -> complex:
    """Entry of the elliptic dynamical R-matrix in Felder's normalization.

    ``diag_equal`` is the unit entry with equal upper indices; ``diag`` is
    the x-diagonal entry with distinct indices j, k; ``exchange`` is the
    index-exchanging entry.  lx is the log of the spectral argument x.
    """
    if kind == "diag_equal":
        return 1.0 + 0j
    if kind not in FELDER_KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    if j == k:
        raise ValueError("distinct indices required for non-trivial entries")
    lx = getattr(lx, "value", lx)
    lmu = p.mu(j) - p.mu(k)
    den_x = theta(ctx, lx + p.log_h)
    den_mu = theta(ctx, lmu)
    if abs(den_x) < ctx.pole_tol or abs(den_mu) < ctx.pole_tol:
        raise PoleError("R-matrix denominator vanished")
    if kind == "diag":
        return theta(ctx, lx) * theta(ctx, p.log_h + lmu) / (den_x * den_mu)
    return theta(ctx, lx + lmu) * theta(ctx, p.log_h) / (den_x * den_mu)


def dual_substitute(p: ParameterPoint) -> ParameterPoint:
    """Parameter substitution defining the dual R-matrix: z slot i takes
    1/mu_i, mu slot i takes z at the reversed index."""
    n = p.n
    return ParameterPoint(
        log_z=tuple(-p.log_mu[i] for i in range(n)),
        log_mu=tuple(p.log_z[n - 1 - i] for i in range(n)),
        log_h=p.log_h)


def dual_R(kind: str, j: int, k: int, lx, p: ParameterPoint,
           ctx: ThetaContext) -> complex:
    """Felder entry evaluated after the dual parameter substitution."""
    return felder_R(kind, j, k, lx, dual_substitute(p), ctx)


# ---------------------------------------------------------------------------
# raw relation residuals
# ---------------------------------------------------------------------------

def exchange_residual(I: Permutation, J: Permutation, k: int,
                      p: ParameterPoint, ctx: ThetaContext,
                      entry=None) -> float:
    """Normalized residual of the exchange relation for the pair
    {I, I value_swap k} at column J.

    The relation is anchored at the member with the values k, k+1 in
    natural order; passing either member gives the same residual.  The
    ``entry`` callable (defaults to direct evaluation) maps
    (I, J, point) -> complex and lets callers reuse precomputed matrices.
    The residual is normalized by the combined modulus of the three terms,
    so cancellation between them does not masquerade as error.
    """
    if entry is None:
        ident = Permutation.identity(len(I))
        entry = lambda I_, J_, p_: A_direct(ident, I_, J_, p_, ctx)
    if I.inverse()(k) > I.inverse()(k + 1):
        I = I.value_swap(k)
    a, b = I.inverse()(k), I.inverse()(k + 1)
    x = p.z(k) - p.z(k + 1)
    r1 = felder_R("diag", a, b, x, p, ctx)
    r2 = felder_R("exchange", b, a, x, p, ctx)
    lhs = entry(I.value_swap(k), J.value_swap(k), p.swap_z(k))
    t1 = r1 * entry(I, J, p)
    t2 = r2 * entry(I.value_swap(k), J, p)
    return abs(lhs - t1 - t2) / (abs(lhs) + abs(t1) + abs(t2) + 1e-300)


def dual_residual(I: Permutation, J: Permutation, k: int,
                  p: ParameterPoint, ctx: ThetaContext,
                  entry=None) -> float:
    """Normalized residual of the dual relation for the column pair
    {J, J pos_swap k} at row I, anchored at the member with J_k > J_{k+1};
    normalization as in exchange_residual."""
    if entry is None:
        ident = Permutation.identity(len(I))
        entry = lambda I_, J_, p_: A_direct(ident, I_, J_, p_, ctx)
    if J(k) < J(k + 1):
        J = J.pos_swap(k)
    n = len(J)
    a, b = n - J(k) + 1, n - J(k + 1) + 1
    x = p.mu(k + 1) - p.mu(k)
    r1 = dual_R("diag", a, b, x, p, ctx)
    r2 = dual_R("exchange", b, a, x, p, ctx)
    lhs = entry(I.pos_swap(k), J.pos_swap(k), p.swap_mu(k))
    t1 = r1 * entry(I, J, p)
    t2 = r2 * entry(I, J.pos_swap(k), p)
    return abs(lhs - t1 - t2) / (abs(lhs) + abs(t1) + abs(t2) + 1e-300)


# ---------------------------------------------------------------------------
# recursion drivers
# ---------------------------------------------------------------------------

@dataclass
class _TwoTermRecursion:
    """Memoized two-term update shared by both recursions.

    ``value(X, Y, slots)`` is the entry with grown index X and other index
    Y at the point whose slots (z or mu) are permuted by ``slots``.  The
    grown index starts at ``seed``, where triangularity plus the closed-form
    diagonal fix the value.  Any other X comes from ``prev = move(X, k)``
    for a step k in ``steps(X)``, where ``coeffs(prev, k, slots)`` gives the
    relation's coefficients (r1, r2) and the relation instantiated at
    ``slots`` and at its k-th position swap solves to the update below.
    """

    seed: Permutation
    steps: Callable[[Permutation], list[int]]
    move: Callable[[Permutation, int], Permutation]
    coeffs: Callable[[Permutation, int, Permutation], tuple[complex, complex]]
    seed_point: Callable[[Permutation], ParameterPoint]
    ctx: ThetaContext
    memo: dict = field(default_factory=dict)

    def value(self, X: Permutation, Y: Permutation, slots: Permutation,
              k_choice: int | None = None) -> complex:
        key = (X.word, Y.word, slots.word, k_choice)
        if key in self.memo:
            return self.memo[key]
        if X.word == self.seed.word:
            v = A_diagonal(self.seed, self.seed_point(slots), self.ctx) \
                if Y.word == self.seed.word else 0.0 + 0j
            self.memo[key] = v
            return v
        k = k_choice if k_choice is not None else self.steps(X)[0]
        prev = self.move(X, k)
        swapped = slots.pos_swap(k)
        try:
            r1c, r2c = self.coeffs(prev, k, slots)
            r1s, r2s = self.coeffs(prev, k, swapped)
        except PoleError as exc:
            raise ResonanceError(f"resonant coefficient at {X.word}: {exc}")
        den = 1.0 - r2c * r2s
        if abs(den) < self.ctx.pole_tol ** 0.5:
            raise ResonanceError(f"singular update at {X.word}")
        v = (r1s * self.value(prev, self.move(Y, k), swapped)
             + r2s * r1c * self.value(prev, Y, slots)) / den
        self.memo[key] = v
        return v


def _assemble(rec: _TwoTermRecursion, p: ParameterPoint, ctx: ThetaContext,
              provenance: str, crosscheck: bool,
              transpose: bool = False) -> RestrictionMatrix:
    """Matrix of a recursion that grows rows, or columns when ``transpose``
    is set.  The crosscheck rebuilds every grown index through each
    alternative step and requires agreement."""
    order = all_permutations(p.n)
    ident = Permutation.identity(p.n)
    cell = (lambda X, Y: (Y, X)) if transpose else (lambda X, Y: (X, Y))
    entries = np.array([[rec.value(*cell(I, J), ident) for J in order]
                        for I in order], dtype=complex)
    matrix = RestrictionMatrix(n=p.n, sigma=ident, order=order, entries=entries,
                               provenance=provenance, point=p)
    if crosscheck:
        scale = 1.0 + matrix.max_abs()
        for X in order:
            for k in rec.steps(X)[1:]:
                for Y in order:
                    I, J = cell(X, Y)
                    delta = abs(rec.value(X, Y, ident, k) - matrix.entry(I, J)) / scale
                    if delta > ctx.tol:
                        raise ConsistencyError(
                            f"step k={k} disagrees at (row, column) = "
                            f"({I.word}, {J.word}): |delta|/scale = {delta:.3e}")
    return matrix


def build_A_by_R_recursion(p: ParameterPoint, ctx: ThetaContext,
                           crosscheck: bool = False) -> RestrictionMatrix:
    """Rebuild the full matrix from the closed-form diagonal using the
    exchange relation, row by row in length order."""
    def coeffs(prev: Permutation, k: int, slots: Permutation):
        a, b = prev.inverse()(k), prev.inverse()(k + 1)
        x = p.z(slots(k)) - p.z(slots(k + 1))
        return felder_R("diag", a, b, x, p, ctx), felder_R("exchange", b, a, x, p, ctx)

    rec = _TwoTermRecursion(Permutation.identity(p.n), Permutation.value_descents,
                            Permutation.value_swap, coeffs, p.permute_z, ctx)
    return _assemble(rec, p, ctx, "r_recursion", crosscheck)


def build_A_by_dual_recursion(p: ParameterPoint, ctx: ThetaContext,
                              crosscheck: bool = False) -> RestrictionMatrix:
    """Rebuild the full matrix from the closed-form diagonal using the dual
    relation, column by column in co-length order."""
    def coeffs(prev: Permutation, k: int, slots: Permutation):
        a, b = p.n - prev(k) + 1, p.n - prev(k + 1) + 1
        x = p.mu(slots(k + 1)) - p.mu(slots(k))
        return dual_R("diag", a, b, x, p, ctx), dual_R("exchange", b, a, x, p, ctx)

    rec = _TwoTermRecursion(Permutation.longest(p.n), Permutation.word_ascents,
                            Permutation.pos_swap, coeffs, p.permute_mu, ctx)
    return _assemble(rec, p, ctx, "dual_recursion", crosscheck, transpose=True)
