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

Each relation is described once; its residual and its recursion both read
that description.  Instantiated twice (once at the swapped point), it
solves to a two-term update.  The exchange recursion grows rows upward
from the row of the identity; the dual recursion grows columns downward
from the column of the longest permutation.  Both seeds are fixed by
triangularity plus the closed-form diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .errors import ConsistencyError, PoleError, ResonanceError
from .mirror import kappa_substitute
from .permcomb import Permutation, all_permutations
from .qtheta import POLE_TOL, ThetaContext, theta
from .restriction import RestrictionMatrix, diagonal_product, relative_residual
from .weightfn import ParameterPoint


def felder_R(kind: str, j: int, k: int, lx, p: ParameterPoint,
             ctx: ThetaContext) -> complex:
    """Entry of the elliptic dynamical R-matrix in Felder's normalization.

    ``diag`` is the x-diagonal entry with distinct indices j, k;
    ``exchange`` is the index-exchanging entry.  lx is the log of the
    spectral argument x.
    """
    return _felder(kind, j, k, lx, p, partial(theta, ctx))


def _felder(kind: str, j: int, k: int, lx, p: ParameterPoint,
            th: Callable[[complex], complex]) -> complex:
    # felder_R with theta(ctx, lx) read through th(lx)
    if kind not in ("diag", "exchange"):
        raise ValueError(f"unknown kind {kind!r}")
    if j == k:
        raise ValueError("distinct indices required for non-trivial entries")
    lmu = p.mu(j) - p.mu(k)
    den_x = th(lx + p.log_h)
    den_mu = th(lmu)
    if abs(den_x) < POLE_TOL or abs(den_mu) < POLE_TOL:
        raise PoleError("R-matrix denominator vanished")
    if kind == "diag":
        return th(lx) * th(p.log_h + lmu) / (den_x * den_mu)
    return th(lx + lmu) * th(p.log_h) / (den_x * den_mu)


def dual_R(kind: str, j: int, k: int, lx, p: ParameterPoint,
           ctx: ThetaContext) -> complex:
    """Entry of the dual R-matrix: the Felder entry whose Kahler slots j, k
    hold z at the reversed indices n+1-j, n+1-k.  That is felder_R at the
    parameter swap kappa_substitute(p), whose mu slot i holds 1/z_i, with
    the indices reflected and exchanged."""
    n = p.n
    return felder_R(kind, n + 1 - k, n + 1 - j, lx, kappa_substitute(p), ctx)


# ---------------------------------------------------------------------------
# the two relations, each read by its residual and by its recursion
# ---------------------------------------------------------------------------

def _exchange_key(anchor: Permutation, k: int,
                  slots: Permutation) -> tuple[int, int, int, int]:
    # a, b: positions of the values k, k+1 in the anchor; x = z_i / z_j
    return (anchor.word.index(k) + 1, anchor.word.index(k + 1) + 1,
            slots(k), slots(k + 1))


def _dual_key(anchor: Permutation, k: int,
              slots: Permutation) -> tuple[int, int, int, int]:
    # the dual entries at (n+1-anchor(k), n+1-anchor(k+1)) and
    # x = mu_{slots(k+1)} / mu_{slots(k)} are the Felder entries below at the
    # swapped point, whose z slot n+1-i holds mu_i
    n = len(anchor)
    return anchor(k + 1), anchor(k), n + 1 - slots(k + 1), n + 1 - slots(k)


def _felder_pair(q: ParameterPoint, th: Callable[[complex], complex],
                 key: tuple[int, int, int, int]) -> tuple[complex, complex]:
    a, b, i, j = key
    x = q.z(i) - q.z(j)
    return _felder("diag", a, b, x, q, th), _felder("exchange", b, a, x, q, th)


def _update_pair(q: ParameterPoint, th: Callable[[complex], complex],
                 key: tuple[int, int, int, int]) -> tuple[complex, complex]:
    a, b, i, j = key
    x, m, h = q.z(i) - q.z(j), q.mu(a) - q.mu(b), q.log_h
    tx, thm = th(x), th(h - m)
    if abs(tx) < POLE_TOL or abs(thm) < POLE_TOL:
        raise PoleError("theta(x) or theta(hbar - m) vanished")
    return -th(x + h) * th(m) / (tx * thm), th(x + m) * th(h) / (tx * thm)


@dataclass(frozen=True)
class _Relation:
    """For a step k in steps(X) of the grown index X (the row, or the
    column when ``transpose`` is set), its anchor move(X, k), the other
    index Y and (r1, r2) = _felder_pair(frame(p), th, key(anchor, k, slots)):

        A[X, move(Y, k)] at point(p, slots.pos_swap(k))
            = r1 A[anchor, Y] + r2 A[X, Y], both at point(p, slots).

    ``key`` holds exactly the values the two Felder entries read at the
    point frame(p), so equal keys give equal coefficients.  The one grown
    index without steps seeds the recursion.
    """

    steps: Callable[[Permutation], list[int]]
    move: Callable[[Permutation, int], Permutation]
    key: Callable[[Permutation, int, Permutation], tuple[int, int, int, int]]
    frame: Callable[[ParameterPoint], ParameterPoint]
    point: Callable[[ParameterPoint, Permutation], ParameterPoint]
    transpose: bool

    def cell(self, X: Permutation, Y: Permutation) -> tuple[Permutation, Permutation]:
        """(row, column) of grown index X and other index Y, and back."""
        return (Y, X) if self.transpose else (X, Y)


_EXCHANGE = _Relation(Permutation.value_descents, Permutation.value_swap,
                      _exchange_key, lambda p: p, ParameterPoint.permute_z,
                      transpose=False)
_DUAL = _Relation(Permutation.word_ascents, Permutation.pos_swap,
                  _dual_key, kappa_substitute, ParameterPoint.permute_mu,
                  transpose=True)


def _relation_residual(rel: _Relation, X: Permutation, Y: Permutation, k: int,
                       p: ParameterPoint, ctx: ThetaContext, entry) -> float:
    """Normalized residual of ``rel`` for the pair {X, move(X, k)} at the
    other index Y; either member of the pair gives the same residual."""
    ident = Permutation.identity(p.n)
    if k not in rel.steps(X):
        X = rel.move(X, k)
    anchor = rel.move(X, k)
    r1, r2 = _felder_pair(rel.frame(p), partial(theta, ctx),
                          rel.key(anchor, k, ident))
    lhs = entry(*rel.cell(X, rel.move(Y, k)), rel.point(p, ident.pos_swap(k)))
    t1 = r1 * entry(*rel.cell(anchor, Y), p)
    t2 = r2 * entry(*rel.cell(X, Y), p)
    return relative_residual(lhs, t1, t2)


def exchange_residual(I: Permutation, J: Permutation, k: int,
                      p: ParameterPoint, ctx: ThetaContext,
                      entry) -> float:
    """Normalized residual of the exchange relation for the row pair
    {I, I value_swap k} at column J.  The ``entry`` callable maps
    (I, J, point) -> complex, such as ``restriction.entry_cache(ctx)``."""
    return _relation_residual(_EXCHANGE, I, J, k, p, ctx, entry)


def dual_residual(I: Permutation, J: Permutation, k: int,
                  p: ParameterPoint, ctx: ThetaContext,
                  entry) -> float:
    """Normalized residual of the dual relation for the column pair
    {J, J pos_swap k} at row I; ``entry`` as in exchange_residual."""
    return _relation_residual(_DUAL, J, I, k, p, ctx, entry)


# ---------------------------------------------------------------------------
# recursion driver
# ---------------------------------------------------------------------------

class _TwoTermRecursion:
    """Memoized two-term update of one relation at the point p, one line at
    a time.

    ``line(X, slots)`` lists the entries with grown index X at
    ``rel.point(p, slots)``, one for each other index Y in
    ``all_permutations(n)`` order.  At the seed, triangularity plus the
    closed-form diagonal fix the line.  Any other X comes from its anchor
    move(X, k) for a step k: the relation at ``slots`` (pair r1c, r2c) and
    at its k-th position swap (r1s, r2s; x -> -x) solve to
    line[Y] = c1 sw[moved[k][Y]] + c2 sl[Y], with sw, sl the anchor's lines
    there, moved[k][Y] the index of move(Y, k), c1 = r1s / (1 - r2c r2s)
    and c2 = r2s r1c / (1 - r2c r2s).  Unitarity of Felder's R-matrix
    (arXiv:hep-th/9412207) gives 1 - r2c r2s = r1c diag(b, a, -x), and
    theta is odd, so ``_update_pair`` writes both as theta ratios with no
    difference left to cancel.  ``coeffs`` keeps each key's pair once.
    Every theta the build reads, in the coefficients and the seed
    diagonals, goes through ``thetas``, kept per distinct log-argument for
    as long as the build.
    """

    def __init__(self, rel: _Relation, p: ParameterPoint, ctx: ThetaContext):
        self.rel, self.p, self.ctx = rel, p, ctx
        self.frame = rel.frame(p)
        self.order = all_permutations(p.n)
        self.index = {Y.word: y for y, Y in enumerate(self.order)}
        self.moved = {k: [self.index[rel.move(Y, k).word] for Y in self.order]
                      for k in range(1, p.n)}
        self.lines, self.coeffs, self.thetas = {}, {}, {}

    def _theta(self, lx: complex) -> complex:
        value = self.thetas.get(lx)
        if value is None:
            value = self.thetas[lx] = theta(self.ctx, lx)
        return value

    def line(self, X: Permutation, slots: Permutation,
             k_choice: int | None = None) -> list[complex]:
        state = (X.word, slots.word, k_choice)
        if state in self.lines:
            return self.lines[state]
        rel = self.rel
        steps = rel.steps(X)
        if not steps:
            line = [0.0 + 0j] * len(self.order)
            line[self.index[X.word]] = diagonal_product(
                X, rel.point(self.p, slots), self._theta)
        else:
            k = k_choice if k_choice is not None else steps[0]
            anchor = rel.move(X, k)
            key = rel.key(anchor, k, slots)
            if key not in self.coeffs:
                try:
                    self.coeffs[key] = _update_pair(self.frame, self._theta, key)
                except PoleError as exc:
                    raise ResonanceError(f"resonant coefficient at {X.word}: {exc}")
            c1, c2 = self.coeffs[key]
            sw = self.line(anchor, slots.pos_swap(k))
            sl = self.line(anchor, slots)
            line = [c1 * sw[m] + c2 * v for m, v in zip(self.moved[k], sl)]
        self.lines[state] = line
        return line


def _assemble(rel: _Relation, p: ParameterPoint, ctx: ThetaContext,
              provenance: str, crosscheck: bool) -> RestrictionMatrix:
    """Matrix rebuilt by the recursion of ``rel``.  The crosscheck rebuilds
    every grown index through each alternative step and requires
    agreement."""
    rec = _TwoTermRecursion(rel, p, ctx)
    order = rec.order
    ident = Permutation.identity(p.n)
    lines = [rec.line(X, ident) for X in order]
    entries = np.array(lines, dtype=complex)
    if rel.transpose:
        entries = entries.T.copy()
    matrix = RestrictionMatrix(n=p.n, sigma=ident, order=order, entries=entries,
                               provenance=provenance, point=p)
    if crosscheck:
        scale = 1.0 + matrix.max_abs()
        for X, main in zip(order, lines):
            for k in rel.steps(X)[1:]:
                for Y, v, w in zip(order, rec.line(X, ident, k), main):
                    delta = abs(v - w) / scale
                    if delta > ctx.tol:
                        I, J = rel.cell(X, Y)
                        raise ConsistencyError(
                            f"step k={k} disagrees at (row, column) = "
                            f"({I.word}, {J.word}): |delta|/scale = {delta:.3e}")
    return matrix


def build_A_by_R_recursion(p: ParameterPoint, ctx: ThetaContext,
                           crosscheck: bool = False) -> RestrictionMatrix:
    """Rebuild the full matrix from the closed-form diagonal using the
    exchange relation, row by row in length order."""
    return _assemble(_EXCHANGE, p, ctx, "r_recursion", crosscheck)


def build_A_by_dual_recursion(p: ParameterPoint, ctx: ThetaContext,
                              crosscheck: bool = False) -> RestrictionMatrix:
    """Rebuild the full matrix from the closed-form diagonal using the dual
    relation, column by column in co-length order."""
    return _assemble(_DUAL, p, ctx, "dual_recursion", crosscheck)
