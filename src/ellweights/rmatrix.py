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
from functools import cache
from typing import Callable

import numpy as np

from .errors import ConsistencyError, PoleError, ResonanceError
from .mirror import kappa_substitute
from .permcomb import Permutation, all_permutations
from .qtheta import POLE_TOL, ThetaContext, theta, thetas
from .restriction import (A_diagonal, RestrictionMatrix, build_A_direct,
                          diagonal_args, relative_residual)
from .weightfn import ParameterPoint


def felder_R(kind: str, j: int, k: int, lx, p: ParameterPoint,
             ctx: ThetaContext) -> complex:
    """Entry of the elliptic dynamical R-matrix in Felder's normalization.

    ``diag`` is the x-diagonal entry with distinct indices j, k;
    ``exchange`` is the index-exchanging entry.  lx is the log of the
    spectral argument x.
    """
    if kind not in ("diag", "exchange"):
        raise ValueError(f"unknown kind {kind!r}")
    if j == k:
        raise ValueError("distinct indices required for non-trivial entries")
    lmu = p.mu(j) - p.mu(k)
    den_x = theta(ctx, lx + p.log_h)
    den_mu = theta(ctx, lmu)
    if abs(den_x) < POLE_TOL or abs(den_mu) < POLE_TOL:
        raise PoleError("R-matrix denominator vanished")
    if kind == "diag":
        return theta(ctx, lx) * theta(ctx, p.log_h + lmu) / (den_x * den_mu)
    return theta(ctx, lx + lmu) * theta(ctx, p.log_h) / (den_x * den_mu)


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


def _felder_pair(q: ParameterPoint, ctx: ThetaContext,
                 key: tuple[int, int, int, int]) -> tuple[complex, complex]:
    a, b, i, j = key
    x = q.z(i) - q.z(j)
    return felder_R("diag", a, b, x, q, ctx), felder_R("exchange", b, a, x, q, ctx)


@dataclass(frozen=True)
class _Relation:
    """For a step k in steps(X) of the grown index X (the row, or the
    column when ``transpose`` is set), its anchor move(X, k), the other
    index Y and (r1, r2) = _felder_pair(frame(p), ctx, key(anchor, k, slots)):

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


_EXCHANGE = _Relation(Permutation.value_descents, Permutation.value_swap,
                      _exchange_key, lambda p: p, ParameterPoint.permute_z,
                      transpose=False)
_DUAL = _Relation(Permutation.word_ascents, Permutation.pos_swap,
                  _dual_key, kappa_substitute, ParameterPoint.permute_mu,
                  transpose=True)


@cache
def _tables(rel: _Relation, n: int) -> tuple[dict, dict]:
    """index: word -> position in ``all_permutations(n)``; moved[k]: the
    position of move(Y, k) for each Y there."""
    order = all_permutations(n)
    index = {Y.word: y for y, Y in enumerate(order)}
    return index, {k: tuple(index[rel.move(Y, k).word] for Y in order)
                   for k in range(1, n)}


def _relation_residuals(rel: _Relation, A: RestrictionMatrix,
                        ctx: ThetaContext) -> np.ndarray:
    """Normalized residuals of ``rel`` at A.point, indexed [k-1, i, j] by
    the step k and the (row, column) of the identity-chamber direct matrix
    A.  Both members of a pair {X, move(X, k)} of grown indices carry the
    pair's one residual at each other index Y."""
    p, n, order = A.point, A.n, A.order
    ident = Permutation.identity(n)
    _, moved = _tables(rel, n)
    frame = rel.frame(p)

    def lines(M: RestrictionMatrix) -> list[list[complex]]:
        return (M.entries.T if rel.transpose else M.entries).tolist()

    base = lines(A)
    out = np.zeros((n - 1, len(order), len(order)))
    for k in range(1, n):
        swapped = lines(build_A_direct(ident, rel.point(p, ident.pos_swap(k)), ctx))
        mk = moved[k]
        for x, a in enumerate(mk):
            if k not in rel.steps(order[x]):
                continue
            r1, r2 = _felder_pair(frame, ctx, rel.key(order[a], k, ident))
            for y in range(len(order)):
                out[k - 1, x, y] = out[k - 1, a, y] = relative_residual(
                    swapped[x][mk[y]], r1 * base[a][y], r2 * base[x][y])
    return out.transpose(0, 2, 1) if rel.transpose else out


def exchange_residual(A: RestrictionMatrix, ctx: ThetaContext) -> np.ndarray:
    """Residuals of the exchange relation for every row pair
    {I, I value_swap k} and column J, indexed [k-1, i, j]; A is the
    identity-chamber direct matrix at the point checked."""
    return _relation_residuals(_EXCHANGE, A, ctx)


def dual_residual(A: RestrictionMatrix, ctx: ThetaContext) -> np.ndarray:
    """Residuals of the dual relation for every column pair
    {J, J pos_swap k} and row I, indexed as in exchange_residual."""
    return _relation_residuals(_DUAL, A, ctx)


# ---------------------------------------------------------------------------
# recursion driver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Schedule:
    """The memoized two-term recursion of one relation at one n, walked once
    without a point and recorded in integer line ids.

    Line ``lid`` lists the entries with one grown index X at one slot
    permutation, one for each other index Y in ``all_permutations(n)``
    order.  At the seed, triangularity plus the closed-form diagonal fix the
    line.  Any other X comes from its anchor move(X, k) for a step k: the
    relation at ``slots`` (pair r1c, r2c) and at its k-th position swap
    (r1s, r2s; x -> -x) solve to line[Y] = c1 sw[moved[k][Y]] + c2 sl[Y],
    with sw, sl the anchor's lines there, moved[k][Y] the index of
    move(Y, k), c1 = r1s / (1 - r2c r2s) and c2 = r2s r1c / (1 - r2c r2s).
    Unitarity of Felder's R-matrix (arXiv:hep-th/9412207) gives
    1 - r2c r2s = r1c diag(b, a, -x), and theta is odd, so ``_update_pair``
    writes both as theta ratios with no difference left to cancel.

    ``reads`` lists what a build evaluates at its point, in the order the
    depth-first walk first asks for it: (X, slots, None) is the diagonal of
    the seed X at rel.point(p, slots), (X, slots, key) the update pair of
    ``key``, first asked for by the grown index X.  ``ops[lid]`` makes line
    lid, in walk order: (r, pos) is a seed line, zero but for reads[r] at
    pos; (r, sw, sl, k) is an update with the pair reads[r].  ``drops[lid]``
    lists the lines whose last reader is line lid, main lines excepted.
    ``main`` holds each grown index's line at the identity slots and
    ``checks`` the (x, k, lid) of each line grown through an alternative
    step, in crosscheck order.  The main walk comes first, so a build
    without crosscheck runs the first ``main_reads`` reads and the first
    ``main_ops`` ops.
    """

    reads: tuple[tuple[Permutation, Permutation, tuple | None], ...]
    ops: tuple[tuple[int, ...], ...]
    drops: tuple[tuple[int, ...], ...]
    main: tuple[int, ...]
    checks: tuple[tuple[int, int, int], ...]
    main_reads: int
    main_ops: int


@cache
def _schedule(rel: _Relation, n: int) -> _Schedule:
    order = all_permutations(n)
    index, _ = _tables(rel, n)
    ids, reads, pairs, ops = {}, [], {}, []

    def line(X: Permutation, slots: Permutation, k_choice: int | None = None) -> int:
        state = (X.word, slots.word, k_choice)
        if state in ids:
            return ids[state]
        steps = rel.steps(X)
        if not steps:
            reads.append((X, slots, None))
            op = (len(reads) - 1, index[X.word])
        else:
            k = k_choice if k_choice is not None else steps[0]
            anchor = rel.move(X, k)
            key = rel.key(anchor, k, slots)
            if key not in pairs:
                pairs[key] = len(reads)
                reads.append((X, slots, key))
            op = (pairs[key], line(anchor, slots.pos_swap(k)), line(anchor, slots), k)
        ids[state] = len(ops)
        ops.append(op)
        return ids[state]

    ident = Permutation.identity(n)
    main = tuple(line(X, ident) for X in order)
    main_reads, main_ops = len(reads), len(ops)
    checks = tuple((x, k, line(X, ident, k)) for x, X in enumerate(order)
                   for k in rel.steps(X)[1:])
    last = {src: lid for lid, op in enumerate(ops) if len(op) == 4 for src in op[1:3]}
    kept = set(main)
    drops = [[] for _ in ops]
    for src, lid in last.items():
        if src not in kept:
            drops[lid].append(src)
    return _Schedule(tuple(reads), tuple(ops), tuple(map(tuple, drops)), main,
                     checks, main_reads, main_ops)


def _update_args(q: ParameterPoint, key: tuple[int, int, int, int]) -> tuple:
    a, b, i, j = key
    x, m, h = q.z(i) - q.z(j), q.mu(a) - q.mu(b), q.log_h
    return x, h - m, x + h, m, x + m, h


def _update_pair(q: ParameterPoint, th: Callable[[complex], complex],
                 key: tuple[int, int, int, int]) -> tuple[complex, complex]:
    x, hm, xh, m, xm, h = _update_args(q, key)
    tx, thm = th(x), th(hm)
    if abs(tx) < POLE_TOL or abs(thm) < POLE_TOL:
        raise PoleError("theta(x) or theta(hbar - m) vanished")
    return -th(xh) * th(m) / (tx * thm), th(xm) * th(h) / (tx * thm)


def _evaluate(rel: _Relation, p: ParameterPoint, ctx: ThetaContext,
              reads: tuple) -> list:
    """The value of each read at p, from one ``thetas`` call over every
    distinct argument the reads take, in the order they first take it."""
    frame = rel.frame(p)
    points = [rel.point(p, slots) if key is None else frame
              for _, slots, key in reads]
    args = [lx for (X, _, key), q in zip(reads, points)
            for lx in (diagonal_args(X, q) if key is None else _update_args(q, key))]
    distinct = list(dict.fromkeys(args))
    th = dict(zip(distinct, thetas(ctx, distinct))).__getitem__
    values = []
    for (X, _, key), q in zip(reads, points):
        if key is None:
            values.append(A_diagonal(X, q, ctx, th))
            continue
        try:
            values.append(_update_pair(q, th, key))
        except PoleError as exc:
            raise ResonanceError(f"resonant coefficient at {X.word}: {exc}")
    return values


def _assemble(rel: _Relation, p: ParameterPoint, ctx: ThetaContext,
              provenance: str, crosscheck: bool) -> RestrictionMatrix:
    """Matrix rebuilt by the recursion of ``rel``: the ops of its schedule
    run as one flat loop over the values of its reads at p.  The crosscheck
    rebuilds every grown index through each alternative step and requires
    agreement."""
    s = _schedule(rel, p.n)
    values = _evaluate(rel, p, ctx, s.reads if crosscheck else s.reads[:s.main_reads])
    _, moved = _tables(rel, p.n)
    order = all_permutations(p.n)
    size = len(order)
    lines = [None] * len(s.ops)

    def grow(lo: int, hi: int) -> None:
        for lid in range(lo, hi):
            op = s.ops[lid]
            if len(op) == 2:
                line = [0.0 + 0j] * size
                line[op[1]] = values[op[0]]
            else:
                r, sw, sl, k = op
                c1, c2 = values[r]
                a = lines[sw]
                line = [c1 * a[m] + c2 * v for m, v in zip(moved[k], lines[sl])]
            lines[lid] = line
            for d in s.drops[lid]:
                lines[d] = None

    grow(0, s.main_ops)
    main = [lines[lid] for lid in s.main]
    entries = np.array(main, dtype=complex)
    if rel.transpose:
        entries = entries.T.copy()
    ident = Permutation.identity(p.n)
    matrix = RestrictionMatrix(n=p.n, sigma=ident, order=order, entries=entries,
                               provenance=provenance, point=p)
    if crosscheck:
        scale = 1.0 + matrix.max_abs()
        done = s.main_ops
        for x, k, lid in s.checks:
            grow(done, lid + 1)
            done = lid + 1
            for Y, v, w in zip(order, lines[lid], main[x]):
                delta = abs(v - w) / scale
                if delta > ctx.tol:
                    I, J = (Y, order[x]) if rel.transpose else (order[x], Y)
                    raise ConsistencyError(
                        f"step k={k} disagrees at (row, column) = "
                        f"({I.word}, {J.word}): |delta|/scale = {delta:.3e}")
            lines[lid] = None
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
