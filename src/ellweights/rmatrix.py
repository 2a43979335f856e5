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

from collections import Counter
from dataclasses import dataclass
from functools import cache
from itertools import count, groupby
from typing import Callable

import numpy as np

from .errors import ConsistencyError, PoleError, ResonanceError
from .mirror import kappa_substitute
from .permcomb import Permutation, all_permutations
# theta is unused here, but perfbench's tests read the name rmatrix.theta
from .qtheta import POLE_TOL, ThetaContext, theta, thetas  # noqa: F401
from .restriction import (RestrictionMatrix, build_A_direct, diagonal_args,
                          relative_residual)
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
    num = (lx, p.log_h + lmu) if kind == "diag" else (lx + lmu, p.log_h)
    den_x, den_mu, a, b = thetas(ctx, (lx + p.log_h, lmu, *num))
    if abs(den_x) < POLE_TOL or abs(den_mu) < POLE_TOL:
        raise PoleError("R-matrix denominator vanished")
    return a * b / (den_x * den_mu)


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

    def lines(M: RestrictionMatrix) -> np.ndarray:
        return M.entries.T if rel.transpose else M.entries

    base = lines(A)
    out = np.zeros((n - 1, len(order), len(order)))
    for k in range(1, n):
        swapped = lines(build_A_direct(ident, rel.point(p, ident.pos_swap(k)), ctx))
        xs = [x for x, X in enumerate(order) if k in rel.steps(X)]
        anchors = [moved[k][x] for x in xs]
        r1, r2 = np.array([_felder_pair(frame, ctx, rel.key(order[a], k, ident))
                           for a in anchors], dtype=complex).T
        out[k - 1, xs] = out[k - 1, anchors] = relative_residual(
            swapped[np.ix_(xs, moved[k])], r1[:, None] * base[anchors], r2[:, None] * base[xs])
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
class _Plan:
    """The lines of a build as ``rows`` rows of one pool.  ``seeds`` holds
    the row and nonzero position of each seed line.  Each chunk (dst, sw,
    sl, k, r) of ``chunks`` grows lines of one depth (the distance of their
    grown index from the seed) from their anchors' lines, one depth after
    another over ``waves`` depths; a row is reused once the chunk of its last
    reader is done.  The ``out`` rows of the main lines and the ``check``
    rows of the crosscheck lines, with the ``ref`` rows of the main lines
    they must equal, live to the end."""

    rows: int
    waves: int
    seeds: tuple[np.ndarray, np.ndarray]
    chunks: tuple[tuple[np.ndarray, ...], ...]
    out: np.ndarray
    check: np.ndarray
    ref: np.ndarray


#: entries of the lines one chunk grows or compares at once, which bounds
#: the temporaries of a build
_CHUNK = 1 << 15


def _plan(ops: tuple, main: tuple, checks: tuple, size: int) -> _Plan:
    """The plan that grows ``ops``, whose lines have ``size`` entries."""
    depth = []
    for op in ops:
        depth.append(depth[op[1]] + 1 if len(op) == 4 else 0)
    by_depth = sorted(range(len(ops)), key=depth.__getitem__)
    waves = [list(lids) for _, lids in groupby(by_depth, depth.__getitem__)]
    step = max(1, _CHUNK // size)
    stages = waves[:1] + [wave[i:i + step] for wave in waves[1:]
                          for i in range(0, len(wave), step)]
    readers = Counter(src for op in ops if len(op) == 4 for src in op[1:3])
    kept, row, free, fresh = set(main) | {lid for *_, lid in checks}, {}, [], count()
    for stage in stages:
        for lid in stage:
            row[lid] = free.pop() if free else next(fresh)
        for src in (src for lid in stage if depth[lid] for src in ops[lid][1:3]):
            readers[src] -= 1
            if not readers[src] and src not in kept:
                free.append(row[src])

    def rows(lids):
        return np.array([row[lid] for lid in lids], dtype=np.intp)

    def chunk(lids):
        r, sw, sl, k = zip(*map(ops.__getitem__, lids))
        return (rows(lids), rows(sw), rows(sl), np.array(k, dtype=np.intp) - 1,
                np.array(r, dtype=np.intp))

    seeds = np.array([ops[lid][1] for lid in waves[0]], dtype=np.intp)
    return _Plan(next(fresh), len(waves), (rows(waves[0]), seeds),
                 tuple(map(chunk, stages[1:])), rows(main),
                 rows([lid for *_, lid in checks]), rows([main[x] for x, *_ in checks]))


@dataclass(frozen=True)
class _Schedule:
    """The memoized two-term recursion of one relation at one n, walked once
    without a point and compiled to index tables and one row plan.

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

    ``reads`` lists, in the order the depth-first walk first asks for them,
    the seed diagonals (X, slots, None) of X at rel.point(p, slots) and the
    update pairs (X, slots, key) of ``key``, first asked for by X.
    ``ops[lid]`` makes line lid: (r, pos) is zero but for the r-th seed
    value at pos, (r, sw, sl, k) an update with the r-th pair.  ``checks``
    holds the (x, k, lid) of each line grown through an alternative step;
    ``plan`` grows every line, and a build compares the crosscheck lines
    only when asked to.

    Every theta argument is an integer combination of the 2n+1 logs
    (log z_1..n, log mu_1..n, log hbar), found by running the argument
    builders once on the point whose logs are the unit vectors.
    ``vectors`` holds the distinct ones, a row each in first-read order;
    the r-th seed is signs[r] times the product of theta over the rows
    seed_args[r], and pair_args[r] holds the rows of the six
    ``_update_args`` of the r-th pair.
    """

    reads: tuple[tuple[Permutation, Permutation, tuple | None], ...]
    ops: tuple[tuple[int, ...], ...]
    checks: tuple[tuple[int, int, int], ...]
    vectors: np.ndarray
    seed_args: np.ndarray
    signs: np.ndarray
    pair_args: np.ndarray
    moved: np.ndarray
    plan: _Plan


@cache
def _schedule(rel: _Relation, n: int) -> _Schedule:
    order = all_permutations(n)
    index, moved = _tables(rel, n)
    ids, reads, pairs, ops = {}, [], {}, []

    def line(X: Permutation, slots: Permutation, k_choice: int | None = None) -> int:
        state = (X.word, slots.word, k_choice)
        if state in ids:
            return ids[state]
        steps = rel.steps(X)
        if not steps:
            reads.append((X, slots, None))
            op = (len(reads) - len(pairs) - 1, index[X.word])
        else:
            k = k_choice if k_choice is not None else steps[0]
            anchor = rel.move(X, k)
            key = rel.key(anchor, k, slots)
            if key not in pairs:
                pairs[key] = len(pairs)
                reads.append((X, slots, key))
            op = (pairs[key], line(anchor, slots.pos_swap(k)), line(anchor, slots), k)
        ids[state] = len(ops)
        ops.append(op)
        return ids[state]

    ident = Permutation.identity(n)
    main = tuple(line(X, ident) for X in order)
    checks = tuple((x, k, line(X, ident, k)) for x, X in enumerate(order)
                   for k in rel.steps(X)[1:])
    del line  # a closure that refers to itself: its tables go now

    unit = np.eye(2 * n + 1, dtype=np.int64)
    sym = ParameterPoint(log_z=tuple(unit[:n]), log_mu=tuple(unit[n:-1]), log_h=unit[-1])
    frame, ids, seed_args, pair_args = rel.frame(sym), {}, [], []
    for X, slots, key in reads:   # ids: the bytes of each distinct vector
        logs = (_update_args(frame, key) if key
                else diagonal_args(X, rel.point(sym, slots)))
        (pair_args if key else seed_args).append(
            [ids.setdefault(v.tobytes(), len(ids)) for v in logs])
    return _Schedule(tuple(reads), tuple(ops), checks,
                     np.frombuffer(b"".join(ids), dtype=np.int64).reshape(-1, len(unit)),
                     np.array(seed_args, dtype=np.intp).reshape(len(seed_args), -1),
                     np.array([X.sign() for X, _, key in reads if key is None]),
                     np.array(pair_args, dtype=np.intp).reshape(-1, 6),
                     np.array([moved[k] for k in range(1, n)], dtype=np.intp),
                     _plan(tuple(ops), main, checks, len(order)))


def _update_args(q: ParameterPoint, key: tuple[int, int, int, int]) -> tuple:
    a, b, i, j = key
    x, m, h = q.z(i) - q.z(j), q.mu(a) - q.mu(b), q.log_h
    return x, h - m, x + h, m, x + m, h


_VANISHED = "theta(x) or theta(hbar - m) vanished"


def _update_pair(q: ParameterPoint, th: Callable[[complex], complex],
                 key: tuple[int, int, int, int]) -> tuple[complex, complex]:
    """The update pair (c1, c2) of ``key`` at the frame point q, one scalar
    theta th at a time: the reference for the pairs a build computes."""
    tx, thm, txh, tm, txm, th_h = map(th, _update_args(q, key))
    if abs(tx) < POLE_TOL or abs(thm) < POLE_TOL:
        raise PoleError(_VANISHED)
    return -txh * tm / (tx * thm), txm * th_h / (tx * thm)


def _evaluate(s: _Schedule, p: ParameterPoint,
              ctx: ThetaContext) -> tuple[np.ndarray, np.ndarray]:
    """The seed values and the update pairs (c1, c2), a row per pair, that a
    build reads at p, from one ``thetas`` call over the schedule's vectors.
    The first pair in read order with a vanishing denominator is named."""
    base = np.array([*p.log_z, *p.log_mu, p.log_h], dtype=complex)
    th = np.array(thetas(ctx, s.vectors @ base), dtype=complex)
    tx, thm, txh, tm, txm, th_h = th[s.pair_args].T
    vanished = np.flatnonzero((np.abs(tx) < POLE_TOL) | (np.abs(thm) < POLE_TOL))
    if vanished.size:
        X = [X for X, _, key in s.reads if key is not None][vanished[0]]
        raise ResonanceError(f"resonant coefficient at {X.word}: {_VANISHED}")
    with np.errstate(invalid="ignore"):   # a NaN theta makes NaN pairs
        pairs = np.stack([-txh * tm, txm * th_h], axis=1) / (tx * thm)[:, None]
    return s.signs * th[s.seed_args].prod(axis=1), pairs


def _assemble(rel: _Relation, p: ParameterPoint, ctx: ThetaContext,
              provenance: str, crosscheck: bool) -> RestrictionMatrix:
    """Matrix rebuilt by the recursion of ``rel``: the lines grow as complex
    rows of one pool, chunk by chunk of its plan, from the values of its
    reads at p.  The plan also rebuilds every grown index through each
    alternative step; the crosscheck requires agreement."""
    s = _schedule(rel, p.n)
    plan = s.plan
    seeds, pairs = _evaluate(s, p, ctx)
    c1, c2 = pairs.T
    order = all_permutations(p.n)
    size = len(order)
    pool = np.zeros((plan.rows, size), dtype=complex)
    pool[plan.seeds] = seeds
    flat = pool.reshape(-1)
    for dst, sw, sl, k, r in plan.chunks:
        at = s.moved[k] + (sw * size)[:, None]   # a[moved[k]] of each sw row
        pool[dst] = c1[r, None] * flat[at] + c2[r, None] * pool[sl]
    entries = pool[plan.out].T if rel.transpose else pool[plan.out]
    ident = Permutation.identity(p.n)
    matrix = RestrictionMatrix(n=p.n, sigma=ident, order=order, entries=entries,
                               provenance=provenance, point=p)
    if crosscheck:
        scale, step = 1.0 + matrix.max_abs(), max(1, _CHUNK // size)
        for lo in range(0, len(s.checks), step):
            cut = slice(lo, lo + step)
            delta = np.abs(pool[plan.check[cut]] - pool[plan.ref[cut]]) / scale
            over = np.flatnonzero(~(delta <= ctx.tol))
            if over.size:
                c, y = divmod(int(over[0]), size)
                x, k, _ = s.checks[lo + c]
                I, J = (order[y], order[x]) if rel.transpose else (order[x], order[y])
                raise ConsistencyError(
                    f"step k={k} disagrees at (row, column) = ({I.word}, {J.word}): "
                    f"|delta|/scale = {delta.flat[over[0]]:.3e}")
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
