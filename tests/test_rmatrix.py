"""Felder R-matrix entries, relation residuals, recursion builders."""

import time
from functools import cache, partial

import numpy as np
import pytest

from ellweights import (A_diagonal, A_direct, ConsistencyError, ParameterPoint,
                        Permutation, PoleError, ResonanceError, ThetaContext,
                        all_permutations, build_A_by_dual_recursion, build_A_by_R_recursion,
                        build_A_direct, dual_R, dual_residual,
                        exchange_residual, felder_R, kappa_substitute,
                        random_parameter_point, restriction, rmatrix, theta,
                        weightfn)
from ellweights.restriction import relative_residual

# Frozen outputs of the direct theta-ratio oracle at q = 0.3,
# lx = 0.37+0.62j, log hbar = 0.2+0.45j, log mu = (-0.31+1.2j, 0.45-0.83j).
GOLDEN_DIAG = 0.4822679172038732 - 0.10976033387816878j
GOLDEN_EXCH = 0.31274796386984577 - 0.0296967380816218j

EPS = np.finfo(float).eps


def _untabled(monkeypatch):
    # a recursion build reads every theta of its table through scalar theta,
    # one argument at a time
    monkeypatch.setattr(rmatrix, "thetas", lambda c, args: [theta(c, a) for a in args])


@pytest.fixture()
def golden_point():
    return ParameterPoint(log_z=(0.0, 0.0), log_mu=(-0.31 + 1.2j, 0.45 - 0.83j),
                          log_h=0.2 + 0.45j)


class TestFelderEntries:
    def test_initial_condition(self, ctx, golden_point):
        # x = 1: the x-diagonal entry vanishes, the exchange entry is unit
        assert felder_R("diag", 1, 2, 0.0, golden_point, ctx) == 0.0
        assert felder_R("exchange", 1, 2, 0.0, golden_point, ctx) == 1.0

    def test_golden_values(self, ctx, golden_point):
        lx = 0.37 + 0.62j
        got_d = felder_R("diag", 1, 2, lx, golden_point, ctx)
        got_e = felder_R("exchange", 1, 2, lx, golden_point, ctx)
        assert abs(got_d - GOLDEN_DIAG) < 1e-12
        assert abs(got_e - GOLDEN_EXCH) < 1e-12

    def test_pole_on_resonant_mu(self, ctx):
        p = ParameterPoint(log_z=(0.0, 0.0), log_mu=(0.3 + 0.1j, 0.3 + 0.1j),
                           log_h=0.2 + 0.45j)
        with pytest.raises(PoleError):
            felder_R("diag", 1, 2, 0.4, p, ctx)

    def test_bad_kind_and_indices(self, ctx, golden_point):
        with pytest.raises(ValueError):
            felder_R("off-diag", 1, 2, 0.1, golden_point, ctx)
        with pytest.raises(ValueError):
            felder_R("diag", 2, 2, 0.1, golden_point, ctx)

    def test_unitarity(self, ctx):
        # R(x) R_21(1/x) = 1 on the exchange block: the recursion's
        # 1 - e(b, a, x) e(b, a, -x) is the product d(a, b, x) d(b, a, -x),
        # over every key (a, b, i, j) of one n=4 point.  Measured worst
        # relative residual 2.5e-15; bound 1e-14.
        p = random_parameter_point(4, np.random.default_rng(1), ctx)
        worst = 0.0
        for a in range(1, 5):
            for b in range(1, 5):
                for i in range(1, 5):
                    for j in range(1, 5):
                        if a == b or i == j:
                            continue
                        x = p.z(i) - p.z(j)
                        ee = (felder_R("exchange", b, a, x, p, ctx)
                              * felder_R("exchange", b, a, -x, p, ctx))
                        dd = (felder_R("diag", a, b, x, p, ctx)
                              * felder_R("diag", b, a, -x, p, ctx))
                        worst = max(worst, restriction.relative_residual(dd, 1.0, -ee))
        assert worst < 1e-14


class TestDualEntries:
    def test_initial_condition(self, ctx, rng):
        p = random_parameter_point(3, rng, ctx)
        assert dual_R("diag", 1, 2, 0.0, p, ctx) == 0.0
        assert dual_R("exchange", 1, 2, 0.0, p, ctx) == 1.0

    def test_substitution_oracle(self, ctx, rng):
        # equal to the plain entry at the substituted parameter point
        p = random_parameter_point(3, rng, ctx)
        sub = ParameterPoint(
            log_z=tuple(-v for v in p.log_mu),
            log_mu=tuple(p.log_z[::-1]),
            log_h=p.log_h)
        lx = 0.21 - 0.83j
        for kind in ("diag", "exchange"):
            assert dual_R(kind, 1, 3, lx, p, ctx) == felder_R(kind, 1, 3, lx, sub, ctx)


def _exchange_oracle(I, J, k, p, ctx):
    # the exchange relation for the row pair {I, I value_swap k} at column J,
    # one A_direct call per entry
    ident = Permutation.identity(p.n)
    X = I if k in I.value_descents() else I.value_swap(k)
    anchor = X.value_swap(k)
    key = (anchor.word.index(k) + 1, anchor.word.index(k + 1) + 1, k, k + 1)
    r1, r2 = rmatrix._felder_pair(p, ctx, key)
    swapped = p.permute_z(ident.pos_swap(k))
    return relative_residual(A_direct(ident, X, J.value_swap(k), swapped, ctx),
                             r1 * A_direct(ident, anchor, J, p, ctx),
                             r2 * A_direct(ident, X, J, p, ctx))


def _dual_oracle(I, J, k, p, ctx):
    # the dual relation for the column pair {J, J pos_swap k} at row I, with
    # the dual entries read as Felder entries at the parameter swap
    n = p.n
    ident = Permutation.identity(n)
    X = J if k in J.word_ascents() else J.pos_swap(k)
    anchor = X.pos_swap(k)
    key = (anchor(k + 1), anchor(k), n - k, n + 1 - k)
    r1, r2 = rmatrix._felder_pair(kappa_substitute(p), ctx, key)
    swapped = p.permute_mu(ident.pos_swap(k))
    return relative_residual(A_direct(ident, I.pos_swap(k), X, swapped, ctx),
                             r1 * A_direct(ident, I, anchor, p, ctx),
                             r2 * A_direct(ident, I, X, p, ctx))


class TestRelationResiduals:
    @pytest.mark.parametrize("n", [2, 3])
    def test_exchange_relation(self, n, ctx, rng):
        for _ in range(2):
            p = random_parameter_point(n, rng, ctx)
            res = exchange_residual(build_A_direct(Permutation.identity(n), p, ctx), ctx)
            assert res.shape == (n - 1, len(all_permutations(n)), len(all_permutations(n)))
            assert (res < ctx.tol).all()

    @pytest.mark.parametrize("n", [2, 3])
    def test_dual_relation(self, n, ctx, rng):
        for _ in range(2):
            p = random_parameter_point(n, rng, ctx)
            res = dual_residual(build_A_direct(Permutation.identity(n), p, ctx), ctx)
            assert res.shape == (n - 1, len(all_permutations(n)), len(all_permutations(n)))
            assert (res < ctx.tol).all()

    def test_either_member_of_a_pair_gives_the_same_residual(self, ctx, rng):
        p = random_parameter_point(3, rng, ctx)
        A = build_A_direct(Permutation.identity(3), p, ctx)
        ex, du = exchange_residual(A, ctx), dual_residual(A, ctx)
        order = all_permutations(3)
        for k in (1, 2):
            swap_rows = [order.index(I.value_swap(k)) for I in order]
            swap_cols = [order.index(J.pos_swap(k)) for J in order]
            assert np.array_equal(ex[k - 1], ex[k - 1][swap_rows, :])
            assert np.array_equal(du[k - 1], du[k - 1][:, swap_cols])

    @pytest.mark.parametrize("n", [2, 3])
    def test_arrays_equal_the_per_entry_oracle(self, n, ctx, rng):
        # numpy rounds a complex product differently from Python in the last
        # bit, which moves a residual by under an eps (0.61 eps measured over
        # n = 2, 3, q in {0.3, 0.5i}, default_rng(0..3))
        p = random_parameter_point(n, rng, ctx)
        A = build_A_direct(Permutation.identity(n), p, ctx)
        ex, du = exchange_residual(A, ctx), dual_residual(A, ctx)
        order = all_permutations(n)
        for k in range(1, n):
            for i, I in enumerate(order):
                for j, J in enumerate(order):
                    assert abs(ex[k - 1, i, j] - _exchange_oracle(I, J, k, p, ctx)) <= 2 * EPS
                    assert abs(du[k - 1, i, j] - _dual_oracle(I, J, k, p, ctx)) <= 2 * EPS

    def test_work_per_call(self, ctx, rng, monkeypatch):
        # one call builds the n-1 swapped matrices and reads one Felder pair
        # per pair of grown indices and step: (n-1) n!/2 pairs
        builds, reads = [], []
        build, pair = rmatrix.build_A_direct, rmatrix._felder_pair
        monkeypatch.setattr(rmatrix, "build_A_direct",
                            lambda *a: builds.append(a) or build(*a))
        monkeypatch.setattr(rmatrix, "_felder_pair",
                            lambda *a: reads.append(a) or pair(*a))
        for n, pairs in ((2, 1), (3, 6)):
            A = build(Permutation.identity(n), random_parameter_point(n, rng, ctx), ctx)
            for residual in (exchange_residual, dual_residual):
                builds.clear()
                reads.clear()
                residual(A, ctx)
                assert (len(builds), len(reads)) == (n - 1, pairs)

    def test_rewritten_update_matches_direct(self, ctx, rng):
        # the closed-form two-term update behind the row recursion, checked
        # against direct entries at n=2 for both column choices; the solved
        # form r1i / den, r2i r1x / den is its cross-reference
        p = random_parameter_point(2, rng, ctx)
        ident = Permutation.identity(2)
        flip = Permutation((2, 1))
        x, m, h = p.z(1) - p.z(2), p.mu(1) - p.mu(2), p.log_h

        def th(lx):
            return theta(ctx, lx)

        c1 = -th(x + h) * th(m) / (th(x) * th(h - m))
        c2 = th(x + m) * th(h) / (th(x) * th(h - m))
        assert rmatrix._update_pair(p, th, (1, 2, 1, 2)) == (c1, c2)
        a, b = 1, 2
        r1x = felder_R("diag", a, b, x, p, ctx)
        r2x = felder_R("exchange", b, a, x, p, ctx)
        r1i = felder_R("diag", a, b, -x, p, ctx)
        r2i = felder_R("exchange", b, a, -x, p, ctx)
        den = 1.0 - r2x * r2i
        assert abs(c1 - r1i / den) < ctx.tol * abs(c1)
        assert abs(c2 - r2i * r1x / den) < ctx.tol * abs(c2)
        direct = build_A_direct(ident, p, ctx)
        swapped = build_A_direct(ident, p.permute_z(flip), ctx)
        for J in (ident, flip):
            got = c1 * swapped.entry(ident, J) + c2 * direct.entry(ident, J.value_swap(1))
            want = direct.entry(flip, J.value_swap(1))
            assert abs(got - want) < ctx.tol * (1.0 + abs(want))


class TestRecursionBuilders:
    def test_n1(self, ctx):
        p = ParameterPoint(log_z=(0.2,), log_mu=(0.5,), log_h=0.1)
        for build in (build_A_by_R_recursion, build_A_by_dual_recursion):
            mat = build(p, ctx)
            assert mat.entries.shape == (1, 1)
            assert mat.entries[0, 0] == 1.0

    def test_n2_reproduces_closed_matrix(self, ctx, rng):
        p = random_parameter_point(2, rng, ctx)
        direct = build_A_direct(Permutation.identity(2), p, ctx)
        for build in (build_A_by_R_recursion, build_A_by_dual_recursion):
            assert direct.max_deviation(build(p, ctx)) < ctx.tol

    def test_n3_matches_direct(self, ctx, rng):
        p = random_parameter_point(3, rng, ctx)
        direct = build_A_direct(Permutation.identity(3), p, ctx)
        r = build_A_by_R_recursion(p, ctx)
        d = build_A_by_dual_recursion(p, ctx)
        assert direct.max_deviation(r) < ctx.tol
        assert direct.max_deviation(d) < ctx.tol
        assert r.provenance == "r_recursion"
        assert d.provenance == "dual_recursion"

    def test_crosscheck_mode(self, ctx, rng):
        # descent independence: every valid move gives the same row/column
        p = random_parameter_point(3, rng, ctx)
        build_A_by_R_recursion(p, ctx, crosscheck=True)
        build_A_by_dual_recursion(p, ctx, crosscheck=True)

    def test_crosscheck_failure_names_row_then_column(self, rng):
        # at tol 1e-30 the rounding difference between alternative steps
        # (|delta|/scale 5.2e-14 and 2.3e-18) exceeds the tolerance
        ctx = ThetaContext.create(q=0.3, tol=1e-30)
        p = random_parameter_point(3, rng, ctx)
        with pytest.raises(ConsistencyError,
                           match=r"\(row, column\) = \(\(3, 2, 1\), \(1, 2, 3\)\)"):
            build_A_by_R_recursion(p, ctx, crosscheck=True)
        with pytest.raises(ConsistencyError,
                           match=r"\(row, column\) = \(\(1, 2, 3\), \(1, 2, 3\)\)"):
            build_A_by_dual_recursion(p, ctx, crosscheck=True)

    def test_crosscheck_flags_nan(self, ctx, rng, monkeypatch):
        # a NaN difference between alternative steps is a disagreement: with
        # every theta NaN, both crosschecked builds raise instead of
        # returning a matrix of NaN entries
        p = random_parameter_point(3, rng, ctx)
        monkeypatch.setattr(rmatrix, "thetas", lambda c, args: [complex("nan")] * len(args))
        for build in (build_A_by_R_recursion, build_A_by_dual_recursion):
            with pytest.raises(ConsistencyError, match=r"step k=\d disagrees at "
                               r"\(row, column\) = .*: \|delta\|/scale = nan"):
                build(p, ctx, crosscheck=True)

    def test_schedule_compiled_once_per_relation_and_n(self, ctx):
        # every build at n reads the one schedule of its relation; the
        # first build compiles it, with or without crosscheck
        rmatrix._schedule.cache_clear()
        for seed in (1, 2):
            p = random_parameter_point(4, np.random.default_rng(seed), ctx)
            for crosscheck in (False, True):
                build_A_by_R_recursion(p, ctx, crosscheck=crosscheck)
                build_A_by_dual_recursion(p, ctx, crosscheck=crosscheck)
        info = rmatrix._schedule.cache_info()
        assert (info.misses, info.hits, info.currsize) == (2, 6, 2)

    def test_schedule_size(self):
        # an n=4 build, with or without crosscheck, grows 178 lines, 154
        # updates and 24 seeds, from 52 distinct update pairs and 24 seed
        # diagonals; 13 of its lines are compared by the crosscheck
        for rel in (rmatrix._EXCHANGE, rmatrix._DUAL):
            s = rmatrix._schedule(rel, 4)
            seeds = [op for op in s.ops if len(op) == 2]
            assert (len(s.ops), len(seeds)) == (178, 24)
            assert [key is None for _, _, key in s.reads].count(False) == 52
            assert (len(s.reads), len(s.checks)) == (76, 13)

    def test_each_coefficient_pair_computed_once(self, ctx):
        # an n=4 build reads 52 distinct (a, b, i, j) keys per
        # relation, one compiled pair each, and each pair is _update_pair
        # at the relation's frame through scalar theta to 64 eps relative:
        # the arguments are summed in another order, and numpy rounds
        # complex products and quotients differently from CPython
        # (measured 8.2 eps here, at most 36.7 eps over default_rng(0..9)
        # at q = 0.3 and at q = 0.5i, trunc 120)
        p = random_parameter_point(4, np.random.default_rng(1), ctx)
        th = partial(theta, ctx)
        for rel in (rmatrix._EXCHANGE, rmatrix._DUAL):
            s = rmatrix._schedule(rel, 4)
            _, pairs = rmatrix._evaluate(s, p, ctx)
            keys = [key for _, _, key in s.reads if key is not None]
            assert pairs.shape == (len(set(keys)), 2) == (52, 2)
            want = np.array([rmatrix._update_pair(rel.frame(p), th, key) for key in keys])
            assert (np.abs(pairs - want) <= 64 * EPS * np.abs(want)).all()

    def test_each_theta_evaluated_once_per_build(self, ctx, monkeypatch):
        # the same crosschecked n=4 builds read 89 distinct theta arguments
        # each, in the coefficients and the seed diagonals, and evaluate
        # all of them in one thetas call; scalar theta is never called
        p = random_parameter_point(4, np.random.default_rng(1), ctx)
        batches = []
        batched = rmatrix.thetas

        def counted(c, args):
            batches.append(list(args))
            return batched(c, args)

        def scalar(c, lx):
            pytest.fail("scalar theta called")

        monkeypatch.setattr(rmatrix, "thetas", counted)
        for module in (rmatrix, weightfn):
            monkeypatch.setattr(module, "theta", scalar)
        for build in (build_A_by_R_recursion, build_A_by_dual_recursion):
            batches.clear()
            build(p, ctx, crosscheck=True)
            assert [len(b) for b in batches] == [len(set(batches[0]))] == [89]

    def test_seeds_read_the_public_diagonal(self, ctx):
        # each of the 24 seed values an n=4 build compiles per relation is
        # the public A_diagonal at its slot point to 64 eps relative
        # (measured 1.5 eps here, at most 2.5 eps over default_rng(0..9) at
        # q = 0.3 and at q = 0.5i, trunc 120)
        p = random_parameter_point(4, np.random.default_rng(1), ctx)
        for rel in (rmatrix._EXCHANGE, rmatrix._DUAL):
            s = rmatrix._schedule(rel, 4)
            seeds, _ = rmatrix._evaluate(s, p, ctx)
            want = np.array([A_diagonal(X, rel.point(p, slots), ctx)
                             for X, slots, key in s.reads if key is None])
            assert len(seeds) == len(want) == 24
            assert (np.abs(seeds - want) <= 64 * EPS * np.abs(want)).all()

    @pytest.mark.parametrize("n, waves, rows", [(4, 7, 93), (5, 11, 610)])
    def test_waves_and_pool_rows(self, n, waves, rows, ctx, monkeypatch):
        # the seed wave and one update wave per depth; a build, with or
        # without crosscheck, allocates one complex pool of the plan's rows,
        # fewer than the lines it grows (178 at n=4, 1,768 at n=5)
        p = random_parameter_point(n, np.random.default_rng(n), ctx)
        pools = []
        zeros = np.zeros
        monkeypatch.setattr(np, "zeros", lambda shape, *a, **k: pools.append(shape)
                            or zeros(shape, *a, **k))
        for rel, build in ((rmatrix._EXCHANGE, build_A_by_R_recursion),
                           (rmatrix._DUAL, build_A_by_dual_recursion)):
            assert rmatrix._schedule(rel, n).plan.waves == waves
            for crosscheck in (False, True):
                pools.clear()
                build(p, ctx, crosscheck=crosscheck)
                assert pools == [(rows, len(all_permutations(n)))]

    @pytest.mark.parametrize("n, seed", [(3, 3), (4, 2)])
    def test_theta_table_leaves_the_matrices_bit_identical(self, n, seed, ctx,
                                                           monkeypatch):
        # the batched table against the scalar theta reference
        p = random_parameter_point(n, np.random.default_rng(seed), ctx)
        builds = (build_A_by_R_recursion, build_A_by_dual_recursion)
        tabled = [b(p, ctx, crosscheck=True).entries.tobytes() for b in builds]
        _untabled(monkeypatch)
        for build, want in zip(builds, tabled):
            assert build(p, ctx, crosscheck=True).entries.tobytes() == want

    def test_n5_recursions_agree(self, ctx):
        p = random_parameter_point(5, np.random.default_rng(5), ctx)
        start = time.perf_counter()
        r = build_A_by_R_recursion(p, ctx, crosscheck=True)
        d = build_A_by_dual_recursion(p, ctx, crosscheck=True)
        assert time.perf_counter() - start < 5.0
        assert r.max_deviation(d) < 1e-7

    def test_crosscheck_leaves_the_matrix_bit_identical(self, ctx):
        # the lines grown through alternative steps never replace the
        # lines the matrix is stacked from
        p = random_parameter_point(4, np.random.default_rng(2), ctx)
        for build in (build_A_by_R_recursion, build_A_by_dual_recursion):
            plain = build(p, ctx).entries.tobytes()
            assert build(p, ctx, crosscheck=True).entries.tobytes() == plain

    def test_resonant_point_raises(self, ctx, rng, monkeypatch):
        # an update coefficient is singular where theta(x) vanishes, x the
        # z ratio of the R recursion and the mu ratio of the dual one
        p = random_parameter_point(3, rng, ctx)
        bad = ParameterPoint(log_z=(p.log_z[0], p.log_z[0], p.log_z[2]),
                             log_mu=p.log_mu, log_h=p.log_h)
        # the first grown index met in (row, column) order is named
        with pytest.raises(ResonanceError,
                           match=r"resonant coefficient at \(2, 1, 3\)"):
            build_A_by_R_recursion(bad, ctx)
        bad_mu = ParameterPoint(log_z=p.log_z,
                                log_mu=(p.log_mu[0], p.log_mu[0], p.log_mu[2]),
                                log_h=p.log_h)
        with pytest.raises(ResonanceError,
                           match=r"resonant coefficient at \(1, 2, 3\)"):
            build_A_by_dual_recursion(bad_mu, ctx)
        # each point swapped between the relations zeroes only theta(m), a
        # numerator of the update: both build, and R matches the direct matrix
        direct = build_A_direct(Permutation.identity(3), bad_mu, ctx)
        assert direct.max_deviation(build_A_by_R_recursion(bad_mu, ctx,
                                                           crosscheck=True)) < ctx.tol
        build_A_by_dual_recursion(bad, ctx, crosscheck=True)
        # dyadic logs with mu_2/mu_1 = z_1/z_2 = 1/hbar exactly: a seed
        # diagonal stores theta(hbar mu_2/mu_1) = theta(1) = 0, and the first
        # coefficient, with m = mu_1/mu_2 = hbar, reads its vanishing
        # theta(hbar - m) from the build's one table.  Three distinct
        # argument vectors vanish at this point, each computed once
        h = 0.25 + 0.5j
        dyadic = ParameterPoint(log_z=(0.125 + 0.375j, 0.375 + 0.875j, -0.625 + 0.25j),
                                log_mu=(0.5 - 0.25j, 0.25 - 0.75j, -0.375 + 1.125j),
                                log_h=h)
        zeros = {"computed": 0, "read": 0}
        batched = rmatrix.thetas

        def counted(c, args):
            zeros["computed"] += sum(lx == 0 for lx in args)
            return batched(c, args)

        monkeypatch.setattr(rmatrix, "thetas", counted)
        with pytest.raises(ResonanceError,
                           match=r"resonant coefficient at \(2, 1, 3\)") as served:
            build_A_by_R_recursion(dyadic, ctx)
        # reads of the table by the seeds and pairs before the pair that
        # raises, then by its theta(x) and theta(hbar - m)
        s = rmatrix._schedule(rmatrix._EXCHANGE, 3)
        base = np.array([*dyadic.log_z, *dyadic.log_mu, dyadic.log_h])
        zero = s.vectors @ base == 0
        fail = next(r for r, (X, _, key) in enumerate(s.reads)
                    if key is not None and X.word == (2, 1, 3))
        seeds = [key for *_, key in s.reads[:fail]].count(None)
        read = [*s.seed_args[:seeds].ravel(), *s.pair_args[:fail - seeds].ravel(),
                *s.pair_args[fail - seeds, :2]]
        zeros["read"] = int(zero[read].sum())
        assert zeros == {"computed": 3, "read": 3}
        _untabled(monkeypatch)
        with pytest.raises(ResonanceError) as fresh:
            build_A_by_R_recursion(dyadic, ctx)
        assert str(fresh.value) == str(served.value)

    def test_points_the_subtracted_update_rejected(self):
        # q=0.3, n=4: with the update divided by 1 - r2c r2s these points
        # raised "singular update" (dual at default_rng(4) and (12), R at
        # (20)); q=0.5i, trunc 120: the dual build of the recursion_n4
        # benchmark op at default_rng(13001563) did.  Measured: R-vs-dual
        # 8.8e-13 at seed 4, direct-vs-recursion 9.0e-13 there.
        cases = [(ThetaContext.create(q=0.3), seed) for seed in (4, 12, 20)]
        cases.append((ThetaContext.create(q=0.5j, trunc=120), 13001563))
        for ctx, seed in cases:
            p = random_parameter_point(4, np.random.default_rng(seed), ctx)
            r = build_A_by_R_recursion(p, ctx, crosscheck=True)
            d = build_A_by_dual_recursion(p, ctx, crosscheck=True)
            assert r.max_deviation(d) < ctx.tol
            if seed == 4:
                direct = build_A_direct(Permutation.identity(4), p, ctx)
                assert direct.max_deviation(r) < ctx.tol
                assert direct.max_deviation(d) < ctx.tol

    def test_recursion_diagonal_matches_closed_form(self, ctx, rng):
        from ellweights import A_diagonal
        p = random_parameter_point(3, rng, ctx)
        mat = build_A_by_R_recursion(p, ctx)
        for I in all_permutations(3):
            want = A_diagonal(I, p, ctx)
            assert abs(mat.entry(I, I) - want) < ctx.tol * (1 + abs(want))


class TestHighPrecisionReference:
    @pytest.mark.parametrize("q, trunc", [(0.3, None), (0.5j, 120), (-0.5, None)])
    def test_three_builds_within_64_eps_of_50_digits(self, q, trunc, monkeypatch):
        # the direct matrix at an mpc copy of the point, every theta at 50
        # digits by its product formula: the direct, R and dual matrices in
        # double each lie within 64 eps max|A| of it (measured at most
        # 16.9 eps, dual at q=0.5i, n=3, default_rng(0))
        mpmath = pytest.importorskip("mpmath")
        ctx = ThetaContext.create(q=q, trunc=trunc)
        with mpmath.workdps(50):
            mq = mpmath.exp(mpmath.mpc(ctx.log_q))

            @cache
            def wide_theta(lx):
                x = mpmath.exp(lx)
                return ((mpmath.exp(lx / 2) - mpmath.exp(-lx / 2))
                        * mpmath.qp(mq * x, mq) * mpmath.qp(mq / x, mq))

            # the kernel is Jacobi's theta_1 at nome sqrt(q), normalized
            nome = mpmath.sqrt(mq)
            for lx in (mpmath.mpc(0.3, 0.7), mpmath.mpc(-1.1, 2.5)):
                jacobi = (1j * mpmath.jtheta(1, -1j * lx / 2, nome)
                          / (nome ** 0.25 * mpmath.qp(mq, mq)))
                assert abs(wide_theta(lx) / jacobi - 1) < mpmath.mpf(10) ** -48
            for n in (2, 3):
                ident = Permutation.identity(n)
                for seed in (0, 1):
                    p = random_parameter_point(n, np.random.default_rng(seed), ctx)
                    builds = (build_A_direct(ident, p, ctx),
                              build_A_by_R_recursion(p, ctx, crosscheck=True),
                              build_A_by_dual_recursion(p, ctx, crosscheck=True))
                    wide = ParameterPoint(log_z=tuple(map(mpmath.mpc, p.log_z)),
                                          log_mu=tuple(map(mpmath.mpc, p.log_mu)),
                                          log_h=mpmath.mpc(p.log_h))
                    wide_theta.cache_clear()
                    with monkeypatch.context() as m:
                        m.setattr(weightfn, "theta", lambda c, lx: wide_theta(lx))
                        ref = np.array([complex(v) for v, _ in
                                        restriction.direct_entries(wide, ctx)])
                    ref = ref.reshape(builds[0].entries.shape)
                    # the sweep read its thetas at 50 digits: a sweep that
                    # bypassed the patched name would equal the double build
                    assert wide_theta.cache_info().currsize > 0
                    assert (ref != builds[0].entries).any()
                    bound = 64 * EPS * np.abs(ref).max()
                    for build in builds:
                        assert np.abs(build.entries - ref).max() <= bound, build.provenance
