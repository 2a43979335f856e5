"""Parameter-swap identity and the duality interface."""

import numpy as np
import pytest

from ellweights import (A_direct, DualityInterface, IllConditionedError,
                        ParameterPoint, Permutation, ThetaContext, W,
                        all_permutations, build_A_direct, compose,
                        global_sign, interpolation_residuals,
                        kappa_substitute, mirror_index, mirror_residual,
                        random_chern_point, random_parameter_point,
                        restriction_point, weight_terms)
from ellweights import mirror
from ellweights.restriction import relative_residual

#: the interface stream of `verify --n 4 --seed 7`: its first point passes
#: the condition gate at tol 1e-6 (at 1e-8 the gate stops many n = 4 points)
N4_SEED = [7, 6]


class TestKappa:
    def test_n1(self, ctx):
        p = ParameterPoint(log_z=(0.4,), log_mu=(0.9,), log_h=0.2)
        k = kappa_substitute(p)
        assert k.log_z == (0.9,)
        assert k.log_mu == (-0.4,)
        assert k.log_h == p.log_h

    def test_n2_explicit(self, ctx, rng):
        p = random_parameter_point(2, rng, ctx)
        k = kappa_substitute(p)
        assert k.log_z == (p.log_mu[1], p.log_mu[0])
        assert k.log_mu == (-p.log_z[0], -p.log_z[1])

    def test_double_application_bookkeeping(self, ctx, rng):
        # exponent-vector oracle: twice kappa = reverse slots and invert
        p = random_parameter_point(3, rng, ctx)
        kk = kappa_substitute(kappa_substitute(p))
        assert kk.log_z == tuple(-v for v in p.log_z[::-1])
        assert kk.log_mu == tuple(-v for v in p.log_mu[::-1])
        assert kk.log_h == p.log_h


class TestMirrorIdentity:
    def test_global_sign_n2(self):
        assert global_sign(2) == -1
        assert global_sign(3) == -1
        assert global_sign(4) == 1

    def test_n2_all_four(self, ctx, rng):
        p = random_parameter_point(2, rng, ctx)
        res = mirror_residual(p, ctx)
        assert res.shape == (2, 2)
        assert (res < ctx.tol).all()

    def test_n2_reduces_to_theta_parity(self, ctx, rng):
        # the diagonal identity pairs the two diagonal entries with the
        # swapped arguments and a single minus sign
        p = random_parameter_point(2, rng, ctx)
        ident = Permutation.identity(2)
        flip = Permutation((2, 1))
        lhs = A_direct(ident, ident, ident, p, ctx)
        rhs = -A_direct(ident, flip, flip, kappa_substitute(p), ctx)
        assert abs(lhs - rhs) < ctx.tol * abs(lhs)

    def test_n3_all_36(self, ctx, rng):
        p = random_parameter_point(3, rng, ctx)
        res = mirror_residual(p, ctx)
        assert res.shape == (6, 6)
        assert (res < ctx.tol).all()

    @pytest.mark.parametrize("n", [2, 3])
    def test_array_equals_the_per_entry_oracle(self, n, ctx, rng):
        # each side entry by entry from its symmetrization terms, with the
        # largest term modulus of either side as the extra scale
        def entry(I, J, q):
            terms = weight_terms(I, restriction_point(J, q), q, ctx)
            return sum(terms), max(abs(t) for t in terms)

        p = random_parameter_point(n, rng, ctx)
        res = mirror_residual(p, ctx)
        for i, I in enumerate(all_permutations(n)):
            for j, J in enumerate(all_permutations(n)):
                lhs, s1 = entry(I, J, p)
                rhs, s2 = entry(mirror_index(J), mirror_index(I), kappa_substitute(p))
                assert res[i, j] == relative_residual(
                    lhs, global_sign(n) * rhs, scale=max(s1, s2))

    def test_one_call_builds_two_matrices(self, ctx, rng, monkeypatch):
        calls = []
        sweep = mirror.direct_entries
        monkeypatch.setattr(mirror, "direct_entries",
                            lambda *a: calls.append(a[0]) or sweep(*a))
        p = random_parameter_point(3, rng, ctx)
        mirror_residual(p, ctx)
        assert calls == [p, kappa_substitute(p)]

    def test_n3_nontrivial_pairings(self, ctx, rng):
        # the three index pairs whose identities are genuinely two-term
        p = random_parameter_point(3, rng, ctx)
        pk = kappa_substitute(p)
        ident = Permutation.identity(3)
        cases = [
            ((3, 1, 2), (1, 2, 3), (3, 2, 1), (2, 1, 3)),
            ((3, 2, 1), (2, 1, 3), (2, 3, 1), (1, 2, 3)),
            ((3, 2, 1), (1, 2, 3), (3, 2, 1), (1, 2, 3)),
        ]
        for iw, jw, riw, rjw in cases:
            I, J = Permutation(iw), Permutation(jw)
            assert mirror_index(J).word == riw
            assert mirror_index(I).word == rjw
            lhs = A_direct(ident, I, J, p, ctx)
            rhs = -A_direct(ident, Permutation(riw), Permutation(rjw), pk, ctx)
            assert abs(lhs) > 1e-6          # genuinely nonzero content
            assert abs(lhs - rhs) < ctx.tol * (abs(lhs) + abs(rhs))


class TestInterface:
    def test_n1_trivial(self, ctx):
        from ellweights import ChernPoint
        p = ParameterPoint(log_z=(0.4,), log_mu=(0.8,), log_h=0.15)
        t = ChernPoint(())
        v = DualityInterface(p, ctx).value(t, t)
        # n = 1: single term A^{-1} W W with every factor equal to 1
        assert abs(v - 1.0) < 1e-14

    @pytest.mark.parametrize("n", [2, 3])
    def test_interpolation_both_slots(self, n, ctx, rng):
        p = random_parameter_point(n, rng, ctx)
        iface = DualityInterface(p, ctx)
        t = random_chern_point(n, rng)
        tp = random_chern_point(n, rng)
        r1, r2 = interpolation_residuals(iface, t, tp)
        assert r1.shape == r2.shape == (len(all_permutations(n)),)
        assert (r1 < ctx.tol).all()
        assert (r2 < ctx.tol).all()

    @pytest.mark.parametrize("n, tol, seed, points", [
        (2, 1e-8, 402, 3), (3, 1e-8, 403, 3), (4, 1e-6, N4_SEED, 1)],
        ids=["n2", "n3", "n4"])
    def test_arrays_equal_the_per_index_oracle(self, n, tol, seed, points):
        # each I on its own: two double sums, each over 2 n! weight
        # functions, against W_I(t) and sgn * W_{I o sigma_0}(t')
        ctx = ThetaContext.create(q=0.3, tol=tol)
        rng = np.random.default_rng(seed)
        order, sgn = all_permutations(n), global_sign(n)
        for _ in range(points):
            p = random_parameter_point(n, rng, ctx)
            pk = kappa_substitute(p)
            t, tp = random_chern_point(n, rng), random_chern_point(n, rng)
            inv = np.linalg.inv(build_A_direct(Permutation.identity(n), p, ctx).entries)

            def value(t1, t2):
                w1 = [W(J, t1, p, ctx) for J in order]
                w2 = [W(mirror_index(K), t2, pk, ctx) for K in order]
                total = 0.0 + 0j
                for i in range(len(order)):
                    for j in range(len(order)):
                        total += inv[i, j] * w1[j] * w2[i]
                return sgn * total

            dual = ParameterPoint(log_z=p.log_mu, log_mu=p.log_mu, log_h=p.log_h)
            r1, r2 = interpolation_residuals(DualityInterface(p, ctx), t, tp)
            for c, I in enumerate(order):
                lhs1 = value(t, restriction_point(I.inverse(), dual))
                lhs2 = value(restriction_point(I.inverse(), p), tp)
                rhs2 = sgn * W(compose(I, Permutation.longest(n)), tp, pk, ctx)
                assert r1[c] == relative_residual(lhs1, W(I, t, p, ctx))
                assert r2[c] == relative_residual(lhs2, rhs2)

    @pytest.mark.parametrize("n, tol, seed, per_point", [
        (3, 1e-8, 403, 48), (4, 1e-6, N4_SEED, 624)], ids=["n3", "n4"])
    def test_weight_function_count_per_point(self, n, tol, seed, per_point,
                                             monkeypatch):
        # 2 n! slot weight functions and the n! x n! dual-slot matrix of the
        # first identity; the second identity reads the held matrix
        ctx = ThetaContext.create(q=0.3, tol=tol)
        rng = np.random.default_rng(seed)
        calls = []
        real = mirror.W
        monkeypatch.setattr(mirror, "W", lambda *a: calls.append(a[0]) or real(*a))
        p = random_parameter_point(n, rng, ctx)
        iface = DualityInterface(p, ctx)
        t = random_chern_point(n, rng)
        interpolation_residuals(iface, t, random_chern_point(n, rng))
        assert len(calls) == per_point
        calls.clear()
        iface.value(t, t)
        assert len(calls) == 2 * len(all_permutations(n))

    def test_condition_guard(self, rng, monkeypatch):
        # with tol = 1 the guard 1/tol is below any realistic condition
        # number, and it trips before any weight function is evaluated
        strict = ThetaContext.create(q=0.3, tol=1.0)
        calls = []
        real = mirror.W
        monkeypatch.setattr(mirror, "W", lambda *a: calls.append(a[0]) or real(*a))
        p = random_parameter_point(2, rng, strict)
        t = random_chern_point(2, rng)
        with pytest.raises(IllConditionedError):
            DualityInterface(p, strict).value(t, t)
        with pytest.raises(IllConditionedError):
            interpolation_residuals(DualityInterface(p, strict), t, t)
        assert calls == []
