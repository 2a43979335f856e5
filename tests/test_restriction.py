"""Restriction matrix: direct build, triangularity, diagonal, serialization."""

import json

import numpy as np
import pytest

from ellweights import (A_diagonal, A_direct, ChernPoint, ParameterPoint,
                        Permutation, PoleError, all_permutations, bruhat_leq,
                        build_A_direct, compose_values,
                        mirror_index, P, random_parameter_point,
                        restriction_point, theta, ThetaContext, W,
                        weight_terms)
from ellweights import restriction, weightfn

EPS = np.finfo(float).eps


def rel(a, b):
    return abs(a - b) / (abs(a) + abs(b) + 1e-300)


def n2_matrix_closed(p, ctx):
    """Hand-coded 2x2 restriction matrix in the order id, (2,1)."""
    lz, lmu, lh = p.log_z, p.log_mu, p.log_h
    th = lambda w: theta(ctx, w)
    return np.array([
        [th(lh + lmu[1] - lmu[0]) * th(lz[1] - lz[0]), 0.0],
        [th(lh) * th(lz[1] + lmu[1] - lz[0] - lmu[0]),
         th(lh + lz[0] - lz[1]) * th(lmu[1] - lmu[0])],
    ], dtype=complex)


def n3_golden_entry(p, ctx):
    """Hand-coded two-term closed form of the entry at row (3,2,1),
    column identity."""
    lz, lmu, lh = p.log_z, p.log_mu, p.log_h
    th = lambda w: theta(ctx, w)
    first = -(th(lh) ** 3 * th(lz[0] + lmu[0] - lz[1] - lmu[1])
              * th(lz[0] + lmu[1] - lz[1] - lmu[2]) * th(lz[0] - lz[2])
              * th(lz[1] + lmu[0] - lz[2] - lmu[2])) / th(lz[0] - lz[1])
    second = (th(lh) * th(lh + lz[0] - lz[1]) * th(lmu[0] - lmu[1])
              * th(lz[1] - lz[2]) * th(lmu[1] - lmu[2])
              * th(lz[0] + lmu[0] - lz[2] - lmu[2]) * th(lh + lz[1] - lz[0])) \
        / th(lz[0] - lz[1])
    return first + second


class TestRestrictionPoint:
    def test_identity_levels(self, ctx, rng):
        p = random_parameter_point(4, rng, ctx)
        t = restriction_point(Permutation.identity(4), p)
        for k in range(1, 4):
            assert t.levels[k - 1] == p.log_z[:k]

    def test_n2_flip(self, ctx, rng):
        p = random_parameter_point(2, rng, ctx)
        t = restriction_point(Permutation((2, 1)), p)
        assert t.levels == ((p.log_z[1],),)

    def test_n3_312(self, ctx, rng):
        p = random_parameter_point(3, rng, ctx)
        t = restriction_point(Permutation((3, 1, 2)), p)
        assert t.levels == ((p.log_z[2],), (p.log_z[0], p.log_z[2]))

    def test_within_level_order_irrelevant(self, ctx, rng):
        # W is level-symmetric, so permuting a restriction level is harmless
        p = random_parameter_point(3, rng, ctx)
        t = restriction_point(Permutation((3, 1, 2)), p)
        perm = ChernPoint((t.levels[0], t.levels[1][::-1]))
        for I in all_permutations(3):
            a = W(I, t, p, ctx)
            b = W(I, perm, p, ctx)
            assert rel(a, b) < ctx.tol


class TestDirectEntries:
    def test_n2_matrix(self, ctx, rng):
        p = random_parameter_point(2, rng, ctx)
        ident = Permutation.identity(2)
        mat = build_A_direct(ident, p, ctx)
        want = n2_matrix_closed(p, ctx)
        assert np.max(np.abs(mat.entries - want)) < 1e-10 * np.max(np.abs(want))

    def test_n2_upper_entry_exact_zero(self, ctx, rng):
        p = random_parameter_point(2, rng, ctx)
        ident = Permutation.identity(2)
        assert A_direct(ident, ident, Permutation((2, 1)), p, ctx) == 0.0

    def test_n3_golden_entry(self, ctx, rng):
        ident = Permutation.identity(3)
        for _ in range(10):
            p = random_parameter_point(3, rng, ctx)
            got = A_direct(ident, Permutation((3, 2, 1)), ident, p, ctx)
            assert rel(got, n3_golden_entry(p, ctx)) < 1e-8

    def test_n1_trivial(self, ctx):
        p = ParameterPoint(log_z=(0.2,), log_mu=(0.4,), log_h=0.1)
        ident = Permutation((1,))
        mat = build_A_direct(ident, p, ctx)
        assert mat.entries.shape == (1, 1)
        assert mat.entries[0, 0] == 1.0


class TestDiagonal:
    def test_n2_entries(self, ctx, rng):
        p = random_parameter_point(2, rng, ctx)
        th = lambda w: theta(ctx, w)
        lz, lmu, lh = p.log_z, p.log_mu, p.log_h
        got_id = A_diagonal(Permutation((1, 2)), p, ctx)
        assert rel(got_id, th(lh + lmu[1] - lmu[0]) * th(lz[1] - lz[0])) < 1e-14
        got_flip = A_diagonal(Permutation((2, 1)), p, ctx)
        assert rel(got_flip, th(lh + lz[0] - lz[1]) * th(lmu[1] - lmu[0])) < 1e-14

    def test_n1(self, ctx):
        p = ParameterPoint(log_z=(0.3,), log_mu=(0.7,), log_h=0.2)
        assert A_diagonal(Permutation((1,)), p, ctx) == 1.0

    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_direct(self, n, ctx, rng):
        ident = Permutation.identity(n)
        p = random_parameter_point(n, rng, ctx)
        for I in all_permutations(n):
            got = A_direct(ident, I, I, p, ctx)
            want = A_diagonal(I, p, ctx)
            assert rel(got, want) < ctx.tol

    @pytest.mark.parametrize("n", [1, 3, 4])
    def test_args_list_what_the_diagonal_reads(self, n, ctx, rng, monkeypatch):
        # the recursions fill their theta table from diagonal_args
        p = random_parameter_point(n, rng, ctx) if n > 1 else ParameterPoint(
            log_z=(0.3,), log_mu=(0.7,), log_h=0.2)
        batched = weightfn.thetas
        for I in all_permutations(n):
            read = []
            want = A_diagonal(I, p, ctx)
            with monkeypatch.context() as m:
                m.setattr(weightfn, "thetas",
                          lambda c, args: read.extend(args) or batched(c, args))
                value = A_diagonal(I, p, ctx)
            assert read == restriction.diagonal_args(I, p)
            assert value == want


class TestTriangularity:
    @pytest.mark.parametrize("n", [2, 3])
    def test_strict_upper_vanishes(self, n, ctx, rng):
        ident = Permutation.identity(n)
        for _ in range(3):
            p = random_parameter_point(n, rng, ctx)
            mat = build_A_direct(ident, p, ctx)
            assert mat.triangularity_violation() < ctx.tol

    def test_observed_zero_support_n3(self, ctx, rng):
        # recorded observation: the 13 strictly-above pairs and all 4
        # Bruhat-incomparable pairs vanish, 17 zeros of 36
        p = random_parameter_point(3, rng, ctx)
        mat = build_A_direct(Permutation.identity(3), p, ctx)
        zeros = mat.zero_pairs(ctx.tol)
        assert len(zeros) == 17
        for I, J in zeros:
            assert not (bruhat_leq(J, I) and I.word != J.word)  # none below diagonal

    def test_array_checks_match_the_pairwise_definitions(self, ctx, rng):
        # a dense matrix, so every strictly-above pair counts: the worst
        # |entry| / (1 + max |row|) over J strictly above I, and the pairs
        # with |entry| < tol (1 + max |row|)
        order = all_permutations(3)
        entries = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        entries[rng.random((6, 6)) < 0.3] *= 1e-9
        mat = restriction.RestrictionMatrix(
            n=3, sigma=Permutation.identity(3), order=order, entries=entries,
            provenance="test", point=random_parameter_point(3, rng, ctx))
        worst, zeros = 0.0, []
        for i, I in enumerate(order):
            scale = 1.0 + max(abs(v) for v in entries[i])
            for j, J in enumerate(order):
                if I != J and bruhat_leq(I, J):
                    worst = max(worst, abs(entries[i, j]) / scale)
                if abs(entries[i, j]) < 1e-8 * scale:
                    zeros.append((I, J))
        assert worst > 0.0
        assert mat.triangularity_violation() == pytest.approx(worst, rel=1e-15)
        assert zeros and mat.zero_pairs(1e-8) == zeros

    def test_holomorphy_smoke(self, ctx, rng):
        # individual summands blow up as z1 -> z2 but the entry stays bounded
        base = random_parameter_point(3, rng, ctx)
        ident = Permutation.identity(3)
        I, J = Permutation((3, 2, 1)), ident
        vals = []
        for eps in (1e-3, 1e-4):
            p = ParameterPoint(
                log_z=(base.log_z[0], base.log_z[0] + eps, base.log_z[2]),
                log_mu=base.log_mu, log_h=base.log_h)
            vals.append(A_direct(ident, I, J, p, ctx))
        far = ParameterPoint(
            log_z=(base.log_z[0], base.log_z[0] + 0.5, base.log_z[2]),
            log_mu=base.log_mu, log_h=base.log_h)
        scale = abs(A_direct(ident, I, J, far, ctx)) + 1.0
        for v in vals:
            assert np.isfinite(v)
            assert abs(v) < 1e3 * scale


def ao_normalization_factor(sigma, I, p, ctx):
    """Scalar relating the holomorphic normalization to the one whose
    diagonal is the bare z-side product at the value-wise index
    sigma^{-1} o I with z slots permuted by sigma."""
    K = compose_values(sigma.inverse(), I)
    return K.sign() * P(mirror_index(K), p.log_mu[::-1], p, ctx)


class TestAONormalization:
    @pytest.mark.parametrize("n", [2, 3])
    def test_quotient_recovers_bare_diagonal(self, n, ctx, rng):
        p = random_parameter_point(n, rng, ctx)
        for sigma in all_permutations(n):
            for I in all_permutations(n):
                q = A_direct(sigma, I, I, p, ctx) \
                    / ao_normalization_factor(sigma, I, p, ctx)
                K = compose_values(sigma.inverse(), I)
                want = P(K, p.permute_z(sigma).log_z, p, ctx)
                assert rel(q, want) < ctx.tol

    def test_n1(self, ctx):
        # the factor and the diagonal entry are both the empty product
        p = ParameterPoint(log_z=(0.3,), log_mu=(0.7,), log_h=0.2)
        ident = Permutation((1,))
        assert ao_normalization_factor(ident, ident, p, ctx) == 1.0
        assert A_direct(ident, ident, ident, p, ctx) == 1.0


class TestChambers:
    CONTEXTS = [(0.3, None), (0.5j, 120)]

    @staticmethod
    def per_entry(sigma, p, ctx):
        order = all_permutations(p.n)
        return np.array([[A_direct(sigma, I, J, p, ctx) for J in order]
                         for I in order])

    @pytest.mark.parametrize("q, trunc", CONTEXTS)
    @pytest.mark.parametrize("n", [2, 3])
    def test_relabeled_sweep_is_the_definition(self, n, q, trunc):
        # W is level-symmetric, so the relabeled identity-chamber sweep at
        # the permuted point reads the very terms A_direct sums, in order
        ctx = ThetaContext.create(q=q, trunc=trunc)
        p = random_parameter_point(n, np.random.default_rng(n), ctx)
        for sigma in all_permutations(n):
            got = build_A_direct(sigma, p, ctx)
            assert got.sigma == sigma and got.point == p
            assert got.entries.tobytes() == self.per_entry(sigma, p, ctx).tobytes()

    @pytest.mark.parametrize("q, trunc", CONTEXTS)
    def test_n4_chambers_within_term_rounding(self, q, trunc):
        # at n = 4 the level sums may add their terms in another order: each
        # entry lies within 12 eps of the sum of its term moduli (measured
        # at most 0.72 eps at default_rng(1))
        ctx = ThetaContext.create(q=q, trunc=trunc)
        p = random_parameter_point(4, np.random.default_rng(1), ctx)
        order = all_permutations(4)
        for sigma in (Permutation((2, 1, 3, 4)), Permutation((2, 3, 4, 1))):
            got = build_A_direct(sigma, p, ctx).entries
            want = self.per_entry(sigma, p, ctx)
            size = np.array([[sum(map(abs, weight_terms(
                compose_values(sigma.inverse(), I), restriction_point(J, p),
                p.permute_z(sigma), ctx))) for J in order] for I in order])
            assert (np.abs(got - want) <= 12 * EPS * size).all()


class TestMatrixObject:
    def test_json_round_trip(self, ctx, rng):
        # the JSON form holds every entry, index and the point exactly
        p = random_parameter_point(2, rng, ctx)
        mat = build_A_direct(Permutation.identity(2), p, ctx)
        data = json.loads(json.dumps(mat.to_json_dict()))
        assert data["n"] == mat.n
        assert data["sigma"] == [1, 2]
        assert [Permutation(tuple(w)) for w in data["order"]] == list(mat.order)
        assert data["provenance"] == "direct"
        entries = np.array([[complex(*v) for v in row] for row in data["entries"]])
        assert np.array_equal(entries, mat.entries)
        assert data["point"] == mat.point.to_json()

    def test_csv_shape(self, ctx, rng):
        p = random_parameter_point(2, rng, ctx)
        mat = build_A_direct(Permutation.identity(2), p, ctx)
        lines = restriction.moduli_csv(mat.to_json_dict()).strip().split("\n")
        assert len(lines) == 3
        assert lines[0].startswith("|A|,12,21")

    def test_max_deviation_self(self, ctx, rng):
        p = random_parameter_point(2, rng, ctx)
        mat = build_A_direct(Permutation.identity(2), p, ctx)
        assert mat.max_deviation(mat) == 0.0

    def test_entry_lookup(self, ctx, rng):
        p = random_parameter_point(2, rng, ctx)
        mat = build_A_direct(Permutation.identity(2), p, ctx)
        flip = Permutation((2, 1))
        assert mat.entry(flip, flip) == mat.entries[1, 1]

    def test_unevaluable_entries_aggregate(self, ctx, rng):
        # coinciding z values put exact zeros in restriction denominators;
        # the first failing entry stops the sweep with its own error type
        base = random_parameter_point(3, rng, ctx)
        bad = ParameterPoint(log_z=(base.log_z[0], base.log_z[0], base.log_z[2]),
                             log_mu=base.log_mu, log_h=base.log_h)
        with pytest.raises(PoleError, match=r"entry \(\(1, 2, 3\), "):
            build_A_direct(Permutation.identity(3), bad, ctx)

    def test_near_coincident_z_raises(self, ctx):
        # z_2 = z_1 + 1e-13 gives a restriction denominator of modulus
        # ~1e-14: the pole guard must stop the build rather than return
        # entries dominated by cancellation error
        base = random_parameter_point(3, np.random.default_rng(3), ctx)
        near = ParameterPoint(
            log_z=(base.log_z[0], base.log_z[0] + 1e-13, base.log_z[2]),
            log_mu=base.log_mu, log_h=base.log_h)
        with pytest.raises(PoleError, match="denominator theta vanished"):
            build_A_direct(Permutation.identity(3), near, ctx)
