"""Weight functions against the closed low-rank forms and their symmetries."""

import itertools
import json

import numpy as np
import pytest

from ellweights import (A_diagonal, ChernPoint, EvaluationError, P, ParameterPoint,
                        Permutation, PoleError, RangeError, ThetaContext, U,
                        W, W_sigma, all_permutations, build_A_by_dual_recursion,
                        build_A_by_R_recursion, build_A_direct,
                        compose, compose_values, fixed_point_tables,
                        is_generic, psi, random_chern_point,
                        random_parameter_point, restriction,
                        restriction_point, theta, weight_terms, weightfn)


def rel(a, b):
    return abs(a - b) / (abs(a) + abs(b) + 1e-300)


def _untabled(monkeypatch):
    # every term of a weight_terms call is the per-term oracle U at its own
    # Chern point, evaluating its own thetas with no table
    def per_term(I, t, p, ctx):
        return [U(I, ChernPoint(levels), p, ctx) for levels in
                itertools.product(*map(itertools.permutations, t.levels))]

    for module in (weightfn, restriction):
        monkeypatch.setattr(module, "weight_terms", per_term)


def w2_closed(I, t, p, ctx):
    """Closed n=2 forms of the weight functions."""
    lz, lmu, lh = p.log_z, p.log_mu, p.log_h
    if I.word == (1, 2):
        return theta(ctx, lh + lz[0] + lmu[1] - t - lmu[0]) * theta(ctx, lz[1] - t)
    return theta(ctx, lh + lz[0] - t) * theta(ctx, lz[1] + lmu[1] - t - lmu[0])


def w321_closed(t, p, ctx):
    """Two-term n=3 closed form of the longest weight function."""
    lz, lmu, lh = p.log_z, p.log_mu, p.log_h
    th = lambda w: theta(ctx, w)

    def term(t1, t2, t11):
        num = (th(lh + t1 - t11) * th(t2 + lmu[1] - t11 - lmu[0])
               * th(lh + lz[0] - t1) * th(lz[1] + lmu[2] - t1 - lmu[1])
               * th(lz[2] - t1) * th(lh + lz[0] - t2) * th(lh + lz[1] - t2)
               * th(lz[2] + lmu[2] - t2 - lmu[0]))
        return num / (th(lh + t1 - t2) * th(t2 - t1))

    t11 = t.levels[0][0]
    t1, t2 = t.levels[1]
    return term(t1, t2, t11) + term(t2, t1, t11)


class TestPsi:
    def test_equal_branch_identity(self, ctx, rng):
        p = random_parameter_point(2, rng, ctx)
        lx = 0.21 - 0.4j
        got = psi(Permutation((1, 2)), 1, 1, 1, lx, p, ctx)
        want = theta(ctx, lx + p.log_h + p.log_mu[1] - p.log_mu[0])
        assert got == want

    def test_greater_branch(self, ctx, rng):
        p = random_parameter_point(2, rng, ctx)
        lx = -0.4 + 0.9j
        assert psi(Permutation((1, 2)), 1, 1, 2, lx, p, ctx) == theta(ctx, lx)

    def test_less_branch(self, ctx, rng):
        p = random_parameter_point(2, rng, ctx)
        lx = 0.15 + 0.2j
        got = psi(Permutation((2, 1)), 1, 1, 1, lx, p, ctx)
        assert got == theta(ctx, p.log_h + lx)

    def test_equal_branch_drops_hbar(self, ctx, rng):
        # value 2 already passed: exponent collapses to zero
        p = random_parameter_point(2, rng, ctx)
        lx = 0.15 + 0.2j
        got = psi(Permutation((2, 1)), 1, 1, 2, lx, p, ctx)
        assert got == theta(ctx, lx + p.log_mu[1] - p.log_mu[0])

    def test_exactly_one_equal_branch_per_level_pair(self, ctx, rng):
        p = random_parameter_point(3, rng, ctx)
        for I in all_permutations(3):
            tab = fixed_point_tables(I)
            for k in (1, 2):
                for a in range(1, k + 1):
                    hits = sum(1 for c in range(1, k + 2)
                               if tab[k][c - 1] == tab[k - 1][a - 1])
                    assert hits == 1

    def test_index_range(self, ctx, rng):
        p = random_parameter_point(2, rng, ctx)
        with pytest.raises(ValueError):
            psi(Permutation((1, 2)), 1, 1, 3, 0.1, p, ctx)


class TestU:
    def test_n1_empty_product(self, ctx):
        p = ParameterPoint(log_z=(0.3,), log_mu=(0.1,), log_h=0.2)
        t = ChernPoint(())
        assert U(Permutation((1,)), t, p, ctx) == 1.0

    def test_n2_is_two_theta_product(self, ctx, rng):
        p = random_parameter_point(2, rng, ctx)
        t = random_chern_point(2, rng)
        for I in all_permutations(2):
            assert rel(U(I, t, p, ctx), w2_closed(I, t.levels[0][0], p, ctx)) < 1e-14

    def test_n3_longest_first_summand(self, ctx, rng):
        p = random_parameter_point(3, rng, ctx)
        t = random_chern_point(3, rng)
        lz, lmu, lh = p.log_z, p.log_mu, p.log_h
        th = lambda w: theta(ctx, w)
        t11 = t.levels[0][0]
        t1, t2 = t.levels[1]
        want = (th(lh + t1 - t11) * th(t2 + lmu[1] - t11 - lmu[0])
                * th(lh + lz[0] - t1) * th(lz[1] + lmu[2] - t1 - lmu[1])
                * th(lz[2] - t1) * th(lh + lz[0] - t2) * th(lh + lz[1] - t2)
                * th(lz[2] + lmu[2] - t2 - lmu[0])) \
            / (th(lh + t1 - t2) * th(t2 - t1))
        assert rel(U(Permutation((3, 2, 1)), t, p, ctx), want) < 1e-13

    def test_pole_error_on_colliding_level(self, ctx, rng):
        p = random_parameter_point(3, rng, ctx)
        v = 0.25 + 0.5j
        t = ChernPoint(((0.1 + 0.2j,), (v, v)))   # theta(t2/t1) = theta(1) = 0
        with pytest.raises(PoleError):
            U(Permutation((3, 2, 1)), t, p, ctx)
        with pytest.raises(PoleError):
            W(Permutation((3, 2, 1)), t, p, ctx)   # propagates through the sum


def psi_rule(I, k, a, c, lx, p, ctx):
    """psi by its case rule written out over the ordered index sets."""
    ordered = fixed_point_tables(I)
    ia, ic = ordered[k - 1][a - 1], ordered[k][c - 1]
    if ic < ia:
        return theta(ctx, p.log_h + lx)
    if ic > ia:
        return theta(ctx, lx)
    exp_h = 1 - (1 if I.word[k] < ia else 0)   # 1 - p(I_{k+1} < i_a)
    j = I.word.index(ia) + 1                   # I_j = i_a
    return theta(ctx, lx + exp_h * p.log_h + p.mu(k + 1) - p.mu(j))


def u_product(I, t, p, ctx):
    """U as the explicit product of psi factors over the level-internal
    denominator pairs, in U's order."""
    levels = list(t.levels) + [p.log_z]
    num = den = 1.0 + 0j
    for k in range(1, len(I)):
        tk, tk1 = levels[k - 1], levels[k]
        for a in range(1, k + 1):
            for c in range(1, k + 2):
                num *= psi(I, k, a, c, tk1[c - 1] - tk[a - 1], p, ctx)
        for a in range(1, k + 1):
            for b in range(a + 1, k + 1):
                den *= (theta(ctx, tk[a - 1] + p.log_h - tk[b - 1])
                        * theta(ctx, tk[b - 1] - tk[a - 1]))
    return num / den


class TestCaseTable:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_psi_equals_the_case_rule(self, n, ctx):
        # every slot (k, a, c) of every index reads the argument of the rule
        rng = np.random.default_rng(n)
        p = random_parameter_point(n, rng, ctx)
        for I in all_permutations(n):
            for k in range(1, n):
                for a in range(1, k + 1):
                    for c in range(1, k + 2):
                        lx = complex(*rng.uniform(-1.0, 1.0, 2))
                        want = psi_rule(I, k, a, c, lx, p, ctx)
                        assert psi(I, k, a, c, lx, p, ctx) == want

    @pytest.mark.parametrize("n", [3, 4])
    def test_U_equals_its_psi_product(self, n, ctx):
        # at a random Chern point and at every restriction point, where
        # most terms are exact zeros
        rng = np.random.default_rng(n)
        p = random_parameter_point(n, rng, ctx)
        order = all_permutations(n)
        points = [random_chern_point(n, rng)] + [restriction_point(J, p) for J in order]
        for I in order:
            for t in points:
                assert U(I, t, p, ctx) == u_product(I, t, p, ctx)


class TestW:
    def test_n2_closed_forms(self, ctx, rng):
        p = random_parameter_point(2, rng, ctx)
        t = random_chern_point(2, rng)
        for I in all_permutations(2):
            assert rel(W(I, t, p, ctx), w2_closed(I, t.levels[0][0], p, ctx)) < 1e-14

    def test_n3_longest_two_term_display(self, ctx, rng):
        p = random_parameter_point(3, rng, ctx)
        t = random_chern_point(3, rng)
        assert rel(W(Permutation((3, 2, 1)), t, p, ctx), w321_closed(t, p, ctx)) < 1e-13

    def test_level_symmetry(self, ctx, rng):
        p = random_parameter_point(3, rng, ctx)
        t = random_chern_point(3, rng)
        swapped = ChernPoint((t.levels[0], t.levels[1][::-1]))
        for I in all_permutations(3):
            a, b = W(I, t, p, ctx), W(I, swapped, p, ctx)
            assert rel(a, b) < ctx.tol

    def test_term_count(self, ctx, rng):
        p = random_parameter_point(4, rng, ctx)
        t = random_chern_point(4, rng)
        terms = weight_terms(Permutation((1, 2, 3, 4)), t, p, ctx)
        assert len(terms) == 12   # 1! * 2! * 3!

    def test_finite_at_q_to_zero(self, rng):
        tiny = ThetaContext.create(q=1e-30)
        p = random_parameter_point(3, rng, tiny)
        t = random_chern_point(3, rng)
        for I in all_permutations(3):
            assert np.isfinite(W(I, t, p, tiny)).all()


class TestThetaTable:
    @pytest.mark.parametrize("q", [0.3, 0.5j])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_terms_and_matrices_bit_identical(self, n, q, monkeypatch):
        # the per-call table changes no bit of any term or entry, the sign
        # of zero included (+0j and -0j keys compare equal); the terms at a
        # restriction point are mostly zero
        ctx = ThetaContext.create(q=q)
        rng = np.random.default_rng(n)
        p = random_parameter_point(n, rng, ctx)
        ident = Permutation.identity(n)
        points = [random_chern_point(n, rng), restriction_point(ident, p)]
        cycle = Permutation(tuple(range(2, n + 1)) + (1,))
        sigmas = [ident, cycle] if n < 4 else [ident if q == 0.3 else cycle]
        order = all_permutations(n)

        def outputs():
            # through the module, so that _untabled's oracle is what runs
            terms = [np.array(weightfn.weight_terms(I, t, p, ctx)).tobytes()
                     for I in order for t in points]
            return terms, [build_A_direct(s, p, ctx).entries.tobytes()
                           for s in sigmas]

        tabled = outputs()
        _untabled(monkeypatch)
        assert outputs() == tabled

    def test_each_theta_evaluated_once_per_call(self, ctx, monkeypatch):
        # one n=4 direct build reads 164 distinct theta arguments; each of
        # its 576 weight_terms calls evaluates each of its own once, and no
        # value carries over from one call to the next
        p = random_parameter_point(4, np.random.default_rng(1), ctx)
        args = []
        plain = weightfn.theta

        def counted(c, lx):
            args.append(lx)
            return plain(c, lx)

        monkeypatch.setattr(weightfn, "theta", counted)
        build_A_direct(Permutation.identity(4), p, ctx)
        assert (len(args), len(set(args))) == (22_536, 164)
        I, t = Permutation.longest(4), restriction_point(Permutation.identity(4), p)
        args.clear()
        weight_terms(I, t, p, ctx)
        once = len(args)
        assert once == len(set(args))
        weight_terms(I, t, p, ctx)
        assert len(args) == 2 * once

    def test_errors_unchanged(self, ctx, rng, monkeypatch):
        p = random_parameter_point(3, rng, ctx)
        I = Permutation((3, 2, 1))
        v = 0.25 + 0.5j
        pole = ChernPoint(((0.1 + 0.2j,), (v, v)))          # theta(1) = 0
        far = ChernPoint(((40.0 + 0j,), (0.1, 0.2)))       # |Re log x| > 32
        bad = ParameterPoint(log_z=(p.log_z[0], p.log_z[0], p.log_z[2]),
                             log_mu=p.log_mu, log_h=p.log_h)

        def errors():
            out = []
            for call in (lambda: W(I, pole, p, ctx), lambda: W(I, far, p, ctx),
                         lambda: build_A_direct(Permutation.identity(3), bad, ctx)):
                with pytest.raises(EvaluationError) as info:
                    call()
                out.append((type(info.value), str(info.value)))
            return out

        tabled = errors()
        assert [e for e, _ in tabled] == [PoleError, RangeError, PoleError]
        assert tabled[2][1].startswith("entry ((1, 2, 3), ")
        _untabled(monkeypatch)
        assert errors() == tabled

    def test_raising_theta_not_stored(self, ctx, rng, monkeypatch):
        p = random_parameter_point(3, rng, ctx)
        far = ChernPoint(((40.0 + 0j,), (0.1, 0.2)))
        raised = []
        plain = weightfn.theta

        def counted(c, lx):
            try:
                return plain(c, lx)
            except RangeError:
                raised.append(lx)
                raise

        monkeypatch.setattr(weightfn, "theta", counted)
        for _ in range(2):
            with pytest.raises(RangeError):
                weight_terms(Permutation((3, 2, 1)), far, p, ctx)
        assert len(raised) == 2 and raised[0] == raised[1]


class TestWSigma:
    def test_identity_sigma(self, ctx, rng):
        p = random_parameter_point(3, rng, ctx)
        t = random_chern_point(3, rng)
        e = Permutation.identity(3)
        for I in all_permutations(3):
            assert W_sigma(e, I, t, p, ctx) == W(I, t, p, ctx)

    def test_longest_sigma_n2_substitution(self, ctx, rng):
        # W_{sigma0,(1,2)} equals W_{(2,1)} with the z slots exchanged
        p = random_parameter_point(2, rng, ctx)
        t = random_chern_point(2, rng)
        s0 = Permutation.longest(2)
        got = W_sigma(s0, Permutation((1, 2)), t, p, ctx)
        want = W(Permutation((2, 1)), t, p.permute_z(s0), ctx)
        assert got == want

    def test_double_longest_round_trip(self, ctx, rng):
        # with z already reversed, the twist by sigma0 at the twisted index
        # recovers the plain weight function
        p = random_parameter_point(3, rng, ctx)
        t = random_chern_point(3, rng)
        s0 = Permutation.longest(3)
        for I in all_permutations(3):
            got = W_sigma(s0, compose_values(s0, I), t, p.permute_z(s0), ctx)
            assert rel(got, W(I, t, p, ctx)) < 1e-14


class TestP:
    def test_n1_empty(self, ctx):
        p = ParameterPoint(log_z=(0.1,), log_mu=(0.2,), log_h=0.3)
        assert P(Permutation((1,)), p.log_z, p, ctx) == 1.0

    def test_n2_identity(self, ctx, rng):
        p = random_parameter_point(2, rng, ctx)
        got = P(Permutation((1, 2)), p.log_z, p, ctx)
        assert got == theta(ctx, p.log_z[1] - p.log_z[0])

    def test_n2_flip(self, ctx, rng):
        p = random_parameter_point(2, rng, ctx)
        got = P(Permutation((2, 1)), p.log_z, p, ctx)
        assert got == theta(ctx, p.log_h + p.log_z[0] - p.log_z[1])

    @pytest.mark.parametrize("n", [3, 4])
    def test_inversion_reflection_symmetry(self, n, ctx, rng):
        s0 = Permutation.longest(n)
        for _ in range(10 if n == 4 else 5):
            p = random_parameter_point(n, rng, ctx)
            args = tuple(-v for v in p.log_z[::-1])
            for I in all_permutations(n):
                K = compose(compose(s0, I), s0)
                assert rel(P(K, args, p, ctx), P(I, p.log_z, p, ctx)) < ctx.tol


class TestParameterPoint:
    def test_json_round_trip(self, ctx, rng):
        p = random_parameter_point(3, rng, ctx)
        data = json.loads(json.dumps(p.to_json()))
        back = ParameterPoint(log_z=[complex(*v) for v in data["log_z"]],
                              log_mu=[complex(*v) for v in data["log_mu"]],
                              log_h=complex(*data["log_h"]))
        assert back == p

    def test_permute_z(self, rng, ctx):
        p = random_parameter_point(3, rng, ctx)
        s0 = Permutation.longest(3)
        assert p.permute_z(s0).log_z == p.log_z[::-1]
        s1 = Permutation.identity(3).pos_swap(1)
        assert p.permute_z(s1).log_z == (p.log_z[1], p.log_z[0], p.log_z[2])
        assert p.permute_z(s1).permute_z(s1) == p
        assert p.permute_z(s1).log_mu == p.log_mu

    def test_permute_mu(self, rng, ctx):
        p = random_parameter_point(3, rng, ctx)
        s2 = Permutation.identity(3).pos_swap(2)
        assert p.permute_mu(s2).log_mu == (p.log_mu[0], p.log_mu[2], p.log_mu[1])
        assert p.permute_mu(s2).permute_mu(s2) == p
        assert p.permute_mu(s2).log_z == p.log_z

    def test_genericity(self, ctx, rng):
        p = random_parameter_point(3, rng, ctx)
        assert is_generic(p, ctx)
        bad = ParameterPoint(log_z=(0.1, 0.1, 0.4), log_mu=p.log_mu, log_h=p.log_h)
        assert not is_generic(bad, ctx)

    def test_other_number_types_kept_as_given(self, ctx, rng, monkeypatch):
        # int, float and complex logs (numpy's float64 and complex128 among
        # them) become complex, so double points and their outputs stay as
        # they were; any other number is kept, so a point of mpmath logs
        # evaluates at its own precision through a wide theta
        mpmath = pytest.importorskip("mpmath")
        p = random_parameter_point(3, rng, ctx)
        same = ParameterPoint(log_z=tuple(map(np.complex128, p.log_z)),
                              log_mu=p.log_mu, log_h=p.log_h)
        assert all(type(v) is complex for v in same.log_z)
        assert build_A_by_R_recursion(same, ctx).entries.tobytes() == \
            build_A_by_R_recursion(p, ctx).entries.tobytes()
        plain = ParameterPoint(log_z=(1, np.float64(0.5)), log_mu=(0.25, 2j), log_h=0)
        assert plain.log_z == (1 + 0j, 0.5 + 0j)
        logs = plain.log_z + plain.log_mu + (plain.log_h,)
        assert {type(v) for v in logs} == {complex}
        with mpmath.workdps(30):
            wide = ParameterPoint(log_z=tuple(map(mpmath.mpc, p.log_z)),
                                  log_mu=tuple(map(mpmath.mpc, p.log_mu)),
                                  log_h=mpmath.mpc(p.log_h))
            logs = wide.log_z + wide.log_mu + (wide.log_h,)
            assert {type(v) for v in logs} == {mpmath.mpc}
            q = mpmath.mpf(0.3)

            def th(lx):
                x = mpmath.exp(lx)
                return ((mpmath.exp(lx / 2) - mpmath.exp(-lx / 2))
                        * mpmath.qp(q * x, q) * mpmath.qp(q / x, q))

            want = [A_diagonal(I, p, ctx) for I in all_permutations(3)]
            monkeypatch.setattr(weightfn, "theta", lambda c, lx: th(lx))
            for I, double in zip(all_permutations(3), want):
                value = A_diagonal(I, wide, ctx)
                assert type(value) is mpmath.mpc
                assert abs(value - double) < 1e-13 * abs(value)

    def test_numpy_scalar_logs_become_complex(self, ctx):
        # numpy ints and float32 are not Python numbers, but they are numbers
        # of double precision or less: the point holds them as complex, so
        # it serializes and builds as the same point of Python numbers
        odd = ParameterPoint(log_z=(np.int64(1), np.int64(0)),
                             log_mu=(np.float32(0.25), 0.5), log_h=np.int32(0))
        data = json.loads(json.dumps(odd.to_json()))
        assert data == {"log_z": [[1.0, 0.0], [0.0, 0.0]],
                        "log_mu": [[0.25, 0.0], [0.5, 0.0]], "log_h": [0.0, 0.0]}
        assert odd == ParameterPoint(log_z=(1, 0), log_mu=(0.25, 0.5), log_h=0)
        p = ParameterPoint(log_z=(np.int64(1), np.int64(-2), np.int64(0)),
                           log_mu=(np.float32(0.25), np.float32(-0.625), 0.5 + 0.3j),
                           log_h=np.float32(0.375))
        plain = ParameterPoint(log_z=(1, -2, 0), log_mu=(0.25, -0.625, 0.5 + 0.3j),
                               log_h=0.375)
        assert is_generic(plain, ctx)
        for build in (build_A_by_R_recursion, build_A_by_dual_recursion):
            assert build(p, ctx, crosscheck=True).entries.tobytes() == \
                build(plain, ctx, crosscheck=True).entries.tobytes()

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            ParameterPoint(log_z=(0.1,), log_mu=(0.1, 0.2), log_h=0.0)

    def test_chern_level_shape(self):
        with pytest.raises(ValueError):
            ChernPoint(((0.1,), (0.2,)))

    def test_chern_levels_kept_as_parameter_point_logs(self):
        # double numbers become complex, as a ParameterPoint's logs do; an
        # mpmath level is kept, so a Chern point evaluates at its precision
        mpmath = pytest.importorskip("mpmath")
        t = ChernPoint(((np.float64(0.5),), (1, 0.25 + 2j)))
        assert t.levels == ((0.5 + 0j,), (1 + 0j, 0.25 + 2j))
        assert {type(v) for lv in t.levels for v in lv} == {complex}
        wide = ChernPoint(((mpmath.mpc(0.5, 1),), (mpmath.mpf(1), np.float32(0.25))))
        assert [type(v) for lv in wide.levels for v in lv] == \
            [mpmath.mpc, mpmath.mpf, complex]
