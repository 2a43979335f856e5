"""Theta core: golden products, functional equations, guards."""

import cmath
import math

import numpy as np
import pytest

from ellweights import ParameterPoint, RangeError, ThetaContext, theta
from ellweights.qtheta import thetas
from ellweights.weightfn import resonance_margin

# Frozen output of an independent truncated-product oracle
# (plain loop over (1 - q^s x), 64 factors, q = 0.1).
THETA_AT_2 = 0.5225651509618828       # theta(x = 2)


@pytest.fixture(scope="module")
def ctx01():
    return ThetaContext(log_q=cmath.log(0.1), trunc=64, tol=1e-8)


class TestGoldenValues:
    def test_theta_at_two(self, ctx01):
        got = theta(ctx01, cmath.log(2.0))
        assert abs(got - THETA_AT_2) < 1e-13 * THETA_AT_2


class TestFunctionalEquations:
    def test_theta_at_one_is_zero(self, ctx):
        assert theta(ctx, 0.0) == 0.0

    def test_oddness(self, ctx, rng):
        worst = 0.0
        for _ in range(1000):
            lx = complex(rng.uniform(-2, 2), rng.uniform(-2 * math.pi, 2 * math.pi))
            tv = theta(ctx, lx)
            worst = max(worst, abs(theta(ctx, -lx) + tv) / (1.0 + abs(tv)))
        assert worst < ctx.tol

    def test_quasi_periodicity(self, ctx, rng):
        # theta(qx)/theta(x) = -1/(q^(1/2) x)
        worst = 0.0
        for _ in range(1000):
            lx = complex(rng.uniform(-2, 2), rng.uniform(-2 * math.pi, 2 * math.pi))
            tv = theta(ctx, lx)
            shift = theta(ctx, ctx.log_q + lx)
            resid = abs(shift + cmath.exp(-ctx.log_q / 2 - lx) * tv)
            worst = max(worst, resid / (1.0 + abs(shift) + abs(tv)))
        assert worst < ctx.tol

    @pytest.mark.parametrize("q", [0.5, 0.3, 0.1])
    def test_truncation_stability(self, q, rng):
        base = ThetaContext.create(q=q)
        double = ThetaContext(log_q=base.log_q, trunc=2 * base.trunc, tol=base.tol)
        for _ in range(50):
            lx = complex(rng.uniform(-2, 2), rng.uniform(-math.pi, math.pi))
            a, b = theta(base, lx), theta(double, lx)
            assert abs(a - b) <= base.tol * (1.0 + abs(a))

    def test_q_to_zero_degeneration(self):
        tiny = ThetaContext.create(q=1e-30)
        for lx in (0.4 + 0.3j, -1.1 + 2.0j, 0.05 - 0.8j):
            want = cmath.exp(lx / 2) - cmath.exp(-lx / 2)
            assert abs(theta(tiny, lx) - want) < 1e-14 * (1 + abs(want))

    def test_determinism(self, ctx):
        lx = 0.123 - 0.456j
        assert theta(ctx, lx) == theta(ctx, lx)


class TestGuardsAndContext:
    def test_overflow_guard(self, ctx):
        with pytest.raises(RangeError):
            theta(ctx, 40.0 + 0j)
        with pytest.raises(RangeError):
            theta(ctx, -40.0 + 1j)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")   # numpy's, at the overflow
    def test_product_out_of_double_range(self):
        # at |q| = 0.999 the 82,852-factor product at x = e^3i overflows to NaN
        near = ThetaContext.create(q=0.999)
        with pytest.raises(RangeError, match=r"log x = 0\+3j, \|q\| = 0\.999") as scalar:
            theta(near, 3j)
        with pytest.raises(RangeError) as batched:
            thetas(near, [3j])
        assert str(batched.value) == str(scalar.value)

    def test_product_underflow_raises(self):
        # at |q| = 0.999 the product at x = e^0.1i or e^0.5 underflows to
        # 0j, which would read as an exact zero of theta
        near = ThetaContext.create(q=0.999)
        for lx, text in ((0.1j, r"0\+0\.1j"), (0.5, r"0\.5\+0j")):
            with pytest.raises(RangeError, match=rf"log x = {text}, \|q\| = 0\.999 is "
                               ".*: its product leaves double range") as scalar:
                theta(near, lx)
            with pytest.raises(RangeError) as batched:
                thetas(near, [lx, 1e-3])
            assert str(batched.value) == str(scalar.value)
        # exact zeros stay: x = 1, and x = 1/q where a factor is 0
        ctx = ThetaContext.create(q=0.3)
        zeros = [0j, -ctx.log_q]
        assert _bits([theta(ctx, lx) for lx in zeros]) == _bits(thetas(ctx, zeros)) \
            == _bits([0j, 0j])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")   # numpy's, at the overflow
    def test_batch_raises_at_its_first_failing_argument(self):
        near = ThetaContext.create(q=0.999)
        for args in ([3j, 0.5], [0.5, 3j]):
            with pytest.raises(RangeError) as scalar:
                [theta(near, lx) for lx in args]
            with pytest.raises(RangeError) as batched:
                thetas(near, args)
            assert str(batched.value) == str(scalar.value)

    def test_q_outside_disk_rejected(self):
        with pytest.raises(ValueError):
            ThetaContext(log_q=0.1, trunc=64)
        with pytest.raises(ValueError):
            ThetaContext.create(q=1.5)

    def test_trunc_too_small_rejected(self):
        with pytest.raises(ValueError):
            ThetaContext(log_q=cmath.log(0.3), trunc=8)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0])
    def test_non_finite_or_non_positive_tol_rejected(self, tol):
        # a NaN tolerance would pass every comparison "residual > tol"
        with pytest.raises(ValueError):
            ThetaContext.create(q=0.3, tol=tol)

    def test_default_trunc(self):
        assert ThetaContext.create(q=0.3).trunc == 69
        assert ThetaContext.create(q=1e-30).trunc == 24


def _bits(values) -> bytes:
    # signed zeros count: 0j and -0j differ here
    return np.array(values, dtype=complex).tobytes()


class TestBatchedTheta:
    @pytest.mark.parametrize("q, trunc", [(0.3, None), (-0.5, None), (0.5j, 120),
                                          (0.9 * cmath.exp(1j * math.pi / 3), None)])
    def test_equals_scalar_theta_bit_for_bit(self, q, trunc):
        ctx = ThetaContext.create(q=q, trunc=trunc)
        rng = np.random.default_rng(11)
        args = [complex(re, im) for re, im in
                zip(rng.uniform(-4, 4, 2000), rng.uniform(-2 * math.pi, 2 * math.pi, 2000))]
        args += [0j, -0j, complex(0.0, -0.0), 4.0 + 0j, -4.0 + 1j]
        assert _bits(thetas(ctx, args)) == _bits([theta(ctx, a) for a in args])

    def test_empty_input(self, ctx):
        assert thetas(ctx, []) == []

    def test_range_guard(self, ctx):
        for bad in (40.0 + 0j, -40.0 + 1j):
            with pytest.raises(RangeError) as scalar:
                theta(ctx, bad)
            with pytest.raises(RangeError) as batched:
                thetas(ctx, [0.1 + 0.2j, bad, 50.0])
            assert str(batched.value) == str(scalar.value)

    @pytest.mark.parametrize("q, trunc", [(0.3, None), (0.5j, 120)])
    def test_resonance_margin_is_the_scalar_minimum(self, q, trunc):
        # the smallest modulus among the same theta denominators, each read
        # by scalar theta
        ctx = ThetaContext.create(q=q, trunc=trunc)
        rng = np.random.default_rng(7)
        for i in range(100):
            n = 2 + i % 4
            p = ParameterPoint(
                log_z=tuple(rng.uniform(-1, 1, n) + 1j * rng.uniform(-3, 3, n)),
                log_mu=tuple(rng.uniform(-1, 1, n) + 1j * rng.uniform(-3, 3, n)),
                log_h=complex(rng.uniform(-1, 1), rng.uniform(-3, 3)))
            want = []
            for a in range(n):
                for b in range(n):
                    if a != b:
                        want.append(abs(theta(ctx, p.log_z[a] - p.log_z[b])))
                        want.append(abs(theta(ctx, p.log_mu[a] - p.log_mu[b])))
                    want.append(abs(theta(ctx, p.log_h + p.log_z[a] - p.log_z[b])))
                    want.append(abs(theta(ctx, p.log_h + p.log_mu[a] - p.log_mu[b])))
            assert resonance_margin(p, ctx) == min(want)
