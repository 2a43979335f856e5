"""Theta core: golden products, functional equations, guards."""

import cmath
import math

import pytest

from ellweights import RangeError, ThetaContext, theta

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

    def test_q_outside_disk_rejected(self):
        with pytest.raises(ValueError):
            ThetaContext(log_q=0.1, trunc=64)
        with pytest.raises(ValueError):
            ThetaContext.create(q=1.5)

    def test_trunc_too_small_rejected(self):
        with pytest.raises(ValueError):
            ThetaContext(log_q=cmath.log(0.3), trunc=8)

    def test_default_trunc(self):
        assert ThetaContext.create(q=0.3).trunc == 69
        assert ThetaContext.create(q=1e-30).trunc == 24
