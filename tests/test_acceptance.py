"""Acceptance criteria, one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import cmath
import json
import math
import time

import numpy as np
import pytest

from ellweights import (A_diagonal, A_direct, DualityInterface, P,
                        Permutation, all_permutations,
                        build_A_by_dual_recursion, build_A_by_R_recursion,
                        build_A_direct, compose, dual_residual,
                        exchange_residual, interpolation_residuals,
                        mirror_residual, random_chern_point,
                        random_parameter_point, theta)
from ellweights.cli import RunConfig, run
from ellweights.qtheta import ThetaContext

TOL = 1e-8


@pytest.fixture(scope="module")
def actx():
    return ThetaContext.create(q=0.3, tol=TOL)


def report(num, name, passed, detail):
    line = f"criterion {num:2d} ({name}): {'PASS' if passed else 'FAIL'} {detail}"
    print(line)
    assert passed, line


def test_criterion_1_theta_functional_equations(actx):
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        lx = complex(rng.uniform(-2, 2), rng.uniform(-2 * math.pi, 2 * math.pi))
        tv = theta(actx, lx)
        worst = max(worst, abs(theta(actx, -lx) + tv) / (1.0 + abs(tv)))
        shift = theta(actx, actx.log_q + lx)
        resid = abs(shift + cmath.exp(-actx.log_q / 2 - lx) * tv)
        worst = max(worst, resid / (1.0 + abs(shift) + abs(tv)))
    elapsed = time.perf_counter() - t0
    report(1, "theta functional equations", worst < TOL and elapsed < 1.0,
           f"max_residual={worst:.2e} runtime={elapsed:.2f}s")


def test_criterion_2_n2_golden_matrix(actx):
    rng = np.random.default_rng(102)
    t0 = time.perf_counter()
    p = random_parameter_point(2, rng, actx)
    lz, lmu, lh = p.log_z, p.log_mu, p.log_h
    th = lambda w: theta(actx, w)
    oracle = np.array([
        [th(lh + lmu[1] - lmu[0]) * th(lz[1] - lz[0]), 0.0],
        [th(lh) * th(lz[1] + lmu[1] - lz[0] - lmu[0]),
         th(lh + lz[0] - lz[1]) * th(lmu[1] - lmu[0])],
    ], dtype=complex)
    mat = build_A_direct(Permutation.identity(2), p, actx)
    scale = np.max(np.abs(oracle))
    dev = float(np.max(np.abs(mat.entries - oracle))) / scale
    exact_zero = abs(mat.entries[0, 1]) == 0.0
    elapsed = time.perf_counter() - t0
    report(2, "n=2 golden matrix", dev < 1e-10 and exact_zero and elapsed < 1.0,
           f"deviation={dev:.2e} zero_entry_exact={exact_zero} runtime={elapsed:.2f}s")


def test_criterion_3_n3_golden_entry(actx):
    rng = np.random.default_rng(103)
    ident = Permutation.identity(3)
    worst = 0.0
    for _ in range(10):
        p = random_parameter_point(3, rng, actx)
        lz, lmu, lh = p.log_z, p.log_mu, p.log_h
        th = lambda w: theta(actx, w)
        first = -(th(lh) ** 3 * th(lz[0] + lmu[0] - lz[1] - lmu[1])
                  * th(lz[0] + lmu[1] - lz[1] - lmu[2]) * th(lz[0] - lz[2])
                  * th(lz[1] + lmu[0] - lz[2] - lmu[2])) / th(lz[0] - lz[1])
        second = (th(lh) * th(lh + lz[0] - lz[1]) * th(lmu[0] - lmu[1])
                  * th(lz[1] - lz[2]) * th(lmu[1] - lmu[2])
                  * th(lz[0] + lmu[0] - lz[2] - lmu[2]) * th(lh + lz[1] - lz[0])) \
            / th(lz[0] - lz[1])
        oracle = first + second
        got = A_direct(ident, Permutation((3, 2, 1)), ident, p, actx)
        worst = max(worst, abs(got - oracle) / abs(oracle))
    report(3, "n=3 golden entry", worst < TOL, f"max_rel_dev={worst:.2e}")


def test_criterion_4_triangularity_and_diagonal(actx):
    rng = np.random.default_rng(104)
    worst_tri = 0.0
    worst_diag = 0.0
    elapsed4 = 0.0
    for n in (2, 3, 4):
        ident = Permutation.identity(n)
        t0 = time.perf_counter()
        for _ in range(5):
            p = random_parameter_point(n, rng, actx)
            mat = build_A_direct(ident, p, actx)
            worst_tri = max(worst_tri, mat.triangularity_violation())
            for I in all_permutations(n):
                closed = A_diagonal(I, p, actx)
                dev = abs(mat.entry(I, I) - closed) / abs(closed)
                worst_diag = max(worst_diag, dev)
        if n == 4:
            elapsed4 = time.perf_counter() - t0
    ok = worst_tri < TOL and worst_diag < TOL and elapsed4 < 30.0
    report(4, "triangularity and diagonal", ok,
           f"tri={worst_tri:.2e} diag={worst_diag:.2e} n4_runtime={elapsed4:.1f}s")


def test_criterion_5_exchange_and_dual_relations(actx):
    rng = np.random.default_rng(105)
    worst_ex = 0.0
    worst_du = 0.0
    for n in (2, 3, 4):
        ident = Permutation.identity(n)
        for _ in range(3):
            p = random_parameter_point(n, rng, actx)
            A = build_A_direct(ident, p, actx)
            worst_ex = max(worst_ex, exchange_residual(A, actx).max())
            worst_du = max(worst_du, dual_residual(A, actx).max())
    ok = worst_ex < TOL and worst_du < TOL
    report(5, "exchange and dual relations", ok,
           f"exchange={worst_ex:.2e} dual={worst_du:.2e}")


def test_criterion_6_recursion_oracle_equivalence(actx):
    rng = np.random.default_rng(106)
    worst = 0.0
    for n in (2, 3, 4):
        ident = Permutation.identity(n)
        for _ in range(5):
            p = random_parameter_point(n, rng, actx)
            direct = build_A_direct(ident, p, actx)
            worst = max(worst, direct.max_deviation(build_A_by_R_recursion(p, actx)))
            worst = max(worst, direct.max_deviation(build_A_by_dual_recursion(p, actx)))
    report(6, "recursion oracle equivalence", worst < 1e-7,
           f"max_entry_deviation={worst:.2e}")


def test_criterion_7_mirror_identities(actx):
    rng = np.random.default_rng(107)
    worst_small = 0.0
    for n in (2, 3):
        for _ in range(5):
            p = random_parameter_point(n, rng, actx)
            worst_small = max(worst_small, mirror_residual(p, actx).max())
    worst_n4 = 0.0
    t0 = time.perf_counter()
    for _ in range(5):
        p = random_parameter_point(4, rng, actx)
        worst_n4 = max(worst_n4, mirror_residual(p, actx).max())
    elapsed = time.perf_counter() - t0
    ok = worst_small < TOL and worst_n4 < 1e-7 and elapsed < 300.0
    report(7, "mirror symmetry identities", ok,
           f"n<=3={worst_small:.2e} n=4={worst_n4:.2e} n4_runtime={elapsed:.0f}s")


def test_criterion_8_duality_interface(actx):
    rng = np.random.default_rng(108)
    worst = 0.0
    for n in (2, 3):
        for _ in range(3):
            p = random_parameter_point(n, rng, actx)
            iface = DualityInterface(p, actx)
            t = random_chern_point(n, rng)
            tp = random_chern_point(n, rng)
            r1, r2 = interpolation_residuals(iface, t, tp)
            worst = max(worst, r1.max(), r2.max())
    report(8, "duality interface interpolation", worst < 1e-7,
           f"max_residual={worst:.2e}")


def test_criterion_9_p_product_symmetry(actx):
    rng = np.random.default_rng(109)
    s0 = Permutation.longest(4)
    worst = 0.0
    for _ in range(10):
        p = random_parameter_point(4, rng, actx)
        args = tuple(-v for v in p.log_z[::-1])
        for I in all_permutations(4):
            K = compose(compose(s0, I), s0)
            lhs = P(K, args, p, actx)
            rhs = P(I, p.log_z, p, actx)
            worst = max(worst, abs(lhs - rhs) / (abs(lhs) + abs(rhs)))
    report(9, "P-product symmetry", worst < TOL, f"max_residual={worst:.2e}")


def test_criterion_10_determinism():
    config = RunConfig(n=2, mode="verify", suites=("theta", "mirror", "pprop"),
                       points=2, seed=424242)
    _, r1 = run(config)
    _, r2 = run(config)
    b1 = json.dumps(r1, sort_keys=False).encode()
    b2 = json.dumps(r2, sort_keys=False).encode()
    report(10, "byte-identical reports", b1 == b2,
           f"bytes={len(b1)} identical={b1 == b2}")
