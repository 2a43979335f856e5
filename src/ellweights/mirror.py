"""Parameter-swap symmetry of the restriction matrix and the interpolation
function joining the weight functions of the two dual parameter groups.

The symmetry states that an entry at (I, J) equals, up to the global sign
(-1)^(n(n-1)/2), the entry at the reflected-inverse indices evaluated after
swapping the two parameter groups: z slots take the reversed mu values and
mu slots take the inverted z values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import IllConditionedError
from .permcomb import Permutation, all_permutations, mirror_index
from .qtheta import ThetaContext
from .restriction import (build_A_direct, direct_entries, relative_residual,
                          restriction_point)
from .weightfn import ChernPoint, ParameterPoint, W


def kappa_substitute(p: ParameterPoint) -> ParameterPoint:
    """Swap the two parameter groups: z slot i takes mu at the reversed
    index, mu slot i takes 1/z_i; hbar is unchanged."""
    n = p.n
    return ParameterPoint(
        log_z=tuple(p.log_mu[n - 1 - i] for i in range(n)),
        log_mu=tuple(-p.log_z[i] for i in range(n)),
        log_h=p.log_h)


def global_sign(n: int) -> int:
    return -1 if (n * (n - 1) // 2) % 2 else 1


def mirror_residual(p: ParameterPoint, ctx: ThetaContext) -> np.ndarray:
    """Normalized residuals |LHS - RHS| / (|LHS| + |RHS| + S) of the
    parameter-swap identity, indexed [i, j] by the row and column of the
    identity-chamber direct matrix at p, where S is the largest term modulus
    met while evaluating either side."""
    ident, order = Permutation.identity(p.n), all_permutations(p.n)
    lhs = list(direct_entries(ident, p, ctx))
    rhs = list(direct_entries(ident, kappa_substitute(p), ctx))
    refl = [order.index(mirror_index(I)) for I in order]
    m, sgn = len(order), global_sign(p.n)
    out = np.empty((m, m))
    for i in range(m):
        for j in range(m):
            (a, s1), (b, s2) = lhs[i * m + j], rhs[refl[j] * m + refl[i]]
            out[i, j] = relative_residual(a, sgn * b, scale=max(s1, s2))
    return out


def _contract(inv: np.ndarray, first: list, second: list, sgn: int) -> complex:
    """sgn * sum_i sum_j inv[i, j] * first[j] * second[i]."""
    total = 0.0 + 0j
    for i, s in enumerate(second):
        for j, f in enumerate(first):
            total += inv[i, j] * f * s
    return sgn * total


@dataclass(frozen=True)
class DualityInterface:
    """Evaluator for the two-slot interpolation function at the point p,
    whose z slots hold z, mu slots the dual equivariant parameters z' and
    log_h hbar.

    Holds the restriction matrix at p and its inverse; evaluations share
    both read-only.  The dual-side weight functions are evaluated at
    kappa_substitute(p): z slots z' reversed, Kahler arguments 1/z.
    """

    p: ParameterPoint
    ctx: ThetaContext

    @cached_property
    def _solved(self) -> tuple[np.ndarray, np.ndarray]:
        A = build_A_direct(Permutation.identity(self.p.n), self.p, self.ctx).entries
        inv = np.linalg.inv(A)
        cond = np.linalg.norm(A, 1) * np.linalg.norm(inv, 1)
        if cond > 1.0 / self.ctx.tol:
            raise IllConditionedError(f"condition estimate {cond:.3e}")
        return A, inv

    def _first(self, t: ChernPoint) -> list[complex]:
        return [W(J, t, self.p, self.ctx) for J in all_permutations(self.p.n)]

    def _second(self, t_prime: ChernPoint) -> list[complex]:
        pk = kappa_substitute(self.p)
        return [W(mirror_index(I), t_prime, pk, self.ctx)
                for I in all_permutations(self.p.n)]

    def value(self, t: ChernPoint, t_prime: ChernPoint) -> complex:
        """The interpolation double sum at Chern points (t, t')."""
        return _contract(self._solved[1], self._first(t), self._second(t_prime),
                         global_sign(self.p.n))


def interpolation_residuals(iface: DualityInterface, t: ChernPoint,
                            t_prime: ChernPoint) -> tuple[np.ndarray, np.ndarray]:
    """Residuals of the two fixed-point interpolation identities at every I,
    in ``all_permutations`` order, at generic Chern points (t, t').  The
    first fixes the second slot at I^{-1}'s restriction point in the dual
    parameters and gives W_I(t); the second fixes the first slot at I^{-1}'s
    restriction point in z, column I^{-1} of the held matrix, and gives
    sgn * W_{I o sigma_0}(t') = sgn * W_{mirror_index(I^{-1})}(t')."""
    A, inv = iface._solved
    p, order, sgn = iface.p, all_permutations(iface.p.n), global_sign(iface.p.n)
    first, second = iface._first(t), iface._second(t_prime)
    dual = ParameterPoint(log_z=p.log_mu, log_mu=p.log_mu, log_h=p.log_h)
    out = np.empty((2, len(order)))
    for c, I in enumerate(order):
        dual_slot = iface._second(restriction_point(I.inverse(), dual))
        out[0, c] = relative_residual(_contract(inv, first, dual_slot, sgn), first[c])
        c_inv = order.index(I.inverse())
        out[1, c] = relative_residual(_contract(inv, A[:, c_inv].tolist(), second, sgn),
                                      sgn * second[c_inv])
    return out[0], out[1]
