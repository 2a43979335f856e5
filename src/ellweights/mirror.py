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
from .permcomb import Permutation, all_permutations, compose, mirror_index
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


@dataclass(frozen=True)
class DualityInterface:
    """Evaluator for the two-slot interpolation function at the point p,
    whose z slots hold z, mu slots the dual equivariant parameters z' and
    log_h hbar.

    Holds the inverse of the restriction matrix at p; evaluations share it
    read-only.  The dual-side weight functions are evaluated at
    kappa_substitute(p): z slots z' reversed, Kahler arguments 1/z.
    """

    p: ParameterPoint
    ctx: ThetaContext

    @cached_property
    def _dual_point(self) -> ParameterPoint:
        return kappa_substitute(self.p)

    @cached_property
    def _inverse(self) -> np.ndarray:
        A = build_A_direct(Permutation.identity(self.p.n), self.p, self.ctx).entries
        inv = np.linalg.inv(A)
        cond = np.linalg.norm(A, 1) * np.linalg.norm(inv, 1)
        if cond > 1.0 / self.ctx.tol:
            raise IllConditionedError(f"condition estimate {cond:.3e}")
        return inv

    def value(self, t: ChernPoint, t_prime: ChernPoint) -> complex:
        """The interpolation double sum at Chern points (t, t')."""
        n = self.p.n
        order = all_permutations(n)
        inv = self._inverse
        w_first = [W(J, t, self.p, self.ctx) for J in order]
        w_second = [W(mirror_index(I), t_prime, self._dual_point, self.ctx)
                    for I in order]
        total = 0.0 + 0j
        for i in range(len(order)):
            for j in range(len(order)):
                total += inv[i, j] * w_first[j] * w_second[i]
        return global_sign(n) * total


def interpolation_residuals(iface: DualityInterface, I: Permutation,
                            t: ChernPoint, t_prime: ChernPoint) -> tuple[float, float]:
    """Residuals of the two fixed-point interpolation identities at I with
    the supplied generic Chern points.  The first fixes the second slot at
    the restriction point of I^{-1} in the dual equivariant parameters, the
    second fixes the first slot at the restriction point of I^{-1} in z."""
    p = iface.p
    n = p.n
    sgn = global_sign(n)
    dual = ParameterPoint(log_z=p.log_mu, log_mu=p.log_mu, log_h=p.log_h)
    lhs1 = iface.value(t, restriction_point(I.inverse(), dual))
    rhs1 = W(I, t, p, iface.ctx)
    lhs2 = iface.value(restriction_point(I.inverse(), p), t_prime)
    comp = compose(I, Permutation.longest(n))   # word n + 1 - I_j
    rhs2 = sgn * W(comp, t_prime, iface._dual_point, iface.ctx)
    return relative_residual(lhs1, rhs1), relative_residual(lhs2, rhs2)
