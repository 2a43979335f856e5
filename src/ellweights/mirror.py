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
from .permcomb import (Permutation, all_permutations, compose_values,
                       mirror_index)
from .qtheta import ThetaContext
from .restriction import build_A_direct, direct_entries, relative_residual
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
    order = all_permutations(p.n)
    lhs, s1 = map(np.array, zip(*direct_entries(p, ctx)))
    rhs, s2 = map(np.array, zip(*direct_entries(kappa_substitute(p), ctx)))
    # [i, j] -> the flat index of entry [refl[j], refl[i]] of the swapped side
    refl = np.array([order.index(mirror_index(I)) for I in order])
    at = refl[:, None] + len(order) * refl
    return relative_residual(lhs.reshape(at.shape), global_sign(p.n) * rhs[at],
                             scale=np.maximum(s1.reshape(at.shape), s2[at]))


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
        try:
            inv = np.linalg.inv(A)
        except np.linalg.LinAlgError as exc:
            raise IllConditionedError(f"singular restriction matrix: {exc}") from exc
        cond = np.linalg.norm(A, 1) * np.linalg.norm(inv, 1)
        if cond > 1.0 / self.ctx.tol:
            raise IllConditionedError(f"condition estimate {cond:.3e}")
        return A, inv

    def _first(self, t: ChernPoint) -> np.ndarray:
        return np.array([W(J, t, self.p, self.ctx) for J in all_permutations(self.p.n)])

    def _second(self, t_prime: ChernPoint) -> np.ndarray:
        pk = kappa_substitute(self.p)
        return np.array([W(mirror_index(I), t_prime, pk, self.ctx)
                         for I in all_permutations(self.p.n)])

    def value(self, t: ChernPoint, t_prime: ChernPoint) -> complex:
        """The interpolation double sum at Chern points (t, t')."""
        inv = self._solved[1]  # the gate runs before any weight function
        return complex(global_sign(self.p.n) * (self._second(t_prime) @ inv @ self._first(t)))


def interpolation_residuals(iface: DualityInterface, t: ChernPoint,
                            t_prime: ChernPoint) -> tuple[np.ndarray, np.ndarray]:
    """Residuals of the two fixed-point interpolation identities at every I,
    in ``all_permutations`` order, at generic Chern points (t, t').  The
    first fixes the second slot at I^{-1}'s restriction point in the dual
    parameters and gives W_I(t); the second fixes the first slot at I^{-1}'s
    restriction point in z, column I^{-1} of the held matrix, and gives
    sgn * W_{I o sigma_0}(t') = sgn * W_{mirror_index(I^{-1})}(t').  The
    first slot's fixed values W_{mirror_index(K)} are read from the direct
    matrix at kappa_substitute(p), at row mirror_index(K) and column
    sigma_0 o I^{-1} value-wise: that column's restriction point holds the
    dual one's values, level by level."""
    A, inv = iface._solved
    n, sgn, order = iface.p.n, global_sign(iface.p.n), all_permutations(iface.p.n)
    rows = [order.index(mirror_index(I)) for I in order]
    cols = [order.index(compose_values(Permutation.longest(n), I.inverse())) for I in order]
    inv_idx = [order.index(I.inverse()) for I in order]
    dual = build_A_direct(Permutation.identity(n), kappa_substitute(iface.p),
                          iface.ctx).entries[np.ix_(rows, cols)].T
    first, second = iface._first(t), iface._second(t_prime)
    return (relative_residual(sgn * dual @ (inv @ first), first),
            relative_residual(sgn * (second @ inv) @ A[:, inv_idx], sgn * second[inv_idx]))
