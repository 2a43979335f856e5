"""Fixed-point restriction of weight functions and the restriction matrix.

The entry at row I, column J is the weight function of I evaluated at the
Chern-root substitution picked out by J (level k takes the z values on J's
k-th ordered index set).  The matrix is lower triangular in Bruhat order
with an explicit theta-product diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Iterator

import numpy as np

from .errors import EvaluationError
from .permcomb import (Permutation, all_permutations, bruhat_leq,
                       fixed_point_tables, mirror_index)
from .qtheta import ThetaContext, theta
from .weightfn import (ChernPoint, P, P_args, ParameterPoint, W_sigma,
                       chamber_twist, weight_terms)


def restriction_point(J: Permutation, p: ParameterPoint) -> ChernPoint:
    """Chern point with level k holding log z at J's ordered index sets,
    entries in increasing index order."""
    return ChernPoint(tuple(tuple(p.z(i) for i in lv)
                            for lv in fixed_point_tables(J)[:-1]))


def relative_residual(lhs: complex, *terms: complex, scale: float = 0.0) -> float:
    """Residual |lhs - t1 - t2 ...| / (|lhs| + sum |t_i| + scale) of an
    identity lhs = t1 + t2 + ...; normalizing by the term moduli keeps
    cancellation between terms from reading as error, and ``scale`` adds
    any further modulus met while evaluating the terms."""
    diff, size = lhs, abs(lhs)
    for t in terms:
        diff, size = diff - t, size + abs(t)
    return abs(diff) / (size + scale + 1e-300)


def _naming_entry(exc: EvaluationError, I: Permutation, J: Permutation):
    return type(exc)(f"entry ({I.word}, {J.word}): {exc}")


def A_direct(sigma: Permutation, I: Permutation, J: Permutation,
             p: ParameterPoint, ctx: ThetaContext) -> complex:
    """Matrix entry by direct evaluation: W_sigma at the column's
    restriction point; an entry that fails to evaluate is named."""
    try:
        return W_sigma(sigma, I, restriction_point(J, p), p, ctx)
    except EvaluationError as exc:
        raise _naming_entry(exc, I, J) from exc


def diagonal_args(I: Permutation, p: ParameterPoint) -> list[complex]:
    """Theta arguments of A_diagonal(I, p, ...), in the order it reads them."""
    return P_args(I, p.log_z, p) + P_args(mirror_index(I), p.log_mu[::-1], p)


def A_diagonal(I: Permutation, p: ParameterPoint, ctx: ThetaContext,
               th: Callable[[complex], complex] | None = None) -> complex:
    """Closed form of the diagonal entry: the sign of I times the z-side
    product at index I times the mu-side product at the reflected inverse
    index, with reversed mu arguments; theta(ctx, x) is read through th(x)
    when th is given."""
    if th is None:
        th = partial(theta, ctx)
    return (I.sign() * P(I, p.log_z, p, ctx, th)
            * P(mirror_index(I), p.log_mu[::-1], p, ctx, th))


@lru_cache(maxsize=8)
def strict_bruhat_mask(n: int) -> np.ndarray:
    """Read-only mask of the pairs (I, J) of ``all_permutations(n)`` with J
    strictly above I in Bruhat order."""
    order = all_permutations(n)
    mask = np.array([[I != J and bruhat_leq(I, J) for J in order] for I in order])
    mask.flags.writeable = False
    return mask


@dataclass(frozen=True)
class RestrictionMatrix:
    """Full n! x n! matrix of fixed-point restrictions.

    Rows and columns are indexed by ``order`` (the fixed linear extension
    of Bruhat order: by length, then lexicographically).
    """

    n: int
    sigma: Permutation
    order: tuple[Permutation, ...]
    entries: np.ndarray
    provenance: str
    point: ParameterPoint

    def __post_init__(self):
        m = len(self.order)
        if self.entries.shape != (m, m):
            raise ValueError("entry array shape mismatch")

    def entry(self, I: Permutation, J: Permutation) -> complex:
        return complex(self.entries[self.order.index(I), self.order.index(J)])

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.entries)))

    def max_deviation(self, other: "RestrictionMatrix") -> float:
        """Largest entrywise deviation relative to the joint scale."""
        scale = max(self.max_abs(), other.max_abs(), 1e-300)
        return float(np.max(np.abs(self.entries - other.entries))) / scale

    def zero_pairs(self, tol: float) -> list[tuple[Permutation, Permutation]]:
        """Observed numerically-zero entries (support is recorded, not
        asserted: vanishing beyond strict Bruhat order is an observation):
        |entry| < tol * (1 + max |row|)."""
        mod = np.abs(self.entries)
        rows, cols = np.nonzero(mod < tol * (1.0 + mod.max(axis=1))[:, None])
        return [(self.order[i], self.order[j]) for i, j in zip(rows, cols)]

    def triangularity_violation(self) -> float:
        """Worst |entry| / (1 + row scale) over pairs with J strictly above
        I in Bruhat order (0.0 when exactly triangular)."""
        mod = np.abs(self.entries)
        ratios = mod / (1.0 + mod.max(axis=1))[:, None]
        return float(ratios.max(where=strict_bruhat_mask(self.n), initial=0.0))

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "sigma": self.sigma.to_json(),
            "order": [p.to_json() for p in self.order],
            "entries": [[[v.real, v.imag] for v in row] for row in self.entries],
            "provenance": self.provenance,
            "point": self.point.to_json(),
        }


def moduli_csv(data: dict) -> str:
    """Moduli table of a matrix in its JSON form, for quick inspection."""
    labels = ["".join(map(str, w)) for w in data["order"]]
    lines = ["|A|," + ",".join(labels)]
    for lab, row in zip(labels, data["entries"]):
        lines.append(lab + "," + ",".join(repr(abs(complex(*v))) for v in row))
    return "\n".join(lines) + "\n"


def direct_entries(sigma: Permutation, p: ParameterPoint,
                   ctx: ThetaContext) -> Iterator[tuple[complex, float]]:
    """Each entry of the chamber-sigma direct matrix at p, row-major in
    ``all_permutations`` order, as its value and the largest modulus among
    its symmetrization terms.

    The first entry that fails to evaluate stops the sweep with an error
    of the same type naming the entry.
    """
    order = all_permutations(p.n)
    points = [restriction_point(J, p) for J in order]
    for I in order:
        K, q = chamber_twist(sigma, I, p)
        for J, t in zip(order, points):
            try:
                terms = weight_terms(K, t, q, ctx)
            except EvaluationError as exc:
                raise _naming_entry(exc, I, J) from exc
            yield sum(terms), max(map(abs, terms))


def build_A_direct(sigma: Permutation, p: ParameterPoint,
                   ctx: ThetaContext) -> RestrictionMatrix:
    """Assemble the full matrix from the values of ``direct_entries``."""
    order = all_permutations(p.n)
    m = len(order)
    values = [v for v, _ in direct_entries(sigma, p, ctx)]
    entries = np.array(values, dtype=complex).reshape(m, m)
    return RestrictionMatrix(n=p.n, sigma=sigma, order=order, entries=entries,
                             provenance="direct", point=p)
