"""Permutation algebra and fixed-point index combinatorics.

Fixed points of the variety are labeled by permutations I = (I_1, ..., I_n)
in one-line notation with values 1..n.  Two composition conventions appear
in the formulas and are exposed under distinct names:

* ``compose(sigma, I)`` is the position-wise product with word
  (I_{sigma(1)}, ..., I_{sigma(n)});
* ``compose_values(sigma, I)`` is the value-wise product with word
  (sigma(I_1), ..., sigma(I_n)).

Right multiplication by the simple transposition s_k under the first
convention swaps positions k, k+1 of the word; the value-wise left action
of s_k swaps the values k, k+1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache


@dataclass(frozen=True, order=True)
class Permutation:
    """One-line notation word, values 1..n."""

    word: tuple[int, ...]

    def __post_init__(self):
        n = len(self.word)
        if sorted(self.word) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.word}")

    def __len__(self) -> int:
        return len(self.word)

    def __call__(self, j: int) -> int:
        """Value at 1-based position j."""
        return self.word[j - 1]

    def __iter__(self):
        return iter(self.word)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def longest(cls, n: int) -> "Permutation":
        """sigma_0 = (n, n-1, ..., 1)."""
        return cls(tuple(range(n, 0, -1)))

    def inverse(self) -> "Permutation":
        w = [0] * len(self.word)
        for j, v in enumerate(self.word):
            w[v - 1] = j + 1
        return Permutation(tuple(w))

    def length(self) -> int:
        """Inversion count."""
        w = self.word
        n = len(w)
        return sum(1 for a in range(n) for b in range(a + 1, n) if w[a] > w[b])

    def sign(self) -> int:
        return -1 if self.length() % 2 else 1

    def pos_swap(self, k: int) -> "Permutation":
        """Swap word positions k, k+1 (left multiplication by s_k)."""
        w = list(self.word)
        w[k - 1], w[k] = w[k], w[k - 1]
        return Permutation(tuple(w))

    def value_swap(self, k: int) -> "Permutation":
        """Swap values k, k+1 wherever they occur (right multiplication by s_k)."""
        m = {k: k + 1, k + 1: k}
        return Permutation(tuple(m.get(v, v) for v in self.word))

    def word_ascents(self) -> list[int]:
        w = self.word
        return [k for k in range(1, len(w)) if w[k - 1] < w[k]]

    def value_descents(self) -> list[int]:
        """Values k whose pair (k, k+1) appears inverted in the word,
        i.e. position(k+1) < position(k)."""
        inv = self.inverse().word
        return [k for k in range(1, len(inv)) if inv[k] < inv[k - 1]]

    def to_json(self) -> list[int]:
        return list(self.word)


def compose(sigma: Permutation, I: Permutation) -> Permutation:
    """Position-wise product: word (I_{sigma(1)}, ..., I_{sigma(n)})."""
    if len(sigma) != len(I):
        raise ValueError("size mismatch")
    return Permutation(tuple(I.word[s - 1] for s in sigma.word))


def compose_values(sigma: Permutation, I: Permutation) -> Permutation:
    """Value-wise product: word (sigma(I_1), ..., sigma(I_n))."""
    if len(sigma) != len(I):
        raise ValueError("size mismatch")
    return Permutation(tuple(sigma.word[v - 1] for v in I.word))


def mirror_index(I: Permutation) -> Permutation:
    """The index map used by the parameter-swap identity: the word with
    j-th entry n + 1 - I^{-1}(j)."""
    n = len(I)
    inv = I.inverse().word
    return Permutation(tuple(n + 1 - inv[j] for j in range(n)))


@lru_cache(maxsize=8)
def all_permutations(n: int) -> tuple[Permutation, ...]:
    """All of S_n in the canonical order: sorted by length, ties broken
    lexicographically on the word.  Every matrix is indexed this way."""
    perms = [Permutation(w) for w in itertools.permutations(range(1, n + 1))]
    return tuple(sorted(perms, key=lambda p: (p.length(), p.word)))


def bruhat_leq(I: Permutation, J: Permutation) -> bool:
    """Bruhat order via the tableau criterion: I <= J iff, for every k,
    the sorted initial values of I are entrywise <= those of J."""
    if len(I) != len(J):
        raise ValueError("size mismatch")
    n = len(I)
    for k in range(1, n):
        si = sorted(I.word[:k])
        sj = sorted(J.word[:k])
        if any(a > b for a, b in zip(si, sj)):
            return False
    return True


@lru_cache(maxsize=4096)
def fixed_point_tables(I: Permutation) -> tuple[tuple[int, ...], ...]:
    """Ordered index sets of a fixed point: entry k-1 is the increasing
    arrangement i_1 < ... < i_k of {I_1, ..., I_k}."""
    return tuple(tuple(sorted(I.word[:k])) for k in range(1, len(I) + 1))
