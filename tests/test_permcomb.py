"""Permutation algebra, Bruhat order, index tables."""

import itertools

import pytest

from ellweights import (Permutation, all_permutations, bruhat_leq, compose,
                        compose_values, fixed_point_tables, mirror_index)


def words(n):
    return [Permutation(w) for w in itertools.permutations(range(1, n + 1))]


def bruhat_oracle(n):
    """Brute force: transitive closure of length-increasing transposition
    multiplications (independent of the tableau criterion)."""
    perms = [tuple(w) for w in itertools.permutations(range(1, n + 1))]

    def length(w):
        return sum(1 for a in range(n) for b in range(a + 1, n) if w[a] > w[b])

    up = {}
    for w in perms:
        nbrs = []
        for i, j in itertools.combinations(range(n), 2):
            v = list(w)
            v[i], v[j] = v[j], v[i]
            v = tuple(v)
            if length(v) > length(w):
                nbrs.append(v)
        up[w] = nbrs
    leq = {}
    for w in perms:
        seen = {w}
        stack = [w]
        while stack:
            u = stack.pop()
            for v in up[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        leq[w] = seen
    return leq


class TestCompositions:
    def test_position_product_example(self):
        I = Permutation((2, 1, 3))
        s2 = Permutation((1, 3, 2))
        assert compose(s2, I).word == (2, 3, 1)
        assert I.pos_swap(2).word == (2, 3, 1)

    def test_value_action_example(self):
        I = Permutation((2, 1, 3))
        s2 = Permutation((1, 3, 2))
        assert compose_values(s2, I).word == (3, 1, 2)
        assert I.value_swap(2).word == (3, 1, 2)

    def test_identity_neutral(self):
        I = Permutation((3, 1, 2))
        e = Permutation.identity(3)
        assert compose(I, e) == I == compose(e, I)
        assert compose_values(e, I) == I

    @pytest.mark.parametrize("n", [3, 4])
    def test_group_axioms_exhaustive(self, n):
        e = Permutation.identity(n)
        ps = words(n)
        for I in ps:
            assert compose(I, I.inverse()) == e
            assert compose(I.inverse(), I) == e
        for a in ps:
            for b in ps:
                for c in ps:
                    assert compose(compose(a, b), c) == compose(a, compose(b, c))

    @pytest.mark.parametrize("n", [3, 4])
    def test_swap_changes_length_by_one(self, n):
        for I in words(n):
            for k in range(1, n):
                assert abs(I.pos_swap(k).length() - I.length()) == 1
                assert abs(I.value_swap(k).length() - I.length()) == 1

    def test_sign_matches_length_parity(self):
        for I in words(4):
            assert I.sign() == (-1) ** I.length()

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            compose(Permutation((1, 2)), Permutation((1, 2, 3)))


class TestBruhat:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_against_oracle(self, n):
        leq = bruhat_oracle(n)
        for I in words(n):
            for J in words(n):
                assert bruhat_leq(I, J) == (J.word in leq[I.word])

    def test_identity_is_minimum(self):
        e = Permutation.identity(4)
        for J in words(4):
            assert bruhat_leq(e, J)

    def test_s2_examples(self):
        a, b = Permutation((1, 2)), Permutation((2, 1))
        assert bruhat_leq(a, b) and not bruhat_leq(b, a)

    def test_incomparable_pair(self):
        a, b = Permutation((2, 1, 3)), Permutation((1, 3, 2))
        assert not bruhat_leq(a, b) and not bruhat_leq(b, a)

    def test_partial_order_axioms(self):
        ps = words(3)
        for I in ps:
            assert bruhat_leq(I, I)
            for J in ps:
                if bruhat_leq(I, J) and bruhat_leq(J, I):
                    assert I == J
                for K in ps:
                    if bruhat_leq(I, J) and bruhat_leq(J, K):
                        assert bruhat_leq(I, K)

    def test_canonical_order(self):
        order = all_permutations(3)
        assert [p.word for p in order] == [
            (1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)]
        assert order[0] == Permutation.identity(3)
        assert order[-1] == Permutation.longest(3)


class TestFixedPointTables:
    def test_identity(self):
        tab = fixed_point_tables(Permutation.identity(4))
        for k in range(1, 5):
            assert tab[k - 1] == tuple(range(1, k + 1))

    def test_312(self):
        assert fixed_point_tables(Permutation((3, 1, 2))) == ((3,), (1, 3), (1, 2, 3))

    def test_21(self):
        assert fixed_point_tables(Permutation((2, 1)))[0] == (2,)

    @pytest.mark.parametrize("n", [3, 4])
    def test_nesting_and_lookup(self, n):
        for I in words(n):
            tab = fixed_point_tables(I)
            assert tab[n - 1] == tuple(range(1, n + 1))
            for k in range(1, n):
                assert set(tab[k - 1]) <= set(tab[k])
            for k in range(1, n + 1):
                assert tab[k - 1] == tuple(sorted(I.word[:k]))


class TestSerialization:
    def test_round_trip(self):
        I = Permutation((3, 1, 2))
        assert Permutation(tuple(I.to_json())) == I
        assert I.to_json() == [3, 1, 2]

    def test_invalid_word(self):
        with pytest.raises(ValueError):
            Permutation((1, 1, 2))
        with pytest.raises(ValueError):
            Permutation((0, 1))


class TestMirrorIndex:
    def test_n3_pairings(self):
        # reflected-inverse words behind the n=3 identity list
        assert mirror_index(Permutation((1, 2, 3))).word == (3, 2, 1)
        assert mirror_index(Permutation((3, 1, 2))).word == (2, 1, 3)
        assert mirror_index(Permutation((3, 2, 1))).word == (1, 2, 3)
        assert mirror_index(Permutation((2, 1, 3))).word == (2, 3, 1)

    def test_bijection(self):
        images = {mirror_index(I).word for I in words(4)}
        assert len(images) == 24
