"""Compositions, descent and peak statistics, and the split poset."""

import itertools
from fractions import Fraction

import pytest

from nsympeak.compositions import (
    F_set,
    G_set,
    canonical_key,
    check_composition,
    composition_from_descents,
    compositions_of,
    conjugate,
    descent_composition,
    descent_set,
    display_key,
    epsilon,
    epsilon_inv,
    hilbert_dim,
    hook_factorization,
    is_in_F,
    is_in_G,
    lower_set,
    num_compositions,
    part_count,
    peak_composition,
    peak_compositions_of,
    peak_set_of_composition,
    peak_set_of_permutation,
    ribbon_factorization,
)
from oracles import (
    F_set_filtered,
    G_set_filtered,
    is_valid_peak_set,
    merge_predecessors,
    peak_compositions_filtered,
    poset_leq,
    reassemble_ribbon,
    reverse_refines,
    split_successors,
)


def test_check_composition_rejects_bad_parts():
    with pytest.raises(ValueError):
        check_composition((1, 0, 2))
    with pytest.raises(ValueError):
        check_composition((-1,))
    assert check_composition(()) == ()
    assert check_composition([2, 1]) == (2, 1)


@pytest.mark.parametrize("bad", [(1.9, 1), (1, True), (2.0,), ("2",)],
                         ids=["float", "bool", "integral-float", "string"])
def test_check_composition_refuses_parts_that_are_not_ints(bad):
    # int() would truncate 1.9 to 1 and read True as 1; each is refused.
    with pytest.raises(ValueError, match="composition parts must be ints"):
        check_composition(bad)


def test_descent_set_examples():
    assert descent_set((1, 3, 1, 4, 2)) == frozenset({1, 4, 5, 9})
    assert descent_set((3,)) == frozenset()
    assert descent_set(()) == frozenset()


def test_descents_round_trip():
    for n in range(8):
        for I in compositions_of(n):
            assert composition_from_descents(descent_set(I), n) == I


def test_enumeration_canonical_order():
    for n in range(1, 9):
        comps = compositions_of(n)
        assert len(comps) == num_compositions(n) == 2 ** (n - 1)
        keys = [canonical_key(I) for I in comps]
        assert keys == sorted(keys)
    assert compositions_of(0) == [()]
    for count in (compositions_of, num_compositions):
        with pytest.raises(ValueError, match="n must be >= 0"):
            count(-1)


def test_reverse_refinement_is_descent_containment():
    for n in range(7):
        for I in compositions_of(n):
            for J in compositions_of(n):
                assert reverse_refines(I, J) == (descent_set(I) <= descent_set(J))


def test_conjugate_known_values_and_involution():
    assert conjugate((2, 2)) == (1, 2, 1)
    assert conjugate((1, 2, 1)) == (2, 2)
    assert conjugate((3,)) == (1, 1, 1)
    for n in range(8):
        for I in compositions_of(n):
            assert conjugate(conjugate(I)) == I
            if n:
                assert len(conjugate(I)) == n - len(I) + 1


def test_permutation_descents_and_peaks():
    perm = (2, 6, 5, 3, 4, 1)
    assert descent_composition(perm) == (2, 1, 2, 1)
    assert descent_set(descent_composition(perm)) == frozenset({2, 3, 5})
    assert peak_set_of_permutation(perm) == frozenset({2, 5})
    assert peak_composition(perm) == (2, 3, 1)


def test_peak_set_of_composition():
    assert peak_set_of_composition((1, 3, 1, 2)) == frozenset({4})
    assert peak_set_of_composition((1, 3, 1, 4, 2)) == frozenset({4, 9})
    assert peak_set_of_composition((2,)) == frozenset()
    assert peak_set_of_composition((1, 1)) == frozenset()


def test_peak_sets_of_compositions_match_permutations():
    # every composition's peak set arises from any permutation with that
    # descent composition
    for n in range(2, 7):
        for I in compositions_of(n):
            perm = _permutation_with_descents(I)
            assert peak_set_of_permutation(perm) == peak_set_of_composition(I)


def _permutation_with_descents(I):
    n = sum(I)
    descents = sorted(descent_set(I))
    values = list(range(n, 0, -1))
    blocks = []
    prev = 0
    for d in descents + [n]:
        size = d - prev
        take = sorted(values[:size])
        values = values[size:]
        blocks.append(take)
        prev = d
    out = []
    for block in blocks:
        out.extend(block)
    return tuple(out)


def test_valid_peak_sets_counted_by_fibonacci():
    fib = [1, 1, 1, 2, 3, 5, 8, 13, 21]
    for n in range(9):
        reps = peak_compositions_of(n)
        assert len(reps) == fib[n]
        for I in reps:
            assert is_valid_peak_set(descent_set(I), n)
    assert is_valid_peak_set({5}, 6)
    assert not is_valid_peak_set({1}, 6)
    assert not is_valid_peak_set({6}, 6)
    assert not is_valid_peak_set({2, 3}, 6)


def test_split_and_merge_are_adjoint():
    for N in (2, 3):
        for n in range(7):
            for I in compositions_of(n):
                for J in split_successors(I, N):
                    assert I in merge_predecessors(J, N)
                for J in merge_predecessors(I, N):
                    assert I in split_successors(J, N)


def test_lower_set_examples():
    assert set(lower_set((1, 2, 1), 2)) == {(1, 2, 1), (3, 1)}
    assert set(lower_set((1, 2, 1), 3)) == {(1, 2, 1), (3, 1), (1, 3), (4,)}
    assert set(lower_set((1, 1, 2), 2)) == {(1, 1, 2), (2, 2), (1, 3), (4,)}
    assert set(lower_set((1, 1, 2), 3)) == set(lower_set((1, 1, 2), 2))
    assert set(lower_set((2, 1, 1), 3)) == {(2, 1, 1), (3, 1), (2, 2), (4,)}
    assert lower_set((), 2) == [()]


def _merge_closure(I, N):
    """Everything reachable from I by merge_predecessors, I included."""
    seen = {I}
    frontier = [I]
    while frontier:
        nxt = []
        for J in frontier:
            for K in merge_predecessors(J, N):
                if K not in seen:
                    seen.add(K)
                    nxt.append(K)
        frontier = nxt
    return sorted(seen, key=canonical_key)


def test_lower_set_closed_form():
    for n in range(10):
        for I in compositions_of(n):
            for N in (2, 3, 4, 5):
                assert lower_set(I, N) == _merge_closure(I, N)
            ds = sorted(descent_set(I))
            coarser = [
                composition_from_descents(sub, n)
                for r in range(len(ds) + 1)
                for sub in itertools.combinations(ds, r)
            ]
            assert lower_set(I) == sorted(coarser, key=canonical_key)


def test_poset_order_consistency():
    for N in (2, 3):
        for n in range(7):
            for I in compositions_of(n):
                low = set(lower_set(I, N))
                for J in compositions_of(n):
                    assert poset_leq(J, I, N) == (J in low)
                for J in low:
                    assert J == I or len(J) < len(I)


def test_index_families():
    assert set(G_set(4, 3)) == {
        (1, 1, 1, 1),
        (2, 1, 1),
        (1, 2, 1),
        (1, 1, 2),
        (2, 2),
        (3, 1),
    }
    assert set(F_set(4, 3)) == {
        (1, 1, 1, 1),
        (2, 1, 1),
        (1, 2, 1),
        (1, 1, 2),
        (2, 2),
        (4,),
    }
    assert is_in_G((3, 1), 3) and not is_in_G((1, 3), 3)
    assert is_in_F((4,), 3) and not is_in_F((3, 1), 3)
    assert is_in_G((), 5) and is_in_F((), 5)


def test_built_families_match_filters():
    # Built unit by unit, in canonical order, as filtering every
    # composition of n lists them.
    for n in range(15):
        assert peak_compositions_of(n) == peak_compositions_filtered(n)
        for N in range(2, 8):
            assert G_set(n, N) == G_set_filtered(n, N)
            assert F_set(n, N) == F_set_filtered(n, N)
    for build in (lambda n: F_set(n, 3), lambda n: G_set(n, 3), peak_compositions_of):
        with pytest.raises(ValueError):
            build(-1)


def test_block_bijection():
    assert epsilon((3, 1), 3) == (4,)
    assert epsilon((3, 3, 2), 3) == (8,)
    assert epsilon((1, 1, 2), 3) == (1, 1, 2)
    assert epsilon_inv((8,), 3) == (3, 3, 2)
    for N in (2, 3, 4):
        for n in range(9):
            fam_g = G_set(n, N)
            images = [epsilon(I, N) for I in fam_g]
            assert sorted(images) == sorted(F_set(n, N))
            for I in fam_g:
                assert epsilon_inv(epsilon(I, N), N) == I


def test_dimension_table():
    fib = [1, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144]
    for n in range(13):
        assert hilbert_dim(n, 2) == fib[n]
    assert [hilbert_dim(n, 3) for n in range(6)] == [1, 1, 2, 3, 6, 11]
    for N in (2, 3, 4, 5):
        for n in range(15):
            assert hilbert_dim(n, N) == len(G_set(n, N)) == len(F_set(n, N))
            if 0 < n < N:
                assert hilbert_dim(n, N) == 2 ** (n - 1)
        assert hilbert_dim(-1, N) == 0


def test_dimension_at_large_weight():
    # A cold call far past what recursion on n would reach: for N = 2,
    # h(n) is the Fibonacci number F(n), F(0) = 0 and F(1) = 1.
    a, b = 0, 1
    for _ in range(3000):
        a, b = b, a + b
    assert hilbert_dim(3000, 2) == a


def test_hook_factorization_example():
    segments, hook_len, weights = hook_factorization((1, 3, 1, 4, 2))
    assert hook_len == 3
    assert weights == (4, 5, 2)
    assert descent_set(weights) == frozenset({4, 9})
    assert sum(map(sum, segments)) == 11
    for piece in segments:
        # Each piece is a hook (1^a, b): every part but the last is 1.
        assert all(p == 1 for p in piece[:-1])


def test_ribbon_factorization_example():
    segments = ribbon_factorization((3, 2, 1, 4), (2, 5, 2, 1))
    assert segments == [(2, 1), (2,), (1,), (1, 2, 1)]
    assert reassemble_ribbon(segments, (3, 2, 1, 4), (2, 5, 2, 1)) == (2, 5, 2, 1)


def test_ribbon_factorization_everywhere():
    for n in range(1, 8):
        for I in compositions_of(n):
            for J in compositions_of(n):
                segments = ribbon_factorization(I, J)
                assert tuple(map(sum, segments)) == I
                assert reassemble_ribbon(segments, I, J) == J


def test_part_count_formula():
    for n in range(2, 13):
        expected = Fraction(n + 2) * Fraction(2) ** (n - 3)
        assert part_count(n, 1) == expected
        brute = sum(I.count(1) for I in compositions_of(n))
        assert brute == part_count(n, 1)
    for n in range(2, 10):
        for i in range(1, n):
            assert part_count(n, i) == part_count(n - i + 1, 1)
            brute = sum(I.count(i) for I in compositions_of(n))
            assert brute == part_count(n, i)


def test_weight_and_display_key():
    order = sorted(compositions_of(3), key=display_key)
    assert order == [(1, 1, 1), (2, 1), (1, 2), (3,)]
