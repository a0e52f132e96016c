from __future__ import annotations

from fractions import Fraction

import pytest

from compderiv.partitions import (
    MAX_PARTITION_ORDER,
    enumerate_multiplicity_vectors,
    multinomial_weight,
    partition_parts,
)
from oracles import (
    bell_number_brute,
    brute_multiplicity_vectors,
    partition_type_count,
    pentagonal_partition_counts,
)


def test_only_partition_of_one():
    vectors = enumerate_multiplicity_vectors(1)
    assert vectors == [(1,)]


def test_vectors_of_four_match_hypercube_filter():
    got = set(enumerate_multiplicity_vectors(4))
    assert got == brute_multiplicity_vectors(4)
    assert got == {(4, 0, 0, 0), (2, 1, 0, 0), (0, 2, 0, 0), (1, 0, 1, 0), (0, 0, 0, 1)}
    assert len(got) == 5


@pytest.mark.parametrize("n", range(1, 9))
def test_vectors_match_hypercube_filter(n):
    assert set(enumerate_multiplicity_vectors(n)) == brute_multiplicity_vectors(n)


def test_ten_has_42_partitions():
    assert len(enumerate_multiplicity_vectors(10)) == 42


@pytest.mark.parametrize("n", range(1, 16))
def test_count_matches_pentagonal_recurrence(n):
    counts = pentagonal_partition_counts(n)
    assert len(enumerate_multiplicity_vectors(n)) == counts[n]


@pytest.mark.parametrize("n", range(1, 13))
def test_every_vector_satisfies_weighted_sum(n):
    for v in enumerate_multiplicity_vectors(n):
        assert sum(j * mj for j, mj in enumerate(v, start=1)) == n
        assert 1 <= sum(v) <= n


def test_canonical_order_single_part_first():
    # Lexicographically decreasing in (m_n, ..., m_1).
    vectors = enumerate_multiplicity_vectors(4)
    assert vectors == [
        (0, 0, 0, 1),
        (1, 0, 1, 0),
        (0, 2, 0, 0),
        (2, 1, 0, 0),
        (4, 0, 0, 0),
    ]
    keys = [tuple(reversed(m)) for m in vectors]
    assert keys == sorted(keys, reverse=True)


@pytest.mark.parametrize("n", range(2, 10))
def test_canonical_order_is_decreasing_lex_in_reversed_vector(n):
    keys = [tuple(reversed(v)) for v in enumerate_multiplicity_vectors(n)]
    assert keys == sorted(keys, reverse=True)


@pytest.mark.parametrize("n", range(1, 13))
def test_walk_yields_the_vectors_in_order_largest_size_first(n):
    walked = []
    for _, parts in partition_parts(n):
        assert [j for j, _ in parts] == sorted((j for j, _ in parts), reverse=True)
        walked.append(sorted(parts))
    assert walked == [
        [(j, mj) for j, mj in enumerate(v, start=1) if mj > 0]
        for v in enumerate_multiplicity_vectors(n)
    ]


@pytest.mark.parametrize("n", range(1, 21))
def test_walk_reports_the_pairs_it_kept(n):
    previous = None
    for kept, parts in partition_parts(n):
        if previous is None:
            assert kept == 0
        else:
            assert 0 <= kept < len(parts) and parts[:kept] == previous[:kept]
        previous = list(parts)


def test_walk_order_bound():
    assert MAX_PARTITION_ORDER == 60
    assert next(partition_parts(60)) == (0, [(60, 1)])
    with pytest.raises(ValueError, match="MAX_PARTITION_ORDER"):
        next(partition_parts(61))
    with pytest.raises(ValueError, match="MAX_PARTITION_ORDER"):
        enumerate_multiplicity_vectors(61)
    with pytest.raises(ValueError):
        next(partition_parts(0))


def test_enumeration_returns_fresh_list():
    first = enumerate_multiplicity_vectors(5)
    first.pop()
    assert len(enumerate_multiplicity_vectors(5)) == 7


def test_weight_of_single_part_partition_is_one():
    for n in range(1, 10):
        m = tuple(0 for _ in range(n - 1)) + (1,)
        assert multinomial_weight(m) == 1


def test_weight_examples_match_set_partition_counts():
    # Independently: the weight counts set partitions with that block type.
    assert partition_type_count(4, (2, 1, 0, 0)) == 6
    assert multinomial_weight((2, 1, 0, 0)) == 6
    assert partition_type_count(3, (1, 1, 0)) == 3
    assert multinomial_weight((1, 1, 0)) == 3


@pytest.mark.parametrize("n", range(1, 8))
def test_all_weights_match_set_partition_counts(n):
    for v in enumerate_multiplicity_vectors(n):
        assert multinomial_weight(v) == partition_type_count(n, v)


@pytest.mark.parametrize(
    "n, expected", [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52), (6, 203)]
)
def test_weights_sum_to_bell_number(n, expected):
    assert bell_number_brute(n) == expected
    total = sum(multinomial_weight(v) for v in enumerate_multiplicity_vectors(n))
    assert total == expected


@pytest.mark.parametrize("n", range(1, 16))
def test_weights_are_positive_integers(n):
    for v in enumerate_multiplicity_vectors(n):
        w = multinomial_weight(v)
        assert w > 0
        assert w.denominator == 1


def test_vector_validation():
    with pytest.raises(ValueError):
        multinomial_weight(())
    with pytest.raises(ValueError):
        multinomial_weight((1, 1))  # weighted sum is 3, not its length 2
    with pytest.raises(ValueError):
        multinomial_weight((1, 1, 0, 0))  # weighted sum is 3, not 4
    with pytest.raises(ValueError):
        multinomial_weight((-1, 2, 0))


def test_weight_returns_fraction():
    assert isinstance(multinomial_weight((1,)), Fraction)
