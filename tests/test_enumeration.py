import sys

import pytest

from rsinv.enumeration import (
    COUNT_A_STEP_BOUND,
    comp_count,
    compositions,
    count_A,
    count_involutions,
    count_layered,
    generalized_layered,
    involutions,
    layered_from_composition,
    layered_permutations,
    layered_tableau,
    layered_tableaux,
    partition_count,
    partitions,
    standard_tableaux,
    verify_bounds,
)
from rsinv.errors import InstanceTooLarge
from rsinv.insertion import _inverse_rsk, _peel, f_involution, inverse_rsk, tableau_of_involution
from rsinv.permutations import is_involution, is_layered, reverse
from rsinv.tableaux import is_layered_tableau, shape, validate
from rsinv.verify import CHECKS, INSTANCE_BUDGET, brute_count_general, count_A_by_partitions


def test_partitions_order_and_counts():
    assert list(partitions(3)) == [(3,), (2, 1), (1, 1, 1)]
    assert list(partitions(0)) == [()]
    assert len(list(partitions(5))) == 7
    assert list(partitions(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_partition_count_matches_stream():
    result = CHECKS["partition-recurrence"](12)
    assert result.ok, result.failures
    assert partition_count(0) == 1
    assert partition_count(1) == 1
    assert partition_count(5) == 7
    assert partition_count(12) == 77


def test_partition_count_past_the_recursion_limit():
    n = 2000
    counts = [1] + [0] * n  # coin-change recurrence, part size by part size
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            counts[total] += counts[total - part]
    assert [partition_count(m) for m in (1000, n)] == [counts[1000], counts[n]]
    assert partition_count(1000) == 24061467864032622473692149727991
    assert partition_count(-1) == 0


def test_compositions():
    assert list(compositions(3)) == [(1, 1, 1), (1, 2), (2, 1), (3,)]
    assert list(compositions(0)) == [()]
    for n in range(1, 9):
        assert len(list(compositions(n))) == 2 ** (n - 1)


def test_comp_count():
    assert comp_count((3, 2, 1)) == 6
    assert comp_count((2, 2, 1, 1, 1)) == 10
    assert comp_count((7,)) == 1
    assert comp_count(()) == 1


def test_count_A():
    assert count_A(-1) == 0
    assert count_A(1) == 1
    assert count_A(3) == 6
    assert count_A(4) == 16


def test_count_A_matches_partition_sum():
    for n in range(31):
        assert count_A(n) == count_A_by_partitions(n), n


def test_count_A_bounds_at_200():
    # p(200) is about 4e12, so the partition sum could not reach this
    assert verify_bounds(200)


def test_partition_sum_refuses_past_the_instance_budget(monkeypatch):
    # p(60) = 966,467 partitions are summed; p(61) = 1,121,505 pass the
    # budget, and the refusal comes before any partition is listed
    assert partition_count(60) <= INSTANCE_BUDGET < partition_count(61)
    listed = []
    monkeypatch.setattr("rsinv.enumeration.partitions", lambda n: listed.append(n) or [])
    for n in (61, 100, 10**18):
        with pytest.raises(InstanceTooLarge, match="INSTANCE_BUDGET"):
            count_A_by_partitions(n)
    assert listed == []
    assert count_A_by_partitions(60) == 0 and listed == [60]


def test_count_A_refuses_past_its_step_bound():
    # n = 400 answers in under 5 s; from n = 428 the answer would take longer
    assert 400**3 // 6 <= COUNT_A_STEP_BOUND < 428**3 // 6
    with pytest.raises(InstanceTooLarge, match="COUNT_A_STEP_BOUND"):
        count_A(428)


def test_brute_count_examples():
    assert brute_count_general(1) == 1
    assert brute_count_general(3) == 6
    assert brute_count_general(4) == 16


def test_brute_count_cap():
    with pytest.raises(InstanceTooLarge):
        brute_count_general(9)


def test_layered_permutations():
    assert list(layered_permutations(3)) == [
        (1, 2, 3),
        (1, 3, 2),
        (2, 1, 3),
        (3, 2, 1),
    ]
    assert list(layered_permutations(1)) == [(1,)]
    assert sum(1 for _ in layered_permutations(10)) == 512
    assert layered_from_composition((2, 3)) == (2, 1, 5, 4, 3)


def test_involutions_stream():
    assert list(involutions(3)) == [(1, 2, 3), (1, 3, 2), (2, 1, 3), (3, 2, 1)]
    assert list(involutions(1)) == [(1,)]
    assert list(involutions(0)) == [()]
    four = list(involutions(4))
    assert len(four) == 10
    assert four == sorted(four)  # documented lexicographic order
    assert all(is_involution(p) for p in four)
    assert count_involutions(8) == 764
    assert count_involutions(10) == 9496


def test_count_involutions_past_the_recursion_limit():
    # I(n) = sum over k of n! / (k! 2^k (n-2k)!), term by term
    n = 5000
    term, total = 1, 1
    for k in range(n // 2):
        term = term * (n - 2 * k) * (n - 2 * k - 1) // (2 * (k + 1))
        total += term
    assert count_involutions(n) == total
    assert [count_involutions(m) for m in range(-1, 5)] == [0, 1, 1, 2, 4, 10]


def test_layered_tableaux_stream():
    assert list(layered_tableaux(2)) == [((1, 2),), ((1,), (2,))]
    assert len(list(layered_tableaux(3))) == 4
    assert list(layered_tableaux(0)) == [()]
    for t in layered_tableaux(6):
        assert validate(t) and is_layered_tableau(t)


def test_standard_tableaux_counts():
    # the correspondence restricts to a bijection between involutions and
    # standard tableaux: the walk yields I(n) distinct valid tableaux, the
    # insertion tableaux of the involutions (3,736 in all for n <= 9)
    for n in range(10):
        walked = list(standard_tableaux(n))
        assert len(walked) == len(set(walked)) == count_involutions(n), n
        assert all(map(validate, walked)), n
        assert set(walked) == {tableau_of_involution(q) for q in involutions(n)}, n


def test_generalized_layered():
    assert list(generalized_layered(2)) == [(1, 2), (2, 1)]
    three = list(generalized_layered(3))
    assert len(three) == count_A(3) == 6


def test_layered_tableau_of_each_composition():
    for n in range(11):
        walker = list(layered_tableaux(n))
        comps = list(compositions(n))
        assert len(walker) == len(comps), n
        for c, t in zip(comps, walker):
            w = layered_from_composition(c)
            assert layered_tableau(c) == tableau_of_involution(w) == t, c
            # layered(c)'s reverse-complement is layered(c reversed), so
            # evac(t) is layered_tableau(c[::-1]), and both routes of f's
            # last step run on t
            sharp = tuple(n + 1 - x for x in reversed(w))
            evacuated = layered_tableau(c[::-1])
            assert evacuated == tableau_of_involution(sharp), c
            image = f_involution(w)
            assert _peel(t) == reverse(_inverse_rsk(t, evacuated)) == image, c


def test_generalized_layered_matches_grouping_by_shape():
    # the construction it replaces: every layered tableau held at once,
    # grouped by shape in generation order
    for n in range(9):
        grouped = {}
        for t in layered_tableaux(n):
            grouped.setdefault(shape(t), []).append(t)
        expected = [
            inverse_rsk((p_tab, q_tab))
            for h in partitions(n)
            for p_tab in grouped[h]
            for q_tab in grouped[h]
        ]
        assert list(generalized_layered(n)) == expected, n


def stack_depth():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


def test_generators_past_a_tight_recursion_limit():
    # partitions(30) has a partition of 30 parts and standard_tableaux(200)
    # has 200 entries: far more than the 20 frames allowed here
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 20)
    try:
        parts = list(partitions(30))
        first = next(standard_tableaux(200))
    finally:
        sys.setrecursionlimit(limit)
    assert len(parts) == len(set(parts)) == partition_count(30)
    assert parts[0] == (30,) and parts[-1] == (1,) * 30
    assert first == (tuple(range(1, 201)),)


def test_family_counts_check():
    result = CHECKS["family-counts"](10)
    assert result.ok, result.failures


def test_count_layered():
    assert count_layered(1) == 1
    assert count_layered(10) == 512


def test_shape_jog_multisets():
    # when p and its inverse are both GFK-tight, jog lengths of either
    # match the row lengths of the common shape as multisets
    result = CHECKS["shape-jog-multisets"](7)
    assert result.ok, result.failures


def test_verify_bounds():
    assert verify_bounds(1)
    assert verify_bounds(4)
    assert partition_count(4) * count_A(4) == 5 * 16
    assert verify_bounds(12)


GENERATOR_COUNTS = [
    (partitions, partition_count),
    (compositions, count_layered),
    (layered_permutations, count_layered),
    (involutions, count_involutions),
    (layered_tableaux, count_layered),
    (standard_tableaux, count_involutions),
    (generalized_layered, count_A),
]


@pytest.mark.parametrize(
    "generate, count", GENERATOR_COUNTS, ids=[g.__name__ for g, _ in GENERATOR_COUNTS]
)
def test_generators_yield_nothing_for_negative_n(generate, count):
    # no object has a negative size, and each count agrees with its stream
    for n in (-1, -2, -7):
        assert list(generate(n)) == [] and count(n) == 0, n
    assert len(list(generate(0))) == count(0) == 1
