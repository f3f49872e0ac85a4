import random

import pytest

from rsinv.enumeration import brute_count_general
from rsinv.errors import DomainError, InstanceTooLarge, InvalidPermutation
from rsinv.greene import (
    _cached_profile,
    _subset_profile,
    k_decreasing_profile,
    k_increasing_profile,
    longest_k_decreasing,
    longest_k_increasing,
    oracle_is_dually_gfk_tight,
    oracle_is_gfk_tight,
)
from rsinv.insertion import is_dually_gfk_tight, is_gfk_tight
from rsinv.permutations import (
    all_permutations,
    contains_pattern,
    decreasing,
    identity,
    inverse,
    longest_decreasing,
    prefix_lds_lengths,
    record_breakers,
    reverse,
)
from rsinv.verify import (
    check_jog_lower_bound,
    check_profile_monotone,
    check_record_breaker_column,
)


def test_longest_k_increasing_examples():
    p = (7, 4, 1, 8, 5, 2, 9, 6, 3)
    assert longest_k_increasing(p, 2) == 6
    # the exhibited 2-increasing witness 748596 gives the matching lower bound
    witness = (7, 4, 8, 5, 9, 6)
    assert max(prefix_lds_lengths(witness)) == 2 and len(witness) == 6
    assert longest_k_increasing((6, 7, 3, 4, 8, 1, 2, 5, 9), 1) == 4
    assert longest_k_increasing(identity(6), 1) == 6


def test_longest_k_decreasing_examples():
    p = (2, 1, 5, 4, 3, 9, 8, 7, 6)
    assert longest_k_decreasing(p, 1) == 4
    assert longest_k_decreasing(p, 2) == 7
    for k in range(1, 5):
        assert longest_k_decreasing(identity(6), k) == k


def test_profiles_saturate():
    p = (3, 1, 4, 2)
    inc = k_increasing_profile(p)
    dec = k_decreasing_profile(p)
    assert inc == (0, 2, 4, 4, 4)
    assert dec == (0, 2, 4, 4, 4)
    assert longest_k_increasing(p, 9) == 4


def test_k_must_be_positive():
    with pytest.raises(ValueError):
        longest_k_increasing((1, 2), 0)


def test_oracle_cap(monkeypatch):
    for call in (
        lambda p: longest_k_increasing(p, 1),
        oracle_is_gfk_tight,
        oracle_is_dually_gfk_tight,
    ):
        with pytest.raises(InstanceTooLarge):
            call(identity(17))
    with pytest.raises(InstanceTooLarge):
        brute_count_general(9)
    monkeypatch.setenv("RSINV_MAX_N", "4")
    with pytest.raises(InstanceTooLarge):
        brute_count_general(5)
    assert brute_count_general(4) == 16


def test_oracle_cap_is_checked_on_cache_hits(monkeypatch):
    p = (2, 4, 1, 5, 3)
    assert k_increasing_profile(p) == (0, 3, 5, 5, 5, 5)
    assert k_increasing_profile(p) == (0, 3, 5, 5, 5, 5)  # now a cache hit
    monkeypatch.setenv("RSINV_MAX_N", "4")
    with pytest.raises(InstanceTooLarge):
        k_increasing_profile(p)
    with pytest.raises(InstanceTooLarge):
        oracle_is_gfk_tight(p)
    monkeypatch.setenv("RSINV_MAX_N", "abc")
    with pytest.raises(DomainError, match="RSINV_MAX_N"):
        longest_k_increasing(p, 2)


def reverse_complement(p):
    n = len(p)
    return tuple(n + 1 - v for v in reversed(p))


def test_symmetry_keyed_profile_equals_the_raw_scan():
    # The cache is keyed by the least of p, p^-1, p^rc and (p^rc)^-1; each
    # profile served from it must be the raw scan of p itself.
    _cached_profile.cache_clear()
    for n in range(8):
        for p in all_permutations(n):
            raw = _subset_profile(p)
            assert k_increasing_profile(p) == raw, p
            rc = reverse_complement(p)
            images = (inverse(p), rc, inverse(rc))
            assert all(_subset_profile(image) == raw for image in images), p
    # Reversal is not a symmetry: it swaps increasing and decreasing.
    assert _subset_profile((1, 2, 3)) != _subset_profile(reverse((1, 2, 3)))
    assert _cached_profile.cache_info().maxsize is not None


def test_oracle_refuses_a_non_permutation():
    for word in ((0, 1), (-1, 1), (1, 1), (3, 1), (5, 3, 9)):
        with pytest.raises(InvalidPermutation):
            k_increasing_profile(word)


def test_is_gfk_tight_examples():
    for tight in (is_gfk_tight, oracle_is_gfk_tight):
        assert tight((6, 7, 3, 4, 8, 1, 2, 5, 9))
        assert tight((1, 4, 2, 3))
        assert not tight((1, 3, 4, 2))
        assert tight(identity(7))
        assert tight(())


def test_is_dually_gfk_tight_examples():
    for tight in (is_dually_gfk_tight, oracle_is_dually_gfk_tight):
        assert tight((2, 1, 5, 4, 3, 9, 8, 7, 6))
        assert not tight((4, 2, 3, 1))
        assert tight(identity(7))


def test_fast_predicates_agree_with_oracle_and_pattern_scan():
    for n in range(7):
        for p in all_permutations(n):
            assert is_gfk_tight(p) == oracle_is_gfk_tight(p), p
            assert is_dually_gfk_tight(p) == oracle_is_dually_gfk_tight(p), p
            assert (longest_decreasing(p) > 2) == contains_pattern(p, (3, 2, 1)), p
            assert (longest_decreasing(reverse(p)) > 2) == contains_pattern(p, (1, 2, 3)), p


def test_record_breakers_examples():
    assert record_breakers((6, 5, 7, 4, 2, 1, 3)) == {1, 2, 4, 5, 6}
    assert record_breakers(identity(6)) == {1}
    assert record_breakers(decreasing(6)) == {1, 2, 3, 4, 5, 6}
    assert record_breakers(()) == set()


def test_prefix_lds_lengths():
    assert prefix_lds_lengths((6, 5, 7, 4, 2, 1, 3)) == [1, 2, 2, 3, 4, 5, 5]
    assert prefix_lds_lengths(()) == []


def quadratic_prefix_lds_lengths(p):
    # longest decreasing subsequence ending at each position, by scanning
    # every earlier position
    ending, out = [], []
    for j, x in enumerate(p):
        ending.append(1 + max((ending[i] for i in range(j) if p[i] > x), default=0))
        out.append(max(ending))
    return out


def test_prefix_lds_lengths_match_quadratic_reference():
    for n in range(9):
        for p in all_permutations(n):
            assert prefix_lds_lengths(p) == quadratic_prefix_lds_lengths(p), p
    rng = random.Random(3)
    word = [rng.randrange(1, 300) for _ in range(2000)]  # repeated values too
    assert prefix_lds_lengths(word) == quadratic_prefix_lds_lengths(word)


def test_profile_monotone_and_saturating():
    assert check_profile_monotone(7).ok


def test_jog_lower_bound():
    result = check_jog_lower_bound(8)
    assert result.ok, result.failures


def test_record_breakers_are_first_column():
    result = check_record_breaker_column(7)
    assert result.ok, result.failures
