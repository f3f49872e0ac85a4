import pytest

from rsinv.errors import InstanceTooLarge
from rsinv.greene import (
    is_dually_gfk_tight,
    is_gfk_tight,
    k_decreasing_profile,
    k_increasing_profile,
    longest_k_decreasing,
    longest_k_increasing,
    prefix_lds_lengths,
    record_breakers,
)
from rsinv.permutations import decreasing, identity
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


def test_oracle_cap():
    with pytest.raises(InstanceTooLarge):
        longest_k_increasing(tuple(range(1, 18)), 1)
    with pytest.raises(InstanceTooLarge):
        is_gfk_tight(tuple(range(1, 18)))


def test_is_gfk_tight_examples():
    assert is_gfk_tight((6, 7, 3, 4, 8, 1, 2, 5, 9))
    assert is_gfk_tight((1, 4, 2, 3))
    assert not is_gfk_tight((1, 3, 4, 2))
    assert is_gfk_tight(identity(7))
    assert is_gfk_tight(())


def test_is_dually_gfk_tight_examples():
    assert is_dually_gfk_tight((2, 1, 5, 4, 3, 9, 8, 7, 6))
    assert not is_dually_gfk_tight((4, 2, 3, 1))
    assert is_dually_gfk_tight(identity(7))


def test_record_breakers_examples():
    assert record_breakers((6, 5, 7, 4, 2, 1, 3)) == {1, 2, 4, 5, 6}
    assert record_breakers(identity(6)) == {1}
    assert record_breakers(decreasing(6)) == {1, 2, 3, 4, 5, 6}
    assert record_breakers(()) == set()


def test_prefix_lds_lengths():
    assert prefix_lds_lengths((6, 5, 7, 4, 2, 1, 3)) == [1, 2, 2, 3, 4, 5, 5]
    assert prefix_lds_lengths(()) == []


def test_profile_monotone_and_saturating():
    assert check_profile_monotone(7).ok


def test_jog_lower_bound():
    result = check_jog_lower_bound(8)
    assert result.ok, result.failures


def test_record_breakers_are_first_column():
    result = check_record_breaker_column(7)
    assert result.ok, result.failures
