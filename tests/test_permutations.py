import inspect
import random
from itertools import combinations, product

import pytest
from hypothesis import given, strategies as st

from rsinv import permutations
from rsinv.errors import (
    InstanceTooLarge,
    InvalidPermutation,
    NotInvolution,
    NotLayered,
    PatternTooLarge,
)
from rsinv.insertion import is_gfk_tight
from rsinv.permutations import (
    PATTERN_SCAN_BUDGET,
    Interval,
    all_permutations,
    avoids,
    check_involution,
    classify_entries,
    contains_pattern,
    decreasing,
    descent_set,
    format_permutation,
    identity,
    inverse,
    is_involution,
    is_layered,
    is_permutation,
    jog_lengths,
    jogs,
    layers,
    parse_permutation,
    pattern_of,
    reverse,
    reverse_jogs,
)


@st.composite
def perms(draw, max_n=9):
    n = draw(st.integers(min_value=0, max_value=max_n))
    return tuple(draw(st.permutations(range(1, n + 1))))


def intervals(pairs):
    return [Interval(lo, hi) for lo, hi in pairs]


# ------------------------------------------------------------ basic operations


@pytest.mark.parametrize(
    "p, expected",
    [
        ((1, 4, 2, 3), (1, 3, 4, 2)),
        ((2, 1, 5, 4, 3), (2, 1, 5, 4, 3)),
        (identity(6), identity(6)),
        ((), ()),
    ],
)
def test_inverse(p, expected):
    assert inverse(p) == expected


@pytest.mark.parametrize(
    "p, expected",
    [
        ((2, 1, 4, 3), (3, 4, 1, 2)),
        ((3, 2, 1), (1, 2, 3)),
        ((), ()),
    ],
)
def test_reverse(p, expected):
    assert reverse(p) == expected


@pytest.mark.parametrize(
    "p, expected",
    [
        ((2, 1, 5, 4, 3, 9, 8, 7, 6), True),
        ((1, 3, 4, 2), False),
        ((6, 7, 3, 4, 8, 1, 2, 5, 9), True),
        (identity(5), True),
        ((), True),
        ((2,), False),
        ((3, 1), False),
        ((None, 1), False),
        ((0, 1), False),
        ((1, 1), False),
    ],
)
def test_is_involution(p, expected):
    assert is_involution(p) is expected


def test_classify_entries():
    fixed, small, large = classify_entries((1, 3, 2, 5, 4, 6, 7))
    assert fixed == {1, 6, 7}
    assert small == {2, 4}
    assert large == {3, 5}
    assert classify_entries(identity(4)) == (frozenset({1, 2, 3, 4}), frozenset(), frozenset())
    assert classify_entries((2, 1)) == (frozenset(), frozenset({1}), frozenset({2}))


def test_classify_entries_rejects_non_involution():
    with pytest.raises(NotInvolution, match=r"not an involution: \(1, 3, 4, 2\)"):
        classify_entries((1, 3, 4, 2))
    for word in ((2,), (3, 1)):
        with pytest.raises(InvalidPermutation):
            classify_entries(word)


def test_the_single_passes_refuse_every_word_that_is_not_a_permutation():
    # check_involution decides with is_involution, and is_gfk_tight with the
    # inverse inside jog_lengths, so neither sorts a word it accepts: each
    # pass must refuse every word that is_permutation's sort refuses.
    values = (-3, -1, 0, 1, 2, 3, 4, 5, None, 2.0, True)
    for n in range(5):
        for word in product(values, repeat=n):
            permutation = is_permutation(word)
            assert permutation or not is_involution(word), word
            try:
                inverse(word)
            except InvalidPermutation:
                assert not permutation, word
            else:
                assert permutation, word
    for check in (check_involution, is_gfk_tight):
        with pytest.raises(InvalidPermutation, match=r"^not a permutation of 1..2: \(1, 1\)$"):
            check([1, 1])
    with pytest.raises(NotInvolution, match=r"^not an involution: \(2, 3, 1\)$"):
        check_involution([2, 3, 1])


@pytest.mark.parametrize(
    "p, expected",
    [
        ((2, 1, 5, 4, 3, 9, 8, 7, 6), {1, 3, 4, 6, 7, 8}),
        (identity(7), set()),
        ((3, 2, 1), {1, 2}),
    ],
)
def test_descent_set(p, expected):
    assert descent_set(p) == expected


# ----------------------------------------------------------- jogs and layers


def test_jogs_examples():
    assert jogs((3, 6, 1, 4, 7, 2, 5)) == intervals([(1, 2), (3, 5), (6, 7)])
    assert jogs((6, 7, 3, 4, 8, 1, 2, 5, 9)) == intervals([(1, 2), (3, 5), (6, 9)])
    assert jogs(identity(5)) == [Interval(1, 5)]
    assert jogs(()) == []


def test_reverse_jogs_examples():
    assert reverse_jogs((3, 2, 1, 5, 4)) == intervals([(1, 3), (4, 5)])
    assert reverse_jogs((3, 6, 1, 4, 7, 2, 5)) == intervals(
        [(1, 1), (2, 3), (4, 4), (5, 6), (7, 7)]
    )
    assert reverse_jogs(identity(4)) == intervals([(1, 1), (2, 2), (3, 3), (4, 4)])


def _jogs_by_definition(p):
    # i and i+1 share a jog exactly when i precedes i+1 in p
    where = {v: i for i, v in enumerate(p)}
    blocks = []
    for v in range(1, len(p) + 1):
        if v > 1 and where[v - 1] < where[v]:
            blocks[-1].append(v)
        else:
            blocks.append([v])
    return blocks


def test_jog_lengths_are_the_jogs_lengths_longest_first():
    # jogs and jog_lengths share one loop, so each is checked against the
    # definition rather than against the other
    rng = random.Random(17)
    words = [p for n in range(8) for p in all_permutations(n)]
    words += [tuple(rng.sample(range(1, 2001), 2000)) for _ in range(3)]
    words += [(), identity(2000), decreasing(2000)]
    for p in words:
        blocks = _jogs_by_definition(p)
        assert jogs(p) == [Interval(block[0], block[-1]) for block in blocks], p
        assert jog_lengths(p) == sorted(map(len, blocks), reverse=True), p
    assert jog_lengths(identity(2000)) == [2000]
    assert jog_lengths(decreasing(2000)) == [1] * 2000
    assert jog_lengths((3, 6, 1, 4, 7, 2, 5)) == [3, 2, 2]


def test_layers_examples():
    assert is_layered((2, 1, 5, 4, 3, 7, 6))
    assert layers((2, 1, 5, 4, 3, 7, 6)) == intervals([(1, 2), (3, 5), (6, 7)])
    assert not is_layered((2, 3, 1))
    assert layers(decreasing(6)) == [Interval(1, 6)]
    assert is_layered(()) and layers(()) == []


def test_layers_rejects_unlayered():
    with pytest.raises(NotLayered):
        layers((2, 3, 1))
    with pytest.raises(NotLayered):
        layers((None, 1))
    # A first value far past n is refused before a layer that long is built.
    with pytest.raises(NotLayered):
        layers((10**12,))


@pytest.mark.parametrize("word", [(3, 1), (1, 1), (0, 1), (2, 0), (None, 1)])
@pytest.mark.parametrize("decompose", [inverse, jogs, jog_lengths, reverse_jogs])
def test_non_permutation_refused(decompose, word):
    with pytest.raises(InvalidPermutation):
        decompose(word)


@given(perms(max_n=8))
def test_involution_roundtrips(p):
    assert inverse(inverse(p)) == p
    assert reverse(reverse(p)) == p


@given(perms(max_n=8))
def test_jogs_partition_values(p):
    for blocks in (jogs(p), reverse_jogs(p)):
        covered = [v for block in blocks for v in block.values()]
        assert covered == list(range(1, len(p) + 1))


def _ascending_runs(p):
    # maximal runs of consecutive positions carrying increasing entries
    runs, start = [], 0
    for i in range(1, len(p) + 1):
        if i == len(p) or p[i] < p[i - 1]:
            runs.append((start + 1, i))
            start = i
    return runs


def test_involution_jogs_are_ascending_runs():
    for n in range(9):
        for p in all_permutations(n):
            if not is_involution(p):
                continue
            assert [tuple(b) for b in jogs(p)] == _ascending_runs(p), p


def test_layered_iff_avoids_231_and_312():
    # the classical two-pattern characterization of layered permutations
    for n in range(8):
        for p in all_permutations(n):
            expected = not contains_pattern(p, (2, 3, 1)) and not contains_pattern(
                p, (3, 1, 2)
            )
            assert is_layered(p) is expected, p
    # 132 itself is layered (layers 1|32), so {231, 132} would be the wrong pair
    assert is_layered((1, 3, 2)) and contains_pattern((1, 3, 2), (1, 3, 2))


def test_layers_of_layered_are_reverse_jogs():
    for n in range(9):
        for p in all_permutations(n):
            if is_layered(p):
                assert layers(p) == reverse_jogs(p), p


def test_layered_filter_count_matches_formula():
    # sweep of the whole symmetric group at small n; the stream generator
    # covers the larger sizes in test_enumeration
    for n in range(1, 8):
        assert sum(is_layered(p) for p in all_permutations(n)) == 2 ** (n - 1)


# ------------------------------------------------------------------ patterns


def test_contains_pattern_examples():
    assert not contains_pattern((6, 5, 7, 4, 2, 1, 3), (1, 2, 3))
    assert not contains_pattern((3, 2, 1), (1, 2, 3))
    assert contains_pattern((7, 4, 1, 8, 5, 2, 9, 6, 3), (1, 2, 3))


def test_contains_pattern_longer_than_word():
    assert not contains_pattern((2, 1), (1, 2, 3))


def test_pattern_cap():
    with pytest.raises(PatternTooLarge):
        contains_pattern(identity(8), identity(7))


def test_avoids_agrees_with_the_scan():
    # Monotone patterns are answered by patience sorting, every other one by
    # the scan itself, which needs checking only at small n for the dispatch.
    every = [q for k in range(5) for q in all_permutations(k)]
    monotone = [q for k in range(5) for q in (identity(k), decreasing(k))]
    for n in range(8):
        for p in all_permutations(n):
            for q in every if n <= 5 else monotone:
                assert avoids(p, q) == (not contains_pattern(p, q)), (p, q)


def test_monotone_patterns_answer_past_the_scan_budget():
    word = decreasing(400)
    assert avoids(word, (1, 2, 3, 4))
    assert not avoids(word, (4, 3, 2, 1))
    assert avoids(identity(400), (3, 2, 1))
    with pytest.raises(PatternTooLarge):
        avoids(word, identity(7))
    for call in (avoids, contains_pattern):
        with pytest.raises(InstanceTooLarge, match="C\\(400, 4\\)"):
            call(word, (2, 1, 4, 3))
    # the budget sits well above the scans of small words
    assert PATTERN_SCAN_BUDGET > 500 * 1820  # C(16, 4)


def test_contains_pattern_checks_the_pattern_on_every_call():
    # The search tables are built once per pattern and then reused, but
    # every call still checks the pattern first.  (1.0, 2.0) equals (1, 2)
    # and hashes like it, so a table lookup before the check would answer
    # it.  test_contains_pattern_agrees_with_standardization checks the
    # answers with the tables reused.
    for q in ((1, 2), (2, 1), (1, 2, 3)):
        assert contains_pattern((2, 1, 3), q) == (q != (1, 2, 3))
    for bad in ([[1]], (1, 1), (0, 1), (1.0, 2.0), (None, 1)):
        with pytest.raises(InvalidPermutation):
            contains_pattern((2, 1, 3), bad)
    assert contains_pattern((2, 1, 3), (True, 2))  # a bool is 0 or 1
    with pytest.raises(PatternTooLarge):
        contains_pattern(identity(8), identity(7))
    with pytest.raises(InstanceTooLarge):
        contains_pattern(decreasing(400), (2, 1, 4, 3))


def test_contains_pattern_agrees_with_standardization():
    # the search against pattern_of, the definition of order type, on
    # every pattern of length <= 4 and every word of length <= 7
    every = [q for k in range(5) for q in all_permutations(k)]
    for n in range(8):
        for p in all_permutations(n):
            contained = {pattern_of(sub) for k in range(5) for sub in combinations(p, k)}
            for q in every:
                assert contains_pattern(p, q) == (q in contained), (p, q)
    # a repeated value has no order type, so it matches no pattern
    assert not contains_pattern((1, 1), (1, 2))
    assert contains_pattern((2, 2, 1, 3), (2, 1, 3))


def test_contains_pattern_agrees_with_standardization_for_long_patterns():
    # every pattern of length 5 and 6, on seeded words of length 9, some
    # with repeated values
    rng = random.Random(11)
    words = [tuple(rng.sample(range(1, 10), 9)) for _ in range(12)]
    words += [tuple(rng.choice(range(1, 7)) for _ in range(9)) for _ in range(4)]
    patterns = [q for k in (5, 6) for q in all_permutations(k)]
    found = 0
    for p in words:
        contained = {pattern_of(sub) for k in (5, 6) for sub in combinations(p, k)}
        for q in patterns:
            assert contains_pattern(p, q) == (q in contained), (p, q)
        found += len(contained & set(patterns))
    assert 0 < found < len(words) * len(patterns)


def test_pattern_of():
    assert pattern_of((6, 2, 9)) == (2, 1, 3)
    assert pattern_of(()) == ()


# ------------------------------------------------------------------- parsing


@pytest.mark.parametrize(
    "text, expected",
    [
        ("2 1 5 4 3", (2, 1, 5, 4, 3)),
        ("21543", (2, 1, 5, 4, 3)),
        ("  1  ", (1,)),
        ("", ()),
        ("10 2 3 4 5 6 7 8 9 1", (10, 2, 3, 4, 5, 6, 7, 8, 9, 1)),
    ],
)
def test_parse_permutation(text, expected):
    assert parse_permutation(text) == expected


@pytest.mark.parametrize("text", ["1234567891", "2 2 1", "abc", "0 1", "12x", "²", "1²"])
def test_parse_permutation_rejects(text):
    with pytest.raises(InvalidPermutation):
        parse_permutation(text)


@given(perms(max_n=12))
def test_format_parse_roundtrip(p):
    assert parse_permutation(format_permutation(p)) == p


def test_is_permutation_and_positions():
    assert is_permutation((3, 1, 2))
    assert not is_permutation((3, 1, 1))
    # words that cannot be sorted, or that hold non-integers equal to 1..n
    assert is_permutation((None, 1)) is False
    assert is_permutation(("a", 1)) is False
    assert is_permutation((2.0, 1.0)) is False
    assert inverse((3, 1, 2)) == (2, 3, 1)


def _outcome(function, *args):
    try:
        return "answer", function(*args)
    except Exception as exc:  # the refusal's type is the outcome
        return "raise", type(exc)


def test_an_iterator_gets_its_tuples_answer_or_a_type_error():
    # Every public function, given an iterator over a word in any argument
    # place, answers as it does on the tuple or raises TypeError: it never
    # reads the word twice and answers from what the first read left.
    words = [(), (1,), (2, 1), (3, 1, 2), (2, 1, 3), (1, 1), (0, 1), (2, 3, 1)]
    words += [(3, 6, 1, 4, 7, 2, 5), (2, 1, 5, 4, 3, 7, 6), (6, 5, 7, 4, 2, 1, 3)]
    called = set()
    for name, function in vars(permutations).items():
        if name.startswith("_") or getattr(function, "__module__", "") != permutations.__name__:
            continue
        if not inspect.isfunction(function):
            continue
        called.add(name)
        places = len(inspect.signature(function).parameters)
        for word, place in product(words, range(places)):
            args = [word, (3, 1, 2, 4)][:places] if place == 0 else [(3, 1, 2, 4), word]
            want = _outcome(function, *args)
            args[place] = iter(word)
            got = _outcome(function, *args)
            assert got in (want, ("raise", TypeError)), (name, word, place, want, got)
    assert {"is_involution", "pattern_of", "contains_pattern", "avoids"} <= called
