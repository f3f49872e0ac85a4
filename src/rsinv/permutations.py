"""Permutations in one-line notation and their structural decompositions.

A permutation of length n is a tuple of the values 1..n, each exactly once;
``p[i]`` is the value in position i+1 (positions and values are 1-based
throughout, the empty tuple is the length-0 permutation).  Results are
plain tuples.  On a word that is not a permutation, such as (1, 1), (0, 1)
or (None, 1), the predicates answer False, ``inverse``, ``jogs``,
``jog_lengths`` and ``reverse_jogs`` raise InvalidPermutation, and
``layers`` NotLayered.  ``is_involution`` and ``inverse`` each refuse
every word that is not a permutation in their own single pass, so
``check_involution`` decides with the first and ``insertion.is_gfk_tight``
with the second, and neither sorts a word it accepts.
``reverse``, ``descent_set``, ``prefix_lds_lengths``, ``longest_decreasing``
and ``record_breakers`` take any integer word.  A word given as an
iterator gets its tuple's answer, or a TypeError: no function answers
from what a first read of it left.

The jogs of p are the ascending runs of p^-1, and one loop, ``_jog_runs``,
counts their lengths for every reader: ``jogs`` turns the counts into
intervals, ``jog_lengths`` sorts them, and the subset oracle, ``verify``
and ``direct.f_gfk_tight_direct`` read them from an inverse they hold
already (an involution is its own).  Each reader gets a fresh list, so the
ones that want the longest first sort it in place.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from functools import cache
from itertools import accumulate, permutations as _permutations
from math import comb, inf
from operator import index
from typing import Iterator, NamedTuple, Sequence

from .errors import (
    InstanceTooLarge,
    InvalidPermutation,
    NotInvolution,
    NotLayered,
    PatternTooLarge,
)

Perm = tuple[int, ...]

#: largest pattern length accepted by ``avoids`` and the containment search
MAX_PATTERN_LENGTH = 6

#: most position subsets, C(n, k) for a word of length n and a pattern of
#: length k, that the containment search may have to consider; past it the
#: search refuses before it starts.  Each step of the search extends a
#: partial match by one position, so it takes at most about that many
#: steps, and far fewer when prefixes leave the pattern's order early.  An
#: avoided pattern on a monotone word near the budget (C(180, 3), C(60, 4)
#: or C(32, 6) subsets) took 0.05 to 0.2 s, where a scan of every subset
#: took about a second.  C(16, 4) = 1820.
PATTERN_SCAN_BUDGET = 10**6


class Interval(NamedTuple):
    """The consecutive-integer set {lo, lo+1, ..., hi} (inclusive, lo <= hi)."""

    lo: int
    hi: int

    def values(self) -> range:
        return range(self.lo, self.hi + 1)


class EntryClassification(NamedTuple):
    """Partition of 1..n into fixed points and the two halves of 2-cycles."""

    fixed: frozenset[int]
    small: frozenset[int]
    large: frozenset[int]


def is_permutation(values: Sequence[int]) -> bool:
    """
    Check that ``values`` is a rearrangement of the integers 1..n where
    n = len(values).  A word with an entry that is not an integer, such as
    None or 2.0, is not one.

    >>> [is_permutation(w) for w in [(), (1,), (2, 1), (1, 1), (0, 1), (None, 1)]]
    [True, True, True, False, False, False]
    """
    return _in_value_order(values) is not None


def _in_value_order(values: Sequence[int]) -> list[int] | None:
    # The entries as ints, sorted, when they are 1..n each once, else None.
    # operator.index returns an int as itself, so item s-1 is the entry of
    # value s as the caller's own int object: rsk records it in Q instead
    # of making a new int for each step.
    try:
        ordered = sorted(map(index, values))
    except TypeError:
        return None
    return ordered if ordered == list(range(1, len(values) + 1)) else None


def _check_in_value_order(values: Sequence[int]) -> tuple[Perm, list[int]]:
    # check_permutation, also returning the entries in value order.
    p = tuple(values)
    ordered = _in_value_order(p)
    if ordered is None:
        raise InvalidPermutation(f"not a permutation of 1..{len(p)}: {p}")
    return p, ordered


def check_permutation(values: Sequence[int]) -> Perm:
    """Return ``values`` as a tuple, raising InvalidPermutation if it is not one."""
    return _check_in_value_order(values)[0]


def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def decreasing(n: int) -> Perm:
    """The reversing permutation n, n-1, ..., 1."""
    return tuple(range(n, 0, -1))


def parse_permutation(text: str) -> Perm:
    """
    Parse a permutation from text.

    Two formats are accepted: whitespace-separated integers ("2 1 5 4 3")
    and, for n <= 9 only, a compact digit string ("21543").  The compact
    form is rejected for longer inputs because values would need two digits.

    >>> parse_permutation("2 1 5 4 3")
    (2, 1, 5, 4, 3)
    >>> parse_permutation("21543")
    (2, 1, 5, 4, 3)
    """
    stripped = text.strip()
    if not stripped:
        return ()
    if any(ch.isspace() for ch in stripped):
        try:
            values = [int(tok) for tok in stripped.split()]
        except ValueError as exc:
            raise InvalidPermutation(f"bad permutation token in {text!r}") from exc
    elif stripped.isdecimal():
        if len(stripped) > 9:
            raise InvalidPermutation(
                f"compact digit form only supports n <= 9, got {len(stripped)} digits;"
                " use whitespace-separated values"
            )
        values = [int(ch) for ch in stripped]
    else:
        raise InvalidPermutation(f"cannot parse permutation from {text!r}")
    return check_permutation(values)


def format_permutation(p: Sequence[int]) -> str:
    """One-line form as whitespace-separated values (unambiguous for n >= 10)."""
    return " ".join(str(v) for v in p)


def inverse(p: Sequence[int]) -> Perm:
    """
    The inverse permutation q, with q[p[i]] = i for all positions i.
    Raises InvalidPermutation when p is not a permutation.

    >>> inverse((1, 4, 2, 3))
    (1, 3, 4, 2)
    """
    n = len(p)
    q = [0] * n
    try:
        for i, v in enumerate(p, 1):
            q[v - 1] = i
    except (IndexError, TypeError):
        pass  # a fill cut short leaves a 0 in q
    # A value v below 1 fills slot v - 1 + n, so with no 0 in q it cuts the sum by n.
    if 0 in q or sum(p) != n * (n + 1) // 2:
        raise InvalidPermutation(f"not a permutation of 1..{n}: {tuple(p)}")
    return tuple(q)


def reverse(p: Sequence[int]) -> Perm:
    """The reverse word: entries in reversed position order."""
    return tuple(p[::-1])


def is_involution(p: Sequence[int]) -> bool:
    """
    True iff p composed with itself is the identity; False for a word that
    is not a permutation.

    >>> [is_involution(w) for w in [(2, 1, 3), (2, 3, 1), (2,), (3, 1), (None, 1)]]
    [True, False, False, False, False]
    """
    # p is read once, as a tuple, so an iterator answers as its tuple does.
    # A value past n, or not an integer, cannot index p.  One below 1 indexes
    # from the end, but then some m in 1..n is missing, so p_(p_m) = m fails.
    try:
        p = tuple(p)
        return all(p[v - 1] == i + 1 for i, v in enumerate(p))
    except (IndexError, TypeError):
        return False


def check_involution(p: Sequence[int]) -> Perm:
    """Return p as a tuple, raising InvalidPermutation if it is not a
    permutation and NotInvolution if it is not an involution.  is_involution
    decides, in one pass, as it refuses every word that is not a
    permutation; check_permutation runs only to name a refusal."""
    p = tuple(p)
    if not is_involution(p):
        check_permutation(p)
        raise NotInvolution(f"not an involution: {p}")
    return p


def classify_entries(p: Sequence[int]) -> EntryClassification:
    """
    Split the entries of an involution into fixed points, small entries
    (lesser halves of 2-cycles) and large entries (greater halves).

    >>> classify_entries((2, 1, 3)) == (frozenset({3}), frozenset({1}), frozenset({2}))
    True
    """
    fixed, small, large = set(), set(), set()
    for i, v in enumerate(check_involution(p), start=1):
        if v == i:
            fixed.add(i)
        elif i < v:
            small.add(i)
            large.add(v)
    return EntryClassification(frozenset(fixed), frozenset(small), frozenset(large))


def descent_set(p: Sequence[int]) -> set[int]:
    """Positions i (1-based, i < n) where p_i > p_{i+1}."""
    return {i + 1 for i in range(len(p) - 1) if p[i] > p[i + 1]}


def _jog_runs(pos: Sequence[int]) -> list[int]:
    # The lengths of the ascending runs of pos, in order; pos is not
    # checked.  Read as pos = p^-1 they are the lengths of p's jogs, lowest
    # values first: v and v+1 share a jog exactly when v precedes v+1 in p,
    # an ascent of pos.  A fresh list, which a caller may sort in place.
    runs = []
    run = last = 0
    for q in pos:
        if q < last:
            runs.append(run)
            run = 0
        run += 1
        last = q
    if run:
        runs.append(run)
    return runs


def jogs(p: Sequence[int]) -> list[Interval]:
    """
    Decompose 1..n into jogs: maximal sets of consecutive integers whose
    positions in p increase.  Values i and i+1 share a jog exactly when i
    precedes i+1 in p.  Returned in increasing order of interval start.

    >>> jogs((3, 6, 1, 4, 7, 2, 5))
    [Interval(lo=1, hi=2), Interval(lo=3, hi=5), Interval(lo=6, hi=7)]
    """
    runs = _jog_runs(inverse(p))
    return [Interval(hi - run + 1, hi) for run, hi in zip(runs, accumulate(runs))]


def jog_lengths(p: Sequence[int]) -> list[int]:
    """
    The lengths of the jogs of p, longest first, without building the
    intervals: what the GFK-tightness tests compare.

    >>> jog_lengths((3, 6, 1, 4, 7, 2, 5))
    [3, 2, 2]
    """
    lengths = _jog_runs(inverse(p))
    lengths.sort(reverse=True)
    return lengths


def reverse_jogs(p: Sequence[int]) -> list[Interval]:
    """
    Decompose 1..n into reverse jogs: maximal sets of consecutive integers
    whose positions in p decrease (i+1 precedes i).  These are the jogs of
    the reversed word.  Increasing order of interval start.

    >>> reverse_jogs((3, 2, 1, 5, 4))
    [Interval(lo=1, hi=3), Interval(lo=4, hi=5)]
    """
    return jogs(reverse(p))


def _layer_tops(p: Sequence[int]) -> list[int] | None:
    # The largest value of each layer, left to right, or None when p is not
    # layered.  The layers before position base hold 1..base, so the next
    # runs from p[base] down to base + 1; is_permutation then refuses
    # entries like 1.0.
    tops = []
    base = 0
    while base < len(p):
        top = p[base]
        if not (isinstance(top, int) and base < top <= len(p)):
            return None
        if list(p[base:top]) != list(range(top, base, -1)):
            return None
        tops.append(top)
        base = top
    return tops if is_permutation(p) else None


def is_layered(p: Sequence[int]) -> bool:
    """
    True iff p is a concatenation of decreasing blocks, each block's values
    all smaller than the next block's.  The empty permutation is layered.
    """
    return _layer_tops(p) is not None


def layers(p: Sequence[int]) -> list[Interval]:
    """
    The layers of a layered permutation as value intervals in increasing
    order.  Raises NotLayered when p is not layered.

    >>> layers((2, 1, 5, 4, 3, 7, 6))
    [Interval(lo=1, hi=2), Interval(lo=3, hi=5), Interval(lo=6, hi=7)]
    """
    tops = _layer_tops(p)
    if tops is None:
        raise NotLayered(f"not layered: {tuple(p)}")
    return [Interval(lo + 1, top) for lo, top in zip([0] + tops, tops)]


def prefix_lds_lengths(p: Sequence[int]) -> list[int]:
    """Longest strictly decreasing subsequence length of each prefix of p,
    by patience sorting in O(n log n) (no subset scan, no insertion):
    tails[k] is the largest possible last entry, negated, of a decreasing
    subsequence of length k+1 so far."""
    tails: list[int] = []
    out = []
    for x in p:
        j = bisect_left(tails, -x)
        if j == len(tails):
            tails.append(-x)
        else:
            tails[j] = -x
        out.append(len(tails))
    return out


def longest_decreasing(p: Sequence[int]) -> int:
    """
    Length of the longest strictly decreasing subsequence of p; 0 for the
    empty word.  p avoids 321 exactly when this is at most 2, and avoids
    123 exactly when the same holds for the reversed word.

    >>> longest_decreasing((6, 5, 7, 4, 2, 1, 3)), longest_decreasing(())
    (5, 0)
    """
    prefix = prefix_lds_lengths(p)
    return prefix[-1] if prefix else 0


def record_breakers(p: Sequence[int]) -> set[int]:
    """
    Positions where the longest decreasing subsequence of the prefix grows.

    >>> sorted(record_breakers((6, 5, 7, 4, 2, 1, 3)))
    [1, 2, 4, 5, 6]
    """
    prefix = prefix_lds_lengths(p)
    return {
        i + 1
        for i, value in enumerate(prefix)
        if value > (prefix[i - 1] if i else 0)
    }


def pattern_of(values: Sequence[int]) -> Perm:
    """The order-isomorphic permutation (standardization) of distinct values."""
    values = tuple(values)
    order = sorted(values)
    rank = {v: r + 1 for r, v in enumerate(order)}
    return tuple(rank[v] for v in values)


@cache
def _pattern_bounds(pattern: Perm) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # The value matched to place t must lie strictly between the values
    # matched to below[t] and above[t], the earlier places whose pattern
    # values are next below and next above q[t].  Places k and k+1 hold
    # sentinels for "none".  The bounds are strict, so a match never
    # repeats a value: a repeated value has no order type to match.  The
    # tables depend on the pattern alone, so each is built once.  The keys
    # are validated patterns of length 1 to MAX_PATTERN_LENGTH, at most
    # 1! + ... + 6! = 873 of them, so the cache needs no bound.
    k = len(pattern)
    place = [0] * (k + 1)
    for t, v in enumerate(pattern):
        place[v] = t
    below, above, seen = [], [], []
    for v in pattern:
        r = bisect_right(seen, v)
        below.append(place[seen[r - 1]] if r else k)
        above.append(place[seen[r]] if r < len(seen) else k + 1)
        insort(seen, v)
    return tuple(below), tuple(above)


def contains_pattern(p: Sequence[int], q: Sequence[int]) -> bool:
    """
    Exhaustive containment: does some subsequence of p have the same
    relative order as q?  A search extends a partial match one pattern
    place at a time, left to right in p, and prunes a prefix as soon as it
    leaves q's order, so an answer costs at most the C(n, k) subsets of
    size k = len(q) and usually far fewer.  k is capped at
    MAX_PATTERN_LENGTH and C(n, k) at PATTERN_SCAN_BUDGET (InstanceTooLarge
    past it), both checked before the search.  Independent of patience
    sorting and of insertion.

    >>> contains_pattern((6, 5, 7, 4, 2, 1, 3), (1, 2, 3))
    False
    >>> contains_pattern((7, 4, 1, 8, 5, 2, 9, 6, 3), (1, 2, 3))
    True
    """
    pattern = check_permutation(q)
    k = len(pattern)
    if k > MAX_PATTERN_LENGTH:
        raise PatternTooLarge(f"pattern length {k} exceeds cap {MAX_PATTERN_LENGTH}")
    n = len(p)
    if k > n:
        return False
    if not pattern:
        return True
    subsets = comb(n, k)
    if subsets > PATTERN_SCAN_BUDGET:
        raise InstanceTooLarge(
            f"pattern scan capped at {PATTERN_SCAN_BUDGET} subsets,"
            f" got C({n}, {k}) = {subsets}"
        )
    below, above = _pattern_bounds(pattern)
    match = [0] * k + [-inf, inf]
    last = k - 1

    def extend(t: int, start: int) -> bool:
        lo, hi = match[below[t]], match[above[t]]
        for j in range(start, n - last + t):
            x = p[j]
            if lo < x < hi:
                if t == last:
                    return True
                match[t] = x
                if extend(t + 1, j + 1):
                    return True
        return False

    return extend(0, 0)


def avoids(p: Sequence[int], q: Sequence[int]) -> bool:
    """
    True iff no subsequence of p has the relative order of q.  For the
    monotone patterns 1 2 ... k and k ... 2 1 that holds exactly when the
    longest increasing (decreasing) subsequence of p is shorter than k,
    found by patience sorting in O(n log n); any other pattern goes to the
    containment search and its budget.  A pattern longer than
    MAX_PATTERN_LENGTH is refused, monotone or not.

    >>> avoids(decreasing(400), (1, 2, 3, 4)), avoids((2, 4, 1, 3), (2, 1, 4, 3))
    (True, True)
    """
    pattern = check_permutation(q)
    k = len(pattern)
    if k <= MAX_PATTERN_LENGTH and pattern == identity(k):
        return longest_decreasing(reverse(p)) < k
    if k <= MAX_PATTERN_LENGTH and pattern == decreasing(k):
        return longest_decreasing(p) < k
    return not contains_pattern(p, pattern)


def all_permutations(n: int) -> Iterator[Perm]:
    """All permutations of length n in lexicographic order."""
    return _permutations(range(1, n + 1))
