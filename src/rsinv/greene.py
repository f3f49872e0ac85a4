"""Insertion-free oracle for longest k-increasing / k-decreasing
subsequences and the GFK-tightness predicates it decides.

A k-increasing subsequence is a union of k increasing subsequences; by
Dilworth's theorem a position subset qualifies exactly when its induced
subsequence has no decreasing subsequence of length k+1.  The oracle
finds the largest qualifying subset for every k at once.  It is
deliberately independent of the Robinson-Schensted machinery and of
patience sorting: nothing here imports ``rsinv.insertion``, whose
Greene-theorem predicates this module checks.

It is a dynamic programme over positions instead of a walk of all 2^n
subsets.  A chosen subset acts on later positions only through tops[c],
the largest chosen value that ends a decreasing chain longer than c: a
later value x ends a chain of length 1 + #{c : tops[c] > x}, and the
longest chain in the subset is len(tops).  Each top is raised to the
least value still to come that is above it, or to n+1 if there is none.
No value still to come lies between a top and its raised value, so every
later comparison comes out the same: subsets whose raised tops are equal
have the same futures, and only the largest of them needs keeping.  At
the end the largest subset with longest chain k is read off each state,
and prefix maxima give the profile.  The merging is what makes it fast.
Without it the decreasing word of length n keeps 2^n states; with it the
most states alive at once were 21 over every permutation with n <= 8,
144 over 300 seeded random permutations with n = 16, and 17 on the
decreasing word of length 16.

The profile depends only on the dominance order of the points (i, p_i)
of the diagram, and two maps of the diagram preserve its chains:
transposing it (p -> p^-1) and turning it by 180 degrees (p -> p^rc, with
p^rc_i = n+1 - p_(n+1-i)).  So p, p^-1, p^rc and (p^rc)^-1 share one
profile, and a profile is computed and cached once per orbit of that
four-element group, under the least of the four images.  Reversal alone
is not in the group: it swaps increasing and decreasing chains, so (1, 2, 3)
and (3, 2, 1) have different profiles.  The cache holds 2^14 orbits, more
than the 12,242 of all permutations with n <= 8, and every call checks
the size cap, ORACLE_CAP = 16, before the cache.  The k-decreasing
profile and dual tightness of p are the k-increasing profile and
tightness of the reversed word, so one programme and one cache serve
both sides.
"""
from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from typing import Sequence

from .errors import InstanceTooLarge
from .permutations import Interval, inverse, jogs, reverse

#: largest n the subset oracle will accept
ORACLE_CAP = 16

#: orbits of cached profiles, enough for every permutation with n <= 8
CACHE_SIZE = 2**14


def oracle_cap() -> int:
    """The largest n the subset oracle accepts, ORACLE_CAP."""
    return ORACLE_CAP


def _subset_profile(values: tuple[int, ...]) -> tuple[int, ...]:
    # best[k] = largest subset whose induced subsequence has no decreasing
    # chain of length k+1, by the dynamic programme of the module docstring.
    # A state is tops, nonincreasing: tops[c] is the largest chosen value
    # ending a decreasing chain longer than c, raised to the least value
    # still to come above it (n+1 if none).  Each key keeps its largest
    # chosen count.
    n = len(values)
    # ups[i]: the least value after position i above values[i], n+1 if
    # none, found right to left in the sorted values seen so far.
    ups = [0] * n
    later = [n + 1]
    for i in range(n - 1, -1, -1):
        j = bisect_left(later, values[i])
        ups[i] = later[j]
        later.insert(j, values[i])
    states: dict[tuple[int, ...], int] = {(): 0}
    for x, u in zip(values, ups):
        grown: dict[tuple[int, ...], int] = {}
        for tops, size in states.items():
            e = 0  # x ends a chain of length e+1
            for t in tops:
                if t <= x:
                    break
                e += 1
            # A top equal to x stands for a chosen value below x raised to
            # x.  Now x has passed, so it rises to u, as does x itself once
            # chosen: the key is the same whether x is chosen or not, and
            # choosing it is larger.  Otherwise a chosen x replaces tops[e],
            # which is below x, or starts a longer chain.
            same = tops.count(x)
            if same:
                key = tops[:e] + (u,) * same + tops[e + same :]
            else:
                key = tops[:e] + (u,) + tops[e + 1 :]
                if grown.get(tops, -1) < size:
                    grown[tops] = size
            if grown.get(key, -1) <= size:
                grown[key] = size + 1
        states = grown
    best = [0] * (n + 1)
    for tops, size in states.items():
        if size > best[len(tops)]:
            best[len(tops)] = size
    for k in range(1, n + 1):
        if best[k] < best[k - 1]:
            best[k] = best[k - 1]
    return tuple(best)


def _canonical(p: Sequence[int]) -> tuple[int, ...]:
    # The least of p, p^-1, p^rc and (p^rc)^-1; (p^rc)^-1 = (p^-1)^rc.
    p = tuple(p)
    inv = inverse(p)  # refuses a word that is not a permutation
    m = len(p) + 1
    return min(
        p,
        inv,
        tuple([m - v for v in reversed(p)]),
        tuple([m - v for v in reversed(inv)]),
    )


#: one tuple per distinct profile, handed out by the cache for every orbit
#: with that profile.  A profile is the prefix sums of a partition of n, so
#: there are at most sum p(n) <= 915 of them for n <= ORACLE_CAP, where the
#: battery caches 12,242 orbits with 67 distinct profiles.
_PROFILES: dict[tuple[int, ...], tuple[int, ...]] = {}


@lru_cache(maxsize=CACHE_SIZE)
def _cached_profile(values: tuple[int, ...]) -> tuple[int, ...]:
    profile = _subset_profile(values)
    return _PROFILES.setdefault(profile, profile)


def k_increasing_profile(p: Sequence[int]) -> tuple[int, ...]:
    """profile[k] = length of the longest k-increasing subsequence, k = 0..n.
    Raises InstanceTooLarge past the oracle cap, cached or not, and
    InvalidPermutation unless p is a permutation of 1..n."""
    if len(p) > ORACLE_CAP:
        raise InstanceTooLarge(f"subset oracle capped at n <= {ORACLE_CAP}, got {len(p)}")
    return _cached_profile(_canonical(p))


def k_decreasing_profile(p: Sequence[int]) -> tuple[int, ...]:
    """profile[k] = length of the longest k-decreasing subsequence, k = 0..n.
    Reversing the word turns decreasing subsequences into increasing ones."""
    return k_increasing_profile(reverse(p))


def longest_k_increasing(p: Sequence[int], k: int) -> int:
    """
    Maximum size of a position subset of p that is a union of k increasing
    subsequences.  Saturates at n once k reaches the longest decreasing
    subsequence length.

    >>> longest_k_increasing((7, 4, 1, 8, 5, 2, 9, 6, 3), 2)
    6
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    return k_increasing_profile(p)[min(k, len(p))]


def longest_k_decreasing(p: Sequence[int], k: int) -> int:
    """longest_k_increasing of the reversed word."""
    return longest_k_increasing(reverse(p), k)


def _tight_against(profile: tuple[int, ...], intervals: list[Interval]) -> bool:
    # Compare cumulative lengths of the longest intervals against the profile.
    lengths = sorted((iv.length for iv in intervals), reverse=True)
    total = 0
    for k, length in enumerate(lengths, start=1):
        total += length
        if total != profile[k]:
            return False
    return True


def oracle_is_gfk_tight(p: Sequence[int]) -> bool:
    """
    True iff for every k up to the number of jogs, the k longest jogs
    jointly realize the oracle's longest k-increasing subsequence length.
    Beyond that k both sides equal n, so the quantifier stops there.
    """
    return _tight_against(k_increasing_profile(p), jogs(p))


def oracle_is_dually_gfk_tight(p: Sequence[int]) -> bool:
    """True iff the k longest reverse jogs realize the longest k-decreasing
    subsequence length for every k up to the number of reverse jogs: the
    reverse jogs of p are the jogs of its reversed word, so this is
    oracle_is_gfk_tight of that word."""
    return oracle_is_gfk_tight(reverse(p))
