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

The states after a prefix depend on that prefix and n alone, and an
exhaustive walk misses the cache in lexicographic key order, so a miss
resumes from the states after the prefix it shares with the last word of
its length.  The 10,558 misses at n = 8 walk 215,163 states, not 384,860;
the 71,924 of them at the last value build no state.

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

Each call inverts its word once: the key is built from p and p^-1, and
the jogs of p are read from the same p^-1.  The predicates on p and p^-1
together look the profile up once, since the two share an orbit, and read
the jogs of p^-1 from p.  Their dual forms, on rev p and rev(p^-1), need
one lookup too: rev(p^-1) is (rev p)^-1 turned by 180 degrees, and the
turn keeps the jog lengths as well as the profile (i precedes i+1 in w
exactly when n-i precedes n+1-i in w^rc).  So a dual form is the plain
one on rev p.
"""
from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from itertools import accumulate
from operator import eq
from typing import Sequence

from .errors import DomainError, InstanceTooLarge
from .permutations import _jog_runs, inverse, reverse

#: largest n the subset oracle will accept
ORACLE_CAP = 16

#: orbits of cached profiles, enough for every permutation with n <= 8
CACHE_SIZE = 2**14

#: the last word of length n >= 2 the programme ran on, with its states
#: after each prefix of length 0 to n - 2 (two distinct words share at most
#: n - 2 entries): at most one word's n - 1 dicts, which change no answer.
#: One tuple, so a reader gets a word with its own states.  perfbench's
#: clear_caches leaves it, so at most the first miss of a pass resumes from
#: the pass before.
_last_run: tuple[tuple[int, ...], list[dict[tuple[int, ...], int]]] = ((), [{(): 0}])


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
    global _last_run
    n = len(values)
    word, memo = _last_run
    shared = 0  # entries shared with the last word; 0 runs from scratch
    if len(word) == n:
        while shared < n - 2 and values[shared] == word[shared]:
            shared += 1
    kept = memo[:shared]
    states = memo[shared]
    # rest: the values still to come, sorted, then n+1; x deleted, u takes its index.
    rest = [*sorted(values[shared:]), n + 1]
    for x in values[shared : n - 1]:
        kept.append(states)
        j = bisect_left(rest, x)
        del rest[j]
        u = rest[j]
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
    if kept:
        _last_run = values, kept
    best = [0] * (n + 1)
    # The last value builds no states: every top is x or n+1 by now.
    for x in values[-1:]:
        for tops, size in states.items():
            k = len(tops)
            if size > best[k]:
                best[k] = size
            k += not tops or tops[-1] > x  # no top is x: a longer chain
            if size >= best[k]:
                best[k] = size + 1
    return tuple(accumulate(best, max))


def _orbit_key(p: tuple[int, ...], inv: tuple[int, ...]) -> tuple[int, ...]:
    # The least of p, p^-1, p^rc and (p^rc)^-1 = (p^-1)^rc.  A turned image
    # is built only when its first entry, n+1 less the last entry of the
    # word it turns, is no more than that of the least so far.
    m = len(p) + 1
    key = min(p, inv)
    if p and m - p[-1] <= key[0]:
        key = min(key, tuple([m - v for v in reversed(p)]))
    if inv and m - inv[-1] <= key[0]:
        key = min(key, tuple([m - v for v in reversed(inv)]))
    return key


#: one tuple per distinct profile, handed out by the cache for every orbit
#: with that profile.  A profile is the prefix sums of a partition of n, so
#: there are at most sum p(n) <= 915 of them for n <= ORACLE_CAP, where the
#: battery caches 12,242 orbits with 67 distinct profiles.
_PROFILES: dict[tuple[int, ...], tuple[int, ...]] = {}


@lru_cache(maxsize=CACHE_SIZE)
def _cached_profile(values: tuple[int, ...]) -> tuple[int, ...]:
    profile = _subset_profile(values)
    return _PROFILES.setdefault(profile, profile)


def _profile_and_inverse(p: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # The k-increasing profile of p and p^-1, from one call of inverse,
    # which refuses a word that is not a permutation.  The cap is checked
    # first, so a cached orbit is refused past it too.
    if len(p) > ORACLE_CAP:
        raise InstanceTooLarge(f"subset oracle capped at n <= {ORACLE_CAP}, got {len(p)}")
    p = tuple(p)
    inv = inverse(p)
    return _cached_profile(_orbit_key(p, inv)), inv


def k_increasing_profile(p: Sequence[int]) -> tuple[int, ...]:
    """profile[k] = length of the longest k-increasing subsequence, k = 0..n.
    Raises InstanceTooLarge past the oracle cap, cached or not, and
    InvalidPermutation unless p is a permutation of 1..n."""
    return _profile_and_inverse(p)[0]


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
        raise DomainError(f"k must be positive, got {k}")
    return k_increasing_profile(p)[min(k, len(p))]


def longest_k_decreasing(p: Sequence[int], k: int) -> int:
    """longest_k_increasing of the reversed word."""
    return longest_k_increasing(reverse(p), k)


def _tight_against(profile: tuple[int, ...], lengths: list[int]) -> bool:
    # The sum of the k longest lengths is profile[k] for every k up to the
    # number of lengths; map stops at the shorter of its two inputs.  The
    # lengths are a fresh list, from _jog_runs, so they are sorted in place.
    lengths.sort(reverse=True)
    return all(map(eq, accumulate(lengths), profile[1:]))


def oracle_is_gfk_tight(p: Sequence[int]) -> bool:
    """
    True iff for every k up to the number of jogs, the k longest jogs
    jointly realize the oracle's longest k-increasing subsequence length.
    Beyond that k both sides equal n, so the quantifier stops there.
    """
    profile, inv = _profile_and_inverse(p)
    return _tight_against(profile, _jog_runs(inv))


def oracle_is_dually_gfk_tight(p: Sequence[int]) -> bool:
    """True iff the k longest reverse jogs realize the longest k-decreasing
    subsequence length for every k up to the number of reverse jogs: the
    reverse jogs of p are the jogs of its reversed word, so this is
    oracle_is_gfk_tight of that word."""
    return oracle_is_gfk_tight(reverse(p))


def oracle_is_gfk_tight_both_ways(p: Sequence[int]) -> bool:
    """oracle_is_gfk_tight of p and of p^-1, from one profile lookup: the
    jogs of p are read from p^-1, and those of p^-1 from p."""
    profile, inv = _profile_and_inverse(p)
    return _tight_against(profile, _jog_runs(inv)) and _tight_against(
        profile, _jog_runs(p)
    )


def oracle_is_dually_gfk_tight_both_ways(p: Sequence[int]) -> bool:
    """oracle_is_dually_gfk_tight of p and of p^-1: oracle_is_gfk_tight of
    rev p and of rev(p^-1), which is that of rev p and of (rev p)^-1, since
    rev(p^-1) is (rev p)^-1 turned by 180 degrees."""
    return oracle_is_gfk_tight_both_ways(reverse(p))
