"""Constructions of the tableau-transpose map and of two-row tableaux that
avoid running the Robinson-Schensted correspondence.

Each function carries the contract that it agrees with the corresponding
insertion-based computation on its stated domain; the test suite checks
those contracts exhaustively at small sizes.  Every precondition is
decided in polynomial time: GFK-tightness by a P-only insertion of the
side of p or its reverse with fewer rows, stopped past that many
(``rsinv.insertion.is_gfk_tight``), and 321-avoidance
(123-avoidance) by a longest decreasing subsequence of p (of its reversed
word) of length at most 2.
"""
from __future__ import annotations

from typing import AbstractSet, Sequence

from .enumeration import layered_from_composition
from .errors import (
    Not123Avoiding,
    Not321Avoiding,
    NotGfkTight,
    ShortcutInapplicable,
    TooManyRows,
)
from .insertion import is_gfk_tight
from .permutations import (
    Perm,
    _jog_runs,
    check_involution,
    check_permutation,
    classify_entries,
    is_involution,
    longest_decreasing,
    record_breakers,
    reverse,
)
from .tableaux import Tableau, as_tableau, check_tableau


def _two_row(first: AbstractSet[int], n: int) -> Tableau:
    # The entries of first on row 1, the rest of 1..n on row 2; an empty
    # row is dropped.
    rows = (sorted(first), sorted(set(range(1, n + 1)) - first))
    return as_tableau([row for row in rows if row])


def f_rev_shortcut(p: Sequence[int]) -> Perm:
    """
    The reversal shortcut: when both p and its reverse are involutions, the
    tableau-transpose map is plain reversal.
    """
    p = check_permutation(p)
    rev = reverse(p)
    if not (is_involution(p) and is_involution(rev)):
        raise ShortcutInapplicable(
            f"shortcut needs p and reverse(p) to be involutions: {p}"
        )
    return rev


def f_gfk_tight_direct(p: Sequence[int]) -> Perm:
    """
    The tableau-transpose map on a GFK-tight involution, computed without
    insertion: the image is the layered permutation whose layers are
    exactly the jogs of p (each jog written in decreasing order).

    >>> f_gfk_tight_direct((6, 7, 3, 4, 8, 1, 2, 5, 9))
    (2, 1, 5, 4, 3, 9, 8, 7, 6)
    """
    p = check_involution(p)
    if not is_gfk_tight(p):
        raise NotGfkTight(f"not GFK-tight: {p}")
    return layered_from_composition(_jog_runs(p))  # p is its own inverse


def tableau_of_321_avoiding(p: Sequence[int]) -> Tableau:
    """
    The tableau of a 321-avoiding involution, assembled directly: first row
    the small entries and fixed points, second row the large entries.

    >>> tableau_of_321_avoiding((1, 3, 2, 5, 4, 6, 7))
    ((1, 2, 4, 6, 7), (3, 5))
    """
    fixed, small, large = classify_entries(p)  # refuses a non-involution
    if longest_decreasing(p) > 2:
        raise Not321Avoiding(f"contains 321: {tuple(p)}")
    return _two_row(fixed | small, len(p))


def recover_321_avoiding(t: Sequence[Sequence[int]]) -> Perm:
    """
    Rebuild the 321-avoiding involution from its (at most two-row) tableau
    by peeling entries in decreasing order: the current maximum m is a
    fixed point when it sits in row one; otherwise it pairs with the
    current maximum of row one and both are removed.

    >>> recover_321_avoiding(((1, 2, 4, 6, 7), (3, 5)))
    (1, 3, 2, 5, 4, 6, 7)
    """
    if len(t) > 2:
        raise TooManyRows(f"expected at most two rows, got {len(t)}")
    t = check_tableau(t)
    row1 = list(t[0]) if t else []
    row2 = list(t[1]) if len(t) > 1 else []
    n = len(row1) + len(row2)
    out = [0] * n
    while row1 or row2:
        if row2 and (not row1 or row2[-1] > row1[-1]):
            m = row2.pop()
            partner = row1.pop()
            out[m - 1] = partner
            out[partner - 1] = m
        else:
            m = row1.pop()
            out[m - 1] = m
    return tuple(out)


def f_123_avoiding_direct(p: Sequence[int]) -> Perm:
    """
    The tableau-transpose map on a 123-avoiding involution, computed
    without insertion: the record-breakers of p become the first row of
    the image's tableau (its fixed points and small entries), everything
    else the second row, and the peeling of recover_321_avoiding matches
    them up.

    >>> f_123_avoiding_direct((6, 5, 7, 4, 2, 1, 3))
    (1, 3, 2, 4, 5, 7, 6)
    """
    p = check_involution(p)
    if longest_decreasing(reverse(p)) > 2:
        raise Not123Avoiding(f"contains 123: {p}")
    # Validity is a consequence of the record-breaker structure; if
    # recover_321_avoiding refuses these rows, there is a bug upstream.
    return recover_321_avoiding(_two_row(record_breakers(p), len(p)))
