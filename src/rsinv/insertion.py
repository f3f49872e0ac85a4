"""Row insertion, the Robinson-Schensted correspondence and its inverse,
the tableau-transpose involution on involutions, and the GFK-tightness
predicates read off the insertion shape.

``rsk`` maps a permutation p to the pair (P, Q): P is built by Schensted
row insertion of p's entries in position order, Q records in which cell
each insertion step ended.  Involutions are exactly the permutations with
P = Q, so transposing that common tableau and running the inverse
correspondence defines an involution ``f_involution`` on involutions.

On an involution q the correspondence needs one row insertion per
2-cycle and no recording tableau (Beissinger, "Similar constructions for
Young tableaux and involutions, and their application to shiftable
tableaux", Discrete Math. 67 (1987) 149-163).  For j = 1..n: a fixed
point j is appended to the first row; for j = q(i) with i < j, i is
row-inserted, landing at the end of row r, and j is appended to row r+1.
Run backwards this is a peel: the largest entry j left is a fixed point
when it ends the first row; otherwise j is removed from the end of its
row, and reverse bumping the last entry of the row above ejects j's
partner from the first row.  ``tableau_of_involution`` is the insertion
and f's last step is the peel.

The bumping loops take nearly all of f's time.  ``_bump`` is the forward
loop of ``row_insert`` and of the involution insertion, which calls it
once per 2-cycle.  ``rsk`` runs the same loop inline over (P row, Q row)
pairs: no entry pays for a call, and the Q row is at hand where the P row
is appended to.  That made ``rsk`` 1.1-1.2 times faster at n = 500 to
4000.  ``inverse_rsk`` and the peel each reverse-bump inline, the first
finding each entry's row through a list.  For T of shape lambda and m
2-cycles the insertion visits (n(lambda) + m) / 2 rows and the peel
(n(lambda) - m) / 2, where n(lambda) = sum_i (i-1) lambda_i; the general
correspondence visits n(lambda) + n and n(lambda).

Every tableau and permutation returned here holds only the caller's int
objects, never a new int: P, T and the peeled or reverse-bumped outputs
move the input's entries, and Q's step s is p's entry of value s.  A new
int costs 28 bytes past 256, more than the 8-byte slot that holds it, so
a caller that keeps many results keeps about 17 bytes an entry of an
``rsk`` pair instead of 45.  One exception: ``_involution_tableau``'s
two-entry cache answers a word equal to one inserted just before with
the tableau built from that word's objects.

The peel of T^T is quadratic in n for the wide, short T of an involution
with many fixed points, whose transpose is tall.  Schuetzenberger's
reversal/evacuation theorem (Knuth, TAOCP vol. 3, 5.1.4) gives the same
image from T itself: for w = f(q), P(w^r) = P(w)^T = T and Q(w^r) =
evac(Q(w))^T = evac(T) = P(q#), where q#(i) = n+1 - q(n+1-i) is the
reverse-complement of q.  ``f_involution`` takes whichever route costs
less, by a rule read off lambda.

By Greene's theorem the first k rows of P(p) hold as many entries as the
longest k-increasing subsequence of p, so GFK-tightness (the k longest
jogs realize that length for every k) is the statement that the jog
lengths, longest first, are the row lengths of P(p).  These predicates
answer in polynomial time; ``rsinv.greene`` holds the subset oracle that
checks them without insertion.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import lru_cache
from typing import Sequence

from . import tableaux
from .errors import DuplicateEntry, ShapeMismatch
from .permutations import (
    Perm,
    _check_in_value_order,
    check_involution,
    check_permutation,
    is_involution,
    jogs,
    reverse,
)
from .tableaux import Tableau


def _bump(rows: list[list[int]], x: int) -> int:
    # Schensted bumping; returns the 0-based row where an append happened.
    r = 0
    while r < len(rows):
        row = rows[r]
        j = bisect_right(row, x)
        if j == len(row):
            row.append(x)
            return r
        row[j], x = x, row[j]
        r += 1
    rows.append([x])
    return r


def _row_index(t: Tableau, n: int) -> list[int]:
    # row_of[v] is the 0-based row of entry v of the standard tableau t on
    # n boxes.
    row_of = [0] * (n + 1)
    for r, row in enumerate(t):
        for v in row:
            row_of[v] = r
    return row_of


def row_insert(t: Sequence[Sequence[int]], x: int) -> tuple[Tableau, int]:
    """
    Insert x into a partial standard tableau (increasing rows and columns,
    any entry set) by row bumping: x replaces the leftmost entry greater
    than x in the first row, the displaced entry recurses into the next
    row, and so on until an append.  Returns the new tableau and the
    1-based row where the append happened.

    >>> row_insert(((1, 4), (2,)), 3)
    (((1, 3), (2, 4)), 2)
    """
    if any(x in row for row in t):
        raise DuplicateEntry(f"entry {x} already present")
    rows = [list(row) for row in t]
    landing = _bump(rows, x)
    return tableaux.as_tableau(rows), landing + 1


def rsk(p: Sequence[int]) -> tuple[Tableau, Tableau]:
    """
    The Robinson-Schensted correspondence: p -> (P, Q) of equal shape.
    Q records step s as p's entry of value s, taken from the value-ordered
    entries the permutation check sorts, so p is sorted once and both
    tableaux hold p's own int objects.

    >>> rsk((2, 1, 4, 3))
    (((1, 3), (2, 4)), ((1, 3), (2, 4)))
    """
    # _bump's loop, inlined: the pairs hold row r of P and of Q, and step
    # is recorded in the Q row of the same pair as the append.
    rows: list[tuple[list[int], list[int]]] = []
    for x, step in zip(*_check_in_value_order(p)):
        for prow, qrow in rows:
            j = bisect_right(prow, x)
            if j == len(prow):
                prow.append(x)
                qrow.append(step)
                break
            prow[j], x = x, prow[j]
        else:
            rows.append(([x], [step]))
    return (
        tableaux.as_tableau([prow for prow, _ in rows]),
        tableaux.as_tableau([qrow for _, qrow in rows]),
    )


def inverse_rsk(pair: tuple[Sequence[Sequence[int]], Sequence[Sequence[int]]]) -> Perm:
    """
    The unique permutation p with rsk(p) == pair, obtained by reverse
    bumping the cells of P in decreasing order of Q's entries.  Raises
    InvalidTableau or ShapeMismatch unless the pair is two standard
    tableaux of one shape.

    >>> inverse_rsk((((1, 2, 5, 9), (3, 4, 8), (6, 7)),) * 2)
    (6, 7, 3, 4, 8, 1, 2, 5, 9)
    """
    p_tab, q_tab = (tableaux.check_tableau(t) for t in pair)
    if tableaux.shape(p_tab) != tableaux.shape(q_tab):
        raise ShapeMismatch(
            f"shapes differ: {tableaux.shape(p_tab)} vs {tableaux.shape(q_tab)}"
        )
    return inverse_rsk_unchecked(p_tab, q_tab)


def inverse_rsk_unchecked(p_tab: Tableau, q_tab: Tableau) -> Perm:
    """inverse_rsk of a pair the caller built as two standard tableaux of
    one shape, without checking that again."""
    n = tableaux.size(p_tab)
    row_of = _row_index(q_tab, n)
    rows = [list(row) for row in p_tab]
    out = [0] * n
    for k in range(n, 0, -1):
        r = row_of[k]
        x = rows[r].pop()
        # Reverse bumping: in each row above, x replaces the largest
        # smaller entry, which moves up in turn.
        for row in reversed(rows[:r]):
            j = bisect_left(row, x) - 1
            row[j], x = x, row[j]
        out[k - 1] = x
    return tuple(out)


@lru_cache(maxsize=2)
def _involution_tableau(q: Perm) -> Tableau:
    # Beissinger's insertion (module docstring).  The cache lets f and a
    # GFK-tightness test of the same q share one T; it holds two, because
    # f's evacuation route also inserts q#.
    rows: list[list[int]] = []
    for j, i in enumerate(q, start=1):
        if i > j:
            continue  # i is inserted when its partner comes
        r = 0 if i == j else _bump(rows, i) + 1
        # q[i - 1] is j as q's own int object, not a fresh one from the
        # counter: f's image keeps the entries, and a caller holding many
        # images would otherwise hold one more int per entry.
        if r == len(rows):
            rows.append([q[i - 1]])
        else:
            rows[r].append(q[i - 1])
    return tableaux.as_tableau(rows)


def _peel(s: Tableau) -> Perm:
    # The involution whose tableau is the standard tableau s: Beissinger's
    # insertion run backwards (module docstring).
    n = tableaux.size(s)
    rows = [list(row) for row in s]
    row_of = _row_index(s, n)
    out = [0] * n
    for j in range(n, 0, -1):
        if out[j - 1]:
            continue  # ejected earlier as a larger entry's partner
        # Reverse bumps only move entries up, so row_of[j] is a bound to
        # search up from; the largest entry left ends its row.
        r = row_of[j]
        while not rows[r] or rows[r][-1] != j:
            r -= 1
        top = rows[r].pop()  # j, as s's own int object
        if r == 0:
            out[j - 1] = top
        else:
            # Reverse bump the end of the row above, as in inverse_rsk.
            i = rows[r - 1].pop()
            for row in reversed(rows[: r - 1]):
                c = bisect_left(row, i) - 1
                row[c], i = i, row[c]
            out[j - 1], out[i - 1] = i, top
    return tuple(out)


def tableau_of_involution(p: Sequence[int]) -> Tableau:
    """
    The common insertion/recording tableau P(p) = Q(p) of an involution,
    built with one row insertion per 2-cycle (see the module docstring).

    >>> tableau_of_involution((2, 1, 5, 4, 3, 9, 8, 7, 6))
    ((1, 3, 6), (2, 4, 7), (5, 8), (9,))
    """
    return _involution_tableau(check_involution(p))


def _by_transpose(t: Tableau) -> Perm:
    # f by its definition: the involution whose tableau is T^T.  T came
    # from the insertion, so T^T is standard and is not checked again.
    return _peel(tableaux.transpose(t))


def _by_evacuation(p: Sequence[int], t: Tableau) -> Perm:
    # f(p) reversed has insertion tableau T and recording tableau P(p#).
    # Both come from the insertion, and P(p#) = evac(T) has T's shape, so
    # the pair is not checked again.
    n = len(p)
    sharp = tuple(n + 1 - x for x in reversed(p))
    return reverse(inverse_rsk_unchecked(t, _involution_tableau(sharp)))


def f_involution(p: Sequence[int]) -> Perm:
    """
    Transpose the tableau T of the involution p and take the involution
    whose tableau that is.  This map is an involution on involutions.

    The same image is the reverse of inverse_rsk((T, P(p#))), p# the
    reverse-complement of p (see the module docstring).  With lambda the
    shape of T, the peel of T^T visits about n(lambda^T) / 2 rows; the
    other route visits about n(lambda) / 2 to insert p# and n(lambda) to
    reverse bump T, and does more per entry (two tableaux to check, a
    recording tableau to index).  The evacuation route is taken when
    3 n(lambda) + 10 n < n(lambda^T), a rule fitted to timings of both
    routes at n = 10^3 to 3 * 10^4.  It is read off the shape in O(rows),
    and the output is the same either way.

    >>> f_involution((2, 1, 5, 4, 3, 9, 8, 7, 6))
    (6, 7, 3, 4, 8, 1, 2, 5, 9)
    """
    t = tableau_of_involution(p)
    lam = tableaux.shape(t)
    n_lam = sum(i * length for i, length in enumerate(lam))
    n_lam_transposed = sum(length * (length - 1) // 2 for length in lam)
    if 3 * n_lam + 10 * len(p) < n_lam_transposed:
        return _by_evacuation(p, t)
    return _by_transpose(t)


def _insertion_tableau(p: Sequence[int]) -> Tableau:
    # P(p), by the involution insertion when p is an involution.
    q = check_permutation(p)
    return _involution_tableau(q) if is_involution(q) else rsk(q)[0]


def is_gfk_tight(p: Sequence[int]) -> bool:
    """
    True iff for every k the k longest jogs of p jointly realize the
    longest k-increasing subsequence length: by Greene's theorem, iff the
    jog lengths, longest first, are the row lengths of P(p).

    >>> is_gfk_tight((6, 7, 3, 4, 8, 1, 2, 5, 9)), is_gfk_tight((1, 3, 4, 2))
    (True, False)
    """
    rows = tableaux.shape(_insertion_tableau(p))
    return tuple(sorted((iv.length for iv in jogs(p)), reverse=True)) == rows


def is_dually_gfk_tight(p: Sequence[int]) -> bool:
    """True iff the k longest reverse jogs realize the longest k-decreasing
    subsequence length for every k: the reverse jogs of p are the jogs of
    its reversed word, so this is is_gfk_tight of that word."""
    return is_gfk_tight(reverse(p))
