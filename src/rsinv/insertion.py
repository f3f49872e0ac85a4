"""Row insertion, the Robinson-Schensted correspondence and its inverse,
the tableau-transpose involution on involutions, and the GFK-tightness
predicates read off the insertion shape.

``rsk`` maps a permutation p to the pair (P, Q): P is built by Schensted
row insertion of p's entries in position order, Q records in which cell
each insertion step ended.  Involutions are exactly the permutations with
P = Q, so transposing that common tableau and running the inverse
correspondence defines an involution ``f_involution`` on involutions.

Reverse bumping a tableau of shape lambda visits n(lambda) = sum_i (i-1)
lambda_i rows, so the transposed tableau of a wide, short T (an
involution with many fixed points) costs about n(lambda^T), quadratic in
n.  Schuetzenberger's reversal/evacuation theorem (Knuth, TAOCP vol. 3,
5.1.4) gives the same image from T itself: for w = f(q), P(w^r) = P(w)^T
= T and Q(w^r) = evac(Q(w))^T = evac(T) = P(q#), where q#(i) = n+1 -
q(n+1-i) is the reverse-complement of q.  ``f_involution`` takes
whichever route visits fewer rows.

By Greene's theorem the first k rows of P(p) hold as many entries as the
longest k-increasing subsequence of p, so GFK-tightness (the k longest
jogs realize that length for every k) is the statement that the jog
lengths, longest first, are the row lengths of P(p).  These predicates
answer in polynomial time; ``rsinv.greene`` holds the subset oracle that
checks them without insertion.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Sequence

from . import tableaux
from .errors import DuplicateEntry, NotInvolution, ShapeMismatch
from .permutations import Perm, check_permutation, is_involution, jogs, reverse
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

    >>> rsk((2, 1, 4, 3))
    (((1, 3), (2, 4)), ((1, 3), (2, 4)))
    """
    check_permutation(p)
    prows: list[list[int]] = []
    qrows: list[list[int]] = []
    for step, x in enumerate(p, start=1):
        landing = _bump(prows, x)
        if landing == len(qrows):
            qrows.append([step])
        else:
            qrows[landing].append(step)
    return tableaux.as_tableau(prows), tableaux.as_tableau(qrows)


def inverse_rsk(pair: tuple[Sequence[Sequence[int]], Sequence[Sequence[int]]]) -> Perm:
    """
    The unique permutation p with rsk(p) == pair, obtained by reverse
    bumping the cells of P in decreasing order of Q's entries.

    >>> inverse_rsk((((1, 2, 5, 9), (3, 4, 8), (6, 7)),) * 2)
    (6, 7, 3, 4, 8, 1, 2, 5, 9)
    """
    p_tab, q_tab = (tableaux.check_tableau(t) for t in pair)
    if tableaux.shape(p_tab) != tableaux.shape(q_tab):
        raise ShapeMismatch(
            f"shapes differ: {tableaux.shape(p_tab)} vs {tableaux.shape(q_tab)}"
        )
    n = tableaux.size(p_tab)
    row_of = {v: r for r, row in enumerate(q_tab) for v in row}
    rows = [list(row) for row in p_tab]
    out = [0] * n
    for k in range(n, 0, -1):
        x = rows[row_of[k]].pop()
        for r in range(row_of[k] - 1, -1, -1):
            row = rows[r]
            j = bisect_left(row, x) - 1
            row[j], x = x, row[j]
        out[k - 1] = x
    return tuple(out)


def tableau_of_involution(p: Sequence[int]) -> Tableau:
    """The common insertion/recording tableau P(p) = Q(p) of an involution."""
    if not is_involution(check_permutation(p)):
        raise NotInvolution(f"not an involution: {tuple(p)}")
    p_tab, _ = rsk(p)
    return p_tab


def _by_transpose(t: Tableau) -> Perm:
    # f by its definition: reverse bump the transpose of T against itself.
    flipped = tableaux.transpose(t)
    return inverse_rsk((flipped, flipped))


def _by_evacuation(p: Sequence[int], t: Tableau) -> Perm:
    # f(p) reversed has insertion tableau T and recording tableau P(p#).
    n = len(p)
    sharp = tuple(n + 1 - x for x in reversed(p))
    return reverse(inverse_rsk((t, rsk(sharp)[0])))


def f_involution(p: Sequence[int]) -> Perm:
    """
    Transpose the tableau T of the involution p and apply the inverse
    correspondence.  This map is an involution on involutions.

    The same image is the reverse of inverse_rsk((T, P(p#))), p# the
    reverse-complement of p (see the module docstring).  With lambda the
    shape of T, reverse bumping the transpose visits n(lambda^T) rows;
    the other route visits n(lambda) rows to reverse bump T and about
    n(lambda) + n to insert p#.  Both counts come from the shape in
    O(rows), and the route with fewer visits is taken; the output is
    the same either way.

    >>> f_involution((2, 1, 5, 4, 3, 9, 8, 7, 6))
    (6, 7, 3, 4, 8, 1, 2, 5, 9)
    """
    t = tableau_of_involution(p)
    lam = tableaux.shape(t)
    n_lam = sum(i * length for i, length in enumerate(lam))
    n_lam_transposed = sum(length * (length - 1) // 2 for length in lam)
    if 2 * n_lam + len(p) < n_lam_transposed:
        return _by_evacuation(p, t)
    return _by_transpose(t)


def is_gfk_tight(p: Sequence[int]) -> bool:
    """
    True iff for every k the k longest jogs of p jointly realize the
    longest k-increasing subsequence length: by Greene's theorem, iff the
    jog lengths, longest first, are the row lengths of P(p).

    >>> is_gfk_tight((6, 7, 3, 4, 8, 1, 2, 5, 9)), is_gfk_tight((1, 3, 4, 2))
    (True, False)
    """
    rows = tableaux.shape(rsk(p)[0])
    return tuple(sorted((iv.length for iv in jogs(p)), reverse=True)) == rows


def is_dually_gfk_tight(p: Sequence[int]) -> bool:
    """True iff the k longest reverse jogs realize the longest k-decreasing
    subsequence length for every k: the reverse jogs of p are the jogs of
    its reversed word, so this is is_gfk_tight of that word."""
    return is_gfk_tight(reverse(p))
