"""Row insertion, the Robinson-Schensted correspondence and its inverse,
the tableau-transpose involution on involutions, and the GFK-tightness
predicates.

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
and f's last step is the peel.  The peel takes T itself, not T^T: the list
rows of T^T are T's first lambda_2 columns, read by the column walk of
``tableaux`` that ``transpose`` runs too, and its one-box rows are the
rest of T's first row, which the peel puts in its tail.  It looks up each
entry's first row in the entry index of ``tableaux`` that ``inverse_rsk``
and the descents read too, built on those list rows: an entry of the tail
gets the row below them.

The bumping loops take nearly all of f's time.  In a standard tableau the
rows of one box are the bottom of the first column, increasing downward,
so ``_bump``, ``_shape_within`` and the peel keep the rows of two or more
boxes as lists above a ``collections.deque`` of those entries, the tail.
A carry that passes the last list row joins the tail's first row, which
becomes a two-box list row, if it is larger; otherwise it pushes every
one-box row down one, ``tail.appendleft(x)``.  Backwards, the largest
entry left ends the tail when it is ``tail[-1]``, and a reverse bump up the
tail moves every one-box row up one and ejects the first, ``x =
tail.popleft()``; a list row left with one box joins the tail's front.  A
bump then visits only the list rows, at most lambda'_2 of them for a
tableau of shape lambda, the length of its second column.  ``_bump`` is the
forward loop of ``row_insert`` and of the involution insertion, which
calls it once per 2-cycle.  ``rsk`` and ``inverse_rsk`` keep plain list
rows and no tail: ``rsk`` runs the forward loop inline over (P row, Q row)
pairs, so no entry pays for a call and the Q row is at hand where the P
row is appended to, and ``inverse_rsk`` reverse-bumps inline, finding each
entry's row through a list.  For T of shape lambda and m 2-cycles the
insertion visits at most (n(lambda) + m) / 2 rows and the peel (n(lambda)
- m) / 2, where n(lambda) = sum_i (i-1) lambda_i, and each at most
lambda'_2 rows a 2-cycle; the general correspondence visits n(lambda) + n
and n(lambda), tail or not.  So the decreasing word, a column, inserts in
linear time, and a tall tableau with few list rows in about n * lambda'_2
visits.  The two-column shape has no tail, and ``rsk`` and
``inverse_rsk`` none at all: on tall tableaux those stay quadratic.

A bump path moves weakly left going down, and weakly right going up (the
row bumping lemma: Fulton, "Young Tableaux", 1.1; Knuth, TAOCP vol. 3,
5.1.4).  The entry below the column j that a carry x leaves is larger
than x, as columns increase, so the leftmost entry larger than x, which x
replaces, is in column j or left of it; backwards, the entry above column
j is smaller than x, so the largest entry smaller than x is in column j
or right of it.  Every bumping loop here looks next to column j before it
searches a row.  The forward loops, ``rsk``'s and ``_bump``, which is
also the loop of the involution insertion, ``row_insert`` and
``_shape_within``, search the first row whole.  Below it, a carry that
left column j lands there unless the entry in column j - 1 is larger;
then in column j - 1 unless the entry in column j - 2 is larger too; and
otherwise ``bisect_right`` searches the columns left of j - 1.  In
``rsk`` each row lies between the sentinels 0 and n + 1, so that its
columns count from 1.  The list rows of the tail kernels end in inf,
larger than any int, so that ``row_insert`` takes a partial tableau of
any ints, and there a carry that left column 0 lands in column 0 without
a look.  A row that ends left of column j - 1 raises ``IndexError`` at the
first look and is searched whole, and swapping out the upper sentinel is
an append.  The reverse loops, ``inverse_rsk``'s and the peel's, are the
mirror, each row ending in a sentinel (n + 1 and inf): column j unless
column j + 1 holds a smaller entry, then j + 1, and otherwise
``bisect_left`` from column j + 3; a carry off the peel's tail
starts at column 0.  On seeded random permutations with n = 500 to 10^5,
60-63% of ``rsk``'s bumps below the first row land in the column the
carry left and 82-85% within one column of it; 0.2-1.9% reach the
whole-row search, and the reverse bumps land alike.  On seeded
involutions with n = 10^3 to 10^5 and 20% to 100% of the entries in
2-cycles, 59-61% of the involution insertion's bumps below the first row
land in the column the carry left, 80-84% within one column of it and
0.8-6.4% reach the whole-row search; 61-68% of the peel's reverse bumps
land in the column the carry left and 83-87% within one column.  A visit
makes at most two looks and one search of a row, so it stays
O(log lambda_1).  The rows visited are those of Schensted's loop, and
the tests take that loop as written, every row searched whole
(``tests/test_rsk.py``'s ``schensted``), as the reference for each of
them.

Every tableau and permutation returned here holds only the caller's int
objects, never a new int: P, T and the peeled or reverse-bumped outputs
move the input's entries, and Q's step s is p's entry of value s.  A new
int costs 28 bytes past 256, more than the 8-byte slot that holds it, so
a caller that keeps many results keeps about 17 bytes an entry of an
``rsk`` pair instead of 45.

The peel of T^T bumps through its list rows, lambda_2 of them, the length
of T's second row; that is many for the wide, short T of an involution
with many fixed points.  Schuetzenberger's reversal/evacuation theorem
(Knuth, TAOCP vol. 3, 5.1.4) gives the same image from T itself: for w =
f(q), P(w^r) = P(w)^T = T and Q(w^r) = evac(Q(w))^T = evac(T) = P(q#),
where q#(i) = n+1 - q(n+1-i) is the reverse-complement of q.
``f_involution`` takes whichever route costs less, by a rule read off
lambda.

By Greene's theorem the first k rows of P(p) hold as many entries as the
longest k-increasing subsequence of p, so GFK-tightness (the k longest
jogs realize that length for every k) is the statement that the jog
lengths, longest first, are the row lengths of P(p).  A tight P(p) has as
many rows as p has jogs, and P(p^r) = P(p)^T as many as p's longest jog,
so ``is_gfk_tight`` inserts whichever of p and p^r needs fewer rows, P
only, and stops at the first entry that lands past that count.  Each entry
visits only the list rows: at most n * min(jogs, longest jog, mu'_2) row
visits, mu the shape inserted up to the stop.  That is linear when any of
the three is bounded, as on a hook with arm and leg near n/2, where mu'_2
is 1.  The paper's theorem is not used: verify's
``tight-vs-transposed-layer`` and ``direct-gfk`` rows check it against
``rsinv.greene``'s oracle.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from itertools import count, repeat
from math import comb
from operator import index, mul
from typing import Sequence

from . import tableaux
from .errors import DomainError, DuplicateEntry, ShapeMismatch
from .permutations import (
    Perm,
    _check_in_value_order,
    check_involution,
    jog_lengths,
    reverse,
)
from .tableaux import Tableau


# Each list row of the tail kernels ends in this sentinel, larger than any
# int, so that swapping it out is an append and a look right of a row's last
# entry stays inside the row.  No output holds it.
_HIGH = float("inf")


def _joined(rows: list[list[int]], tail: deque[int]) -> Tableau:
    # The tableau of the list rows, each stripped of its sentinel in place,
    # above the tail.
    for row in rows:
        row.pop()
    return (*map(tuple, rows), *zip(tail))


def _bump(rows: list[list[int]], tail: deque[int], x: int) -> int:
    # Schensted bumping through the list rows, then the tail below them
    # (module docstring; any row may be a list row); returns the 0-based
    # row where an append happened.  The first row is searched whole; below
    # it, x lands in the column the carry left, or one left of it, before
    # a search, as in rsk.
    if rows:
        first = rows[0]
        j = bisect_right(first, x)
        first[j], x = x, first[j]
        if x is _HIGH:
            first.append(x)
            return 0
        for r in range(1, len(rows)):
            row = rows[r]
            try:
                if j and row[j - 1] > x:
                    j -= 1
                    if j and row[j - 1] > x:
                        j = bisect_right(row, x, 0, j - 1)
            except IndexError:
                j = bisect_right(row, x)
            row[j], x = x, row[j]
            if x is _HIGH:
                row.append(x)
                return r
    # Past the list rows, x joins the first one-box row if it is larger,
    # or else pushes every one-box row down one row.
    r = len(rows)
    if tail and tail[0] < x:
        rows.append([tail.popleft(), x, _HIGH])
        return r
    tail.appendleft(x)
    return r + len(tail) - 1


def _shape_within(w: Sequence[int], most: int) -> tuple[int, ...] | None:
    # P(w)'s row lengths, or None once an entry lands below row `most`.
    rows: list[list[int]] = []
    tail: deque[int] = deque()
    for x in w:
        if _bump(rows, tail, x) == most:
            return None
    return tuple([len(row) - 1 for row in rows]) + (1,) * len(tail)


def row_insert(t: Sequence[Sequence[int]], x: int) -> tuple[Tableau, int]:
    """
    Insert the integer x into a partial standard tableau (increasing rows
    and columns, any entry set) by row bumping: x replaces the leftmost
    entry greater than x in the first row, the displaced entry recurses
    into the next row, and so on until an append.  Returns the new tableau
    and the 1-based row where the append happened.  Raises InvalidTableau
    unless t is a partial standard tableau, and DuplicateEntry if it holds
    x already.

    >>> row_insert(((1, 4), (2,)), 3)
    (((1, 3), (2, 4)), 2)
    """
    t = tableaux.check_partial_tableau(t)
    x = index(x)
    if any(x in row for row in t):
        raise DuplicateEntry(f"entry {x} already present")
    rows = [[*row, _HIGH] for row in t]
    tail: deque[int] = deque()
    landing = _bump(rows, tail, x)
    return _joined(rows, tail), landing + 1


def rsk(p: Sequence[int]) -> tuple[Tableau, Tableau]:
    """
    The Robinson-Schensted correspondence: p -> (P, Q) of equal shape.
    Q records step s as p's entry of value s, taken from the value-ordered
    entries that the permutation check puts in place in O(n), so both
    tableaux hold p's own int objects.

    >>> rsk((2, 1, 4, 3))
    (((1, 3), (2, 4)), ((1, 3), (2, 4)))
    """
    # Schensted's loop, inlined, looking next to the column a carry left
    # before it searches a row below the first (module docstring).  Each
    # row of P lies between the sentinels 0 and n + 1, which the output
    # strips.  The pairs hold the rows below the first, of P and of Q:
    # swapping out n + 1 appends to the P row, and step to the Q row.
    p, ordered = _check_in_value_order(p)
    if not p:
        return (), ()
    big = len(p) + 1
    first: list[int] = [0, big]
    qfirst: list[int] = []
    rows: list[tuple[list[int], list[int]]] = []
    for x, step in zip(p, ordered):
        j = bisect_right(first, x)
        first[j], x = x, first[j]
        if x is big:
            first.append(x)
            qfirst.append(step)
            continue
        for prow, qrow in rows:
            try:
                if prow[j - 1] > x:
                    j -= 1
                    if prow[j - 1] > x:
                        j = bisect_right(prow, x, 1, j - 1)
            except IndexError:
                j = bisect_right(prow, x)
            prow[j], x = x, prow[j]
            if x is big:
                prow.append(x)
                qrow.append(step)
                break
        else:
            rows.append(([0, x, big], [step]))
    return (
        (tuple(first)[1:-1], *[tuple(prow)[1:-1] for prow, _ in rows]),
        (tuple(qfirst), *[tuple(qrow) for _, qrow in rows]),
    )


def inverse_rsk(pair: tuple[Sequence[Sequence[int]], Sequence[Sequence[int]]]) -> Perm:
    """
    The unique permutation p with rsk(p) == pair, obtained by reverse
    bumping the cells of P in decreasing order of Q's entries.  Raises
    InvalidTableau or ShapeMismatch unless the pair is two standard
    tableaux of one shape, and DomainError unless it has two items.

    >>> inverse_rsk((((1, 2, 5, 9), (3, 4, 8), (6, 7)),) * 2)
    (6, 7, 3, 4, 8, 1, 2, 5, 9)
    """
    if len(pair) != 2:
        raise DomainError(f"not a pair of tableaux: {len(pair)} items")
    p_tab, q_tab = map(tableaux.check_tableau, pair)
    if tableaux.shape(p_tab) != tableaux.shape(q_tab):
        raise ShapeMismatch(
            f"shapes differ: {tableaux.shape(p_tab)} vs {tableaux.shape(q_tab)}"
        )
    return _inverse_rsk(p_tab, q_tab)


def _inverse_rsk(p_tab: Tableau, q_tab: Tableau) -> Perm:
    # inverse_rsk of a pair the caller built as two standard tableaux of one
    # shape, without checking that again.
    n = tableaux.size(p_tab)
    row_of = tableaux._row_index(q_tab, n)
    big = n + 1
    rows = [[*row, big] for row in p_tab]
    out = [0] * n
    for k in range(n, 0, -1):
        r = row_of[k]
        row = rows[r]
        x = row.pop(-2)
        j = len(row) - 1  # the column x leaves
        # Reverse bumping: in each row above, x replaces the largest
        # smaller entry, which moves up in turn.  That entry is in column j
        # or right of it (module docstring), and n + 1 ends each row, so
        # the looks right of column j stay inside the row.
        for row in reversed(rows[:r]):
            if row[j + 1] < x:
                j += 1
                if row[j + 1] < x:
                    j = bisect_left(row, x, j + 2) - 1
            row[j], x = x, row[j]
        out[k - 1] = x
    return tuple(out)


def _involution_tableau(q: Perm) -> Tableau:
    # Beissinger's insertion (module docstring).
    rows: list[list[int]] = []
    tail: deque[int] = deque()
    for j, i in enumerate(q, start=1):
        if i > j:
            continue  # i is inserted when its partner comes
        r = 0 if i == j else _bump(rows, tail, i) + 1
        # q[i - 1] is j as q's own int object, not a fresh one from the
        # counter: f's image keeps the entries, and a caller holding many
        # images would otherwise hold one more int per entry.
        if r < len(rows):
            rows[r].insert(-1, q[i - 1])
        elif r == len(rows) and tail:
            rows.append([tail.popleft(), q[i - 1], _HIGH])
        else:
            tail.append(q[i - 1])  # a new last row
    return _joined(rows, tail)


def _peel(t: Tableau) -> Perm:
    # The involution whose standard tableau is T^T, for the standard
    # tableau t = T: Beissinger's insertion run backwards (module
    # docstring).  T^T's rows of two or more boxes are T's first lambda_2
    # columns, taken as lists, each ending in _HIGH; its one-box rows, the
    # tail, are the rest of T's first row.
    rows = tableaux._columns(t, len(t[1]) if len(t) > 1 else 0)
    tail = deque(t[0][len(rows):] if t else ())
    n = tableaux.size(t)
    # Reverse bumps only move entries up, so an entry's first row is a
    # bound to search up from; the tail's entries, which the list rows do
    # not hold, search from the last list row.
    row_of = tableaux._row_index(rows, n)
    for row in rows:
        row.append(_HIGH)
    out = [0] * n
    for j in range(n, 0, -1):
        if out[j - 1]:
            continue  # ejected earlier as a larger entry's partner
        if tail and tail[-1] == j:
            top = tail.pop()  # j, as the tableau's own int object
            r = len(rows) + len(tail)
        else:
            # the largest entry left ends its row
            r = row_of[j]
            if r >= len(rows):
                r = len(rows) - 1
            while rows[r][-2] != j:
                r -= 1
            top = rows[r].pop(-2)
            if len(rows[r]) == 2:  # only the last list row can drop to one box
                tail.appendleft(rows.pop()[0])
        if r == 0:
            out[j - 1] = top
            continue
        # Reverse bump the end of the row above, as in inverse_rsk: i lands
        # in the column c it leaves unless column c + 1 holds a smaller
        # entry, then in c + 1, and otherwise the search starts at c + 3.
        # Up the tail that moves each one-box row up one and ejects its
        # first, from column 0.
        if r > len(rows):
            i = tail.popleft()
            c = 0
            above = rows
        else:
            i = rows[r - 1].pop(-2)
            c = len(rows[r - 1]) - 1
            if c == 1:
                tail.appendleft(rows.pop()[0])
            above = rows[: r - 1]
        for row in reversed(above):
            if row[c + 1] < i:
                c += 1
                if row[c + 1] < i:
                    c = bisect_left(row, i, c + 2) - 1
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


def f_involution(p: Sequence[int]) -> Perm:
    """
    Transpose the tableau T of the involution p and take the involution
    whose tableau that is.  This map is an involution on involutions.

    The same image is the reverse of inverse_rsk((T, P(p#))), p# the
    reverse-complement of p (see the module docstring).  With lambda the
    shape of T, the peel of T^T reverse bumps an entry leaving row i of
    T^T through at most min(i - 1, lambda_2) list rows.  Summed down the
    columns of T^T, the rows of T, that is at most
    sum_i C(min(lambda_i, lambda_2), 2) + (lambda_1 - lambda_2) * lambda_2,
    as only the first row of T is longer than lambda_2: n(lambda^T) less
    C(lambda_1 - lambda_2, 2) for the one-box rows of T^T, which the tail
    passes without a visit.  The other route
    visits about n(lambda) / 2 rows to insert p# and n(lambda) to reverse
    bump T, and does more per entry (a second tableau to build, a
    recording tableau to index).  The evacuation route is taken when
    5 n(lambda) + 10 n is below that bound, a rule read off the shape in
    O(rows).  It was fitted to timings of both routes, the least of 5 runs
    (3 at n = 10^5), on seeded involutions and their f images: n = 10^3,
    2 * 10^3, 4 * 10^3, 10^4 and 3 * 10^4 at 5% to 100% of the entries in
    2-cycles, and n = 10^5 at 20% to 100%, 138 inputs, over the constants
    a = 1 .. 8 and b = 0 .. 40 of a n(lambda) + b n.  41 of the inputs, f
    images of tall T with n(lambda) past 4 times that bound plus 100 n,
    were timed on the peel alone, which every rule takes.  It takes the
    slower route on 1 of them, by 1.10 times (evacuation, n = 4 * 10^3, 40%
    paired; 0.6 ms).  The rule 3 n(lambda) + 10 n, fitted when the peel and
    the insertion searched whole rows, takes the slower route on 12, each
    time the evacuation route, by up to 1.34 times (n = 10^5, 50%; 0.36 s).
    On the 27 inputs of the benchmark's f-large, n = 10^3 to 4 * 10^3 at
    20%, 70% and 100%, it takes the faster route on all.

    >>> f_involution((2, 1, 5, 4, 3, 9, 8, 7, 6))
    (6, 7, 3, 4, 8, 1, 2, 5, 9)
    """
    q = check_involution(p)
    n = len(q)
    t = _involution_tableau(q)
    lam = tableaux.shape(t)
    n_lam = sum(map(mul, count(), lam))
    n_lam_transposed = sum(map(comb, lam, repeat(2)))
    overhang = lam[0] - lam[1] if len(lam) > 1 else n  # T^T's one-box rows
    if 5 * n_lam + 10 * n < n_lam_transposed - comb(overhang, 2):
        q_sharp = tuple(n + 1 - x for x in reversed(q))
        return reverse(_inverse_rsk(t, _involution_tableau(q_sharp)))
    return _peel(t)


def is_gfk_tight(p: Sequence[int]) -> bool:
    """
    True iff for every k the k longest jogs of p jointly realize the
    longest k-increasing subsequence length: by Greene's theorem, iff the
    jog lengths, longest first, are the row lengths of P(p), read from
    the side of p or its reverse with fewer rows (module docstring), in at
    most n * min(jogs, longest jog, mu'_2) row visits, mu the shape
    inserted.

    >>> is_gfk_tight((6, 7, 3, 4, 8, 1, 2, 5, 9)), is_gfk_tight((1, 3, 4, 2))
    (True, False)
    """
    q = tuple(p)
    lengths = tuple(jog_lengths(q))  # inverse(q) refuses a word that is not a permutation
    if lengths and len(lengths) > lengths[0]:
        q, lengths = reverse(q), tableaux.conjugate(lengths)
    return _shape_within(q, len(lengths)) == lengths


def is_dually_gfk_tight(p: Sequence[int]) -> bool:
    """True iff the k longest reverse jogs realize the longest k-decreasing
    subsequence length for every k: the reverse jogs of p are the jogs of
    its reversed word, so this is is_gfk_tight of that word."""
    return is_gfk_tight(reverse(p))
