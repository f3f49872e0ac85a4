"""Generators for permutation and tableau families, partition machinery,
and counts: of partitions, involutions, layered permutations, and the
permutations whose insertion and recording tableaux are both layered.

All streams are lazy with documented deterministic orders, and yield
nothing for a negative size; all counts use exact integer arithmetic in
polynomial time.  Standard and layered tableaux share one walk, with a
placement rule each.  The slow references the counts are checked
against, the partition sum and the factorial scan with the subset oracle,
are in ``rsinv.verify``, so nothing here imports the oracle.
"""
from __future__ import annotations

from math import comb, factorial
from typing import Callable, Iterator, Sequence

from .errors import InstanceTooLarge
from .insertion import inverse_rsk_unchecked
from .permutations import Perm
from .tableaux import Tableau, as_tableau, conjugate

Partition = tuple[int, ...]
Composition = tuple[int, ...]

#: most steps, about n^3 / 6, that ``count_A`` may take; past it it refuses
#: before building a table.  The largest n it answers is 427: n = 400
#: (10.7 M steps) took 4.5 s and n = 428 (13.1 M) 5.7 s, and time grows
#: faster than the steps as the integers grow.
COUNT_A_STEP_BOUND = 13 * 10**6


def partitions(n: int) -> Iterator[Partition]:
    """
    All partitions of n in reverse-lexicographic order.  Each next one
    drops the trailing ones, lowers the last part x > 1 to x - 1, and
    refills the freed amount with parts of size at most x - 1, largest
    first.

    >>> list(partitions(4))
    [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    """
    if n < 0:
        return
    parts = [n] if n else []
    while True:
        yield tuple(parts)
        ones = 0
        while parts and parts[-1] == 1:
            parts.pop()
            ones += 1
        if not parts:
            return
        x = parts.pop() - 1
        q, r = divmod(ones + 1, x)
        parts.extend([x] * (q + 1))
        if r:
            parts.append(r)


def partition_count(n: int) -> int:
    """
    Number of partitions of n by Euler's pentagonal-number recurrence
    (independent of the partitions generator, which tests compare against),
    filled in for 0..n in one loop.

    >>> [partition_count(n) for n in range(8)]
    [1, 1, 2, 3, 5, 7, 11, 15]
    """
    if n < 0:
        return 0
    counts = [1]
    for m in range(1, n + 1):
        total = 0
        k = 1
        while (g1 := k * (3 * k - 1) // 2) <= m:
            sign = 1 if k % 2 else -1
            total += sign * counts[m - g1]
            if (g2 := g1 + k) <= m:
                total += sign * counts[m - g2]
            k += 1
        counts.append(total)
    return counts[n]


def compositions(n: int) -> Iterator[Composition]:
    """
    All compositions of n in lexicographic order of parts.  Each next one
    merges the last two parts (a, b) into a + 1 followed by b - 1 ones.

    >>> list(compositions(3))
    [(1, 1, 1), (1, 2), (2, 1), (3,)]
    """
    if n < 0:
        return
    parts = [1] * n
    while True:
        yield tuple(parts)
        if len(parts) < 2:
            return
        last = parts.pop()
        parts[-1] += 1
        parts.extend([1] * (last - 1))


def comp_count(parts: Sequence[int]) -> int:
    """
    Number of distinct compositions obtained by rearranging the parts of a
    partition: the multinomial (number of parts)! / product(multiplicity!).

    >>> comp_count((3, 2, 1)), comp_count((2, 2, 1, 1, 1))
    (6, 10)
    """
    result = factorial(len(parts))
    for part in set(parts):
        result //= factorial(list(parts).count(part))
    return result


def count_A(n: int) -> int:
    """
    Number of permutations of length n whose insertion and recording
    tableaux are both layered: the sum of comp_count(h)**2 over all
    partitions h of n, computed without listing the partitions.

    Part sizes j are taken largest first: ways[s][l] is that sum over the
    multisets of parts larger than j with total s and l parts, so
    l <= s // (j + 1).  Adding m parts of size j multiplies the number of
    arrangements by C(l + m, m), so each j updates
    ways[s + j*m][l + m] += ways[s][l] * C(l + m, m)**2, with s walked
    downward so that each state is extended by parts of size j only once.
    The squares come from a table built once per call.  Size j visits
    O(n^3 / j^2) (s, l, m) triples, O(n^3) exact-integer steps in all,
    instead of p(n) partitions.  It takes about 0.3 s at n = 150, 1.8 s at
    n = 300 and 4.6 s at n = 400 (Python 3.11.7, shared 2-vCPU host): the
    time grows faster than n^3 because the integers grow to about 2n bits.
    Raises InstanceTooLarge, before any table is built, when n^3 / 6
    passes COUNT_A_STEP_BOUND.

    >>> [count_A(n) for n in range(1, 5)]
    [1, 2, 6, 16]
    """
    if n < 0:
        return 0
    if n**3 // 6 > COUNT_A_STEP_BOUND:
        raise InstanceTooLarge(
            f"count_A at n={n} takes about n^3/6 = {n**3 // 6} steps,"
            f" past COUNT_A_STEP_BOUND = {COUNT_A_STEP_BOUND}"
        )
    squares = [[comb(l + m, m) ** 2 for m in range(n + 1 - l)] for l in range(n + 1)]
    ways = [[0] * (n + 1) for _ in range(n + 1)]
    ways[0][0] = 1
    for j in range(n, 0, -1):
        for s in range(n - j, -1, -1):
            for l, w in enumerate(ways[s][: s // (j + 1) + 1]):
                if w:
                    square = squares[l]
                    for m in range(1, (n - s) // j + 1):
                        ways[s + j * m][l + m] += w * square[m]
    return sum(ways[n])


def count_layered(n: int) -> int:
    """Layered permutations of length n are in bijection with compositions."""
    return 2 ** (n - 1) if n >= 1 else 1


def count_involutions(n: int) -> int:
    """Involution numbers by the recurrence I(n) = I(n-1) + (n-1) I(n-2)."""
    previous, current = 1, 1
    for m in range(2, n + 1):
        previous, current = current, current + (m - 1) * previous
    return current


def layered_from_composition(parts: Sequence[int]) -> Perm:
    """The layered permutation whose layer lengths are the given parts."""
    out: list[int] = []
    base = 0
    for width in parts:
        out.extend(range(base + width, base, -1))
        base += width
    return tuple(out)


def layered_permutations(n: int) -> Iterator[Perm]:
    """
    All 2^(n-1) layered permutations of length n, one per composition, in
    the composition order of ``compositions``.

    >>> list(layered_permutations(3))
    [(1, 2, 3), (1, 3, 2), (2, 1, 3), (3, 2, 1)]
    """
    for parts in compositions(n):
        yield layered_from_composition(parts)


def involutions(n: int) -> Iterator[Perm]:
    """
    All involutions of length n in lexicographic one-line order: the
    smallest unmatched element is first fixed, then paired with each larger
    element in turn.

    >>> list(involutions(3))
    [(1, 2, 3), (1, 3, 2), (2, 1, 3), (3, 2, 1)]
    """
    if n < 0:
        return
    word = list(range(n + 1))  # word[i] = partner of i, 0 while unmatched
    chosen = list(range(1, n + 1))  # the smaller element of each choice made
    while True:
        yield tuple(word[1:])
        # Undo choices, latest first, until one can pair with a later
        # unmatched element; then fix everything still unmatched.
        while chosen:
            a = chosen.pop()
            b = word[a]
            word[a] = word[b] = 0
            b += 1
            while b <= n and word[b]:
                b += 1
            if b <= n:
                word[a], word[b] = b, a
                chosen.append(a)
                for c in range(a + 1, n + 1):
                    if not word[c]:
                        word[c] = c
                        chosen.append(c)
                break
        else:
            return


def _grow_tableaux(n: int, later: Callable[..., int | None]) -> Iterator[Tableau]:
    # Every tableau on 1..n the rule reaches from the one-row tableau: e, just
    # taken off row r, may go to row later(rows, row_of, e, r) > r, or nowhere.
    if n == 0:
        yield ()
    if n <= 0:
        return
    rows = [list(range(1, n + 1))]
    row_of = [0] * (n + 1)  # 0-based row of each entry
    while True:
        yield as_tableau(rows)
        # Take entries off, largest first, until one has a later row; put
        # it there and every larger entry back on the top row.
        e = n
        while True:
            if e == 1:
                return
            r = row_of[e]
            rows[r].pop()
            if not rows[r]:
                rows.pop()
            r = later(rows, row_of, e, r)
            if r is not None:
                break
            e -= 1
        if r == len(rows):
            rows.append([])
        rows[r].append(e)
        row_of[e] = r
        rows[0].extend(range(e + 1, n + 1))
        for k in range(e + 1, n + 1):
            row_of[k] = 0


def layered_tableaux(n: int) -> Iterator[Tableau]:
    """
    All 2^(n-1) standard tableaux in which each entry i+1 sits directly
    below i or in the top row: the standard walk, but e moves only from the
    top row to the row below e - 1, top-row placement first.

    >>> list(layered_tableaux(2))
    [((1, 2),), ((1,), (2,))]
    """
    return _grow_tableaux(n, lambda rows, row_of, e, r: None if r else row_of[e - 1] + 1)


def standard_tableaux(n: int) -> Iterator[Tableau]:
    """
    All standard Young tableaux on n boxes, grown by appending each next
    entry to every legal row end, top row first, then to a new row.
    """

    def later(rows, row_of, e, r):
        # The next row below r shorter than the row above it, or a new row.
        r += 1
        while r < len(rows) and len(rows[r]) == len(rows[r - 1]):
            r += 1
        return r if r <= len(rows) else None

    return _grow_tableaux(n, later)


def layered_tableau(parts: Sequence[int]) -> Tableau:
    """
    The tableau of the layered permutation with these layer lengths: each
    layer starts on the top row, and each next entry of it goes directly
    below the previous one.

    >>> layered_tableau((2, 1, 3))
    ((1, 3, 4), (2, 5), (6,))
    """
    rows: list[list[int]] = []
    entry = 0
    for width in parts:
        for r in range(width):
            entry += 1
            if r == len(rows):
                rows.append([])
            rows[r].append(entry)
    return as_tableau(rows)


def _rearrangements(parts: Sequence[int]) -> Iterator[Composition]:
    # Distinct orderings of a multiset in lexicographic order, each from
    # the one before by the classical next-permutation step.
    c = sorted(parts)
    while True:
        yield tuple(c)
        i = len(c) - 2
        while i >= 0 and c[i] >= c[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(c) - 1
        while c[j] <= c[i]:
            j -= 1
        c[i], c[j] = c[j], c[i]
        c[i + 1 :] = reversed(c[i + 1 :])


def generalized_layered(n: int) -> Iterator[Perm]:
    """
    The permutations whose insertion and recording tableaux are both
    layered: the inverse correspondence applied to every ordered pair of
    equal-shape layered tableaux.  Shapes h run in the reverse-lexicographic
    partition order.  The layered tableaux of shape h are those of the
    compositions that rearrange conjugate(h), and pairs run in the
    lexicographic order of those compositions, the order of
    ``layered_tableaux``.  Both tableaux of a pair are built standard and
    of shape h, so the inverse correspondence does not check them again.
    Nothing is held but the current pair.

    >>> list(generalized_layered(2))
    [(1, 2), (2, 1)]
    """
    for h in partitions(n):
        layer_lengths = conjugate(h)
        for p_parts in _rearrangements(layer_lengths):
            p_tab = layered_tableau(p_parts)
            for q_parts in _rearrangements(layer_lengths):
                yield inverse_rsk_unchecked(p_tab, layered_tableau(q_parts))


def verify_bounds(n: int) -> bool:
    """
    Exact-integer check of 4^(n-1)/p(n) <= count_A(n) <= 4^(n-1); the lower
    bound is compared as p(n) * count_A(n) >= 4^(n-1) to stay in integers.
    """
    a_n = count_A(n)
    power = 4 ** (n - 1)
    return partition_count(n) * a_n >= power and a_n <= power
