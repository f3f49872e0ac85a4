"""Generators for permutation and tableau families, partition machinery,
and the count of permutations whose insertion and recording tableaux are
both layered.

All streams are lazy with documented deterministic orders, and all counts
use exact integer arithmetic.
"""
from __future__ import annotations

from itertools import permutations as _symmetric_group
from math import comb, factorial
from typing import Iterator, Sequence

from .errors import InstanceTooLarge
from .greene import env_cap, oracle_is_dually_gfk_tight
from .insertion import inverse_rsk
from .permutations import Perm, inverse
from .tableaux import Shape, Tableau, as_tableau
from .tableaux import shape as shape_of

Partition = tuple[int, ...]
Composition = tuple[int, ...]

#: largest n for which the n!-scan count is allowed
BRUTE_COUNT_CAP = 8


def partitions(n: int, largest: int | None = None) -> Iterator[Partition]:
    """
    All partitions of n in reverse-lexicographic order.

    >>> list(partitions(3))
    [(3,), (2, 1), (1, 1, 1)]
    """
    if n == 0:
        yield ()
        return
    bound = n if largest is None else min(largest, n)
    for first in range(bound, 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


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

    ways[s][l] is that sum over the multisets of parts smaller than j with
    total s and l parts.  Adding m parts of size j multiplies the number
    of arrangements by C(l + m, m), so each j updates
    ways[s + j*m][l + m] += ways[s][l] * C(l + m, m)**2, with s walked
    downward so that each state is extended by parts of size j only once.
    That is O(n^3 log n) exact-integer steps instead of p(n) partitions.

    >>> [count_A(n) for n in range(1, 5)]
    [1, 2, 6, 16]
    """
    if n < 0:
        return 0
    ways = [[0] * (n + 1) for _ in range(n + 1)]
    ways[0][0] = 1
    for j in range(1, n + 1):
        for s in range(n - j, -1, -1):
            for l, w in enumerate(ways[s][: s + 1]):
                if w:
                    for m in range(1, (n - s) // j + 1):
                        ways[s + j * m][l + m] += w * comb(l + m, m) ** 2
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


def layered_tableaux(n: int) -> Iterator[Tableau]:
    """
    All 2^(n-1) standard tableaux in which each entry i+1 sits directly
    below i or in the top row, grown entry by entry; at each step the
    top-row placement is emitted before the below placement.

    >>> list(layered_tableaux(2))
    [((1, 2),), ((1,), (2,))]
    """
    if n == 0:
        yield ()
        return
    rows = [list(range(1, n + 1))]
    row_of = [0] * (n + 1)  # 0-based row of each entry
    while True:
        yield as_tableau(rows)
        # The last entry on the top row moves below its predecessor, and
        # every later entry goes back to the top row.
        e = n
        while e > 1 and row_of[e]:
            e -= 1
        if e == 1:
            return
        for k in range(n, e - 1, -1):
            rows[row_of[k]].pop()
            if not rows[-1]:
                rows.pop()
        below = row_of[e - 1] + 1
        if below == len(rows):
            rows.append([])
        rows[below].append(e)
        row_of[e] = below
        rows[0].extend(range(e + 1, n + 1))
        for k in range(e + 1, n + 1):
            row_of[k] = 0


def standard_tableaux(n: int) -> Iterator[Tableau]:
    """
    All standard Young tableaux on n boxes, grown by appending each next
    entry to every legal row end (top row first).
    """
    if n == 0:
        yield ()
        return

    rows: list[list[int]] = [[1]]

    def grow(entry: int) -> Iterator[Tableau]:
        if entry > n:
            yield as_tableau(rows)
            return
        for r in range(len(rows)):
            if r == 0 or len(rows[r]) < len(rows[r - 1]):
                rows[r].append(entry)
                yield from grow(entry + 1)
                rows[r].pop()
        rows.append([entry])
        yield from grow(entry + 1)
        rows.pop()

    yield from grow(2)


def layered_tableaux_by_shape(n: int) -> dict[Shape, list[Tableau]]:
    """Layered tableaux grouped by shape, preserving generation order."""
    grouped: dict[Shape, list[Tableau]] = {}
    for t in layered_tableaux(n):
        grouped.setdefault(shape_of(t), []).append(t)
    return grouped


def generalized_layered(n: int) -> Iterator[Perm]:
    """
    The permutations whose insertion and recording tableaux are both
    layered: the inverse correspondence applied to every ordered pair of
    equal-shape layered tableaux.  Shapes run in the reverse-lexicographic
    partition order, pairs in generation order.

    >>> list(generalized_layered(2))
    [(1, 2), (2, 1)]
    """
    grouped = layered_tableaux_by_shape(n)
    for shp in partitions(n):
        group = grouped.get(shp, [])
        for p_tab in group:
            for q_tab in group:
                yield inverse_rsk((p_tab, q_tab))


def brute_count_general(n: int) -> int:
    """
    Count, by full n!-scan with the subset oracle, the permutations p such
    that p and its inverse are both dually GFK-tight.  Must agree with
    count_A; capped because the scan is factorial.
    """
    cap = env_cap(BRUTE_COUNT_CAP)
    if n > cap:
        raise InstanceTooLarge(f"factorial scan capped at n <= {cap}, got {n}")
    count = 0
    for p in _symmetric_group(range(1, n + 1)):
        if oracle_is_dually_gfk_tight(p) and oracle_is_dually_gfk_tight(inverse(p)):
            count += 1
    return count


def verify_bounds(n: int) -> bool:
    """
    Exact-integer check of 4^(n-1)/p(n) <= count_A(n) <= 4^(n-1); the lower
    bound is compared as p(n) * count_A(n) >= 4^(n-1) to stay in integers.
    """
    a_n = count_A(n)
    power = 4 ** (n - 1)
    return partition_count(n) * a_n >= power and a_n <= power
