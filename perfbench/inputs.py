"""Seeded input generators for the benchmark workloads.

Every generator draws from a ``random.Random`` it is given and builds its
object from first principles.  None of them calls rsinv, so a defect in
the library cannot shape the inputs that are used to test it.
Permutations are tuples in one-line notation with values 1..n.
"""
from __future__ import annotations

import random
from bisect import bisect_left


def permutation(rng: random.Random, n: int) -> tuple[int, ...]:
    """A uniformly random permutation of 1..n."""
    p = list(range(1, n + 1))
    rng.shuffle(p)
    return tuple(p)


def involution(rng: random.Random, n: int, paired: float) -> tuple[int, ...]:
    """A random involution with ``int(paired * n) // 2`` 2-cycles, placed on
    a random subset of the entries; the other entries are fixed points."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    p = list(range(1, n + 1))
    for i in range(int(paired * n) // 2):
        a, b = order[2 * i], order[2 * i + 1]
        p[a - 1], p[b - 1] = b, a
    return tuple(p)


def composition(rng: random.Random, n: int) -> list[int]:
    """A uniformly random composition of n >= 1: each of the n-1 gaps
    between consecutive units is cut with probability 1/2."""
    parts = [1]
    for _ in range(n - 1):
        if rng.random() < 0.5:
            parts.append(1)
        else:
            parts[-1] += 1
    return parts


def layered(rng: random.Random, n: int) -> tuple[int, ...]:
    """The layered permutation of a random composition: consecutive
    decreasing blocks, each block's values above the previous block's."""
    out: list[int] = []
    for width in composition(rng, n):
        base = len(out)
        out.extend(range(base + width, base, -1))
    return tuple(out)


def ballot_tableau(rng: random.Random, n: int) -> tuple[tuple[int, ...], ...]:
    """A two-row standard tableau read off a random ballot path of n steps:
    an up step puts its index in the top row, a down step in the second.
    The path goes up when it is on the axis, otherwise either way with
    probability 1/2."""
    top: list[int] = []
    bottom: list[int] = []
    for step in range(1, n + 1):
        if len(top) == len(bottom) or rng.random() < 0.5:
            top.append(step)
        else:
            bottom.append(step)
    return (tuple(top), tuple(bottom)) if bottom else (tuple(top),)


def involution_of_two_rows(rows: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """The 321-avoiding involution whose tableau is the given two-row
    tableau, by peeling entries from the largest down: the largest is a
    fixed point when it is in the top row, otherwise it pairs with the
    largest entry left in the top row."""
    top = list(rows[0]) if rows else []
    bottom = list(rows[1]) if len(rows) > 1 else []
    p = [0] * (len(top) + len(bottom))
    while top or bottom:
        if bottom and (not top or bottom[-1] > top[-1]):
            m, partner = bottom.pop(), top.pop()
            p[m - 1], p[partner - 1] = partner, m
        else:
            m = top.pop()
            p[m - 1] = m
    return tuple(p)


def longest_increasing(p: tuple[int, ...]) -> int:
    """Length of the longest increasing subsequence, by patience sorting."""
    piles: list[int] = []
    for x in p:
        i = bisect_left(piles, x)
        if i == len(piles):
            piles.append(x)
        else:
            piles[i] = x
    return len(piles)


def involution_123_avoiding(rng: random.Random, n: int) -> tuple[int, ...]:
    """A random 123-avoiding involution, by rejection from involutions with
    n mod 2 fixed points.  Meant for n <= 16, where about one draw in a few
    hundred is accepted."""
    while True:
        p = involution(rng, n, 1.0)
        if longest_increasing(p) <= 2:
            return p


def partition_counts(n: int) -> list[int]:
    """p(0), ..., p(n) by the standard coin-change recurrence."""
    counts = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            counts[total] += counts[total - part]
    return counts


def involution_counts(n: int) -> list[int]:
    """I(0), ..., I(n) by I(m) = I(m-1) + (m-1) I(m-2)."""
    counts = [1, 1]
    for m in range(2, n + 1):
        counts.append(counts[m - 1] + (m - 1) * counts[m - 2])
    return counts[: n + 1]
