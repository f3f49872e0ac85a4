"""Standard Young tableaux stored as ragged rows of entries.

A tableau is a tuple of rows (tuples of ints); a shape is the tuple of row
lengths.  Entries of a standard tableau on n boxes are exactly 1..n,
strictly increasing along rows and down columns.  The empty tableau ``()``
is valid.

One private function, ``_checked``, refuses a bad standard or partial
tableau with InvalidTableau in O(n), without a sort: it converts the rows
once, tells the entries are distinct from the size of their set, scans
the row lengths, rows and columns, and only then, for a standard tableau,
reads the least entry (the first row's first) and the largest (the
largest row end).  ``check_tableau`` and ``check_partial_tableau`` call
it, and ``validate`` is check_tableau's answer as a bool.  ``transpose``
and ``first_column`` move entries without comparing them, so they test
only the length rule (positive, weakly decreasing), in O(number of rows);
``conjugate`` tests the same rule with zero parts allowed, and refuses
with a DomainError.

The predicates on tableaux answer False on rows that ``validate`` rejects,
and ``tableau_descents`` raises InvalidTableau on them, so untrusted rows
never reach a lookup that fails.  Each has a private core, its name with a
leading underscore, which checks nothing: it is for a caller that built
the tableau or checked it already, and on other rows its answer means
nothing.  A public name runs its core on the tuple ``check_tableau``
built, so rows given as an iterator are read once, by the check.
"""
from __future__ import annotations

import json
from itertools import chain, compress, count
from operator import ge, index, itemgetter, lt
from typing import Sequence

from .errors import DomainError, InvalidTableau

Tableau = tuple[tuple[int, ...], ...]
Shape = tuple[int, ...]


def as_tableau(rows: Sequence[Sequence[int]]) -> Tableau:
    return tuple(map(tuple, rows))


def shape(t: Sequence[Sequence[int]]) -> Shape:
    return tuple(map(len, t))


def size(t: Sequence[Sequence[int]]) -> int:
    return sum(map(len, t))


def conjugate(s: Sequence[int]) -> Shape:
    """
    The conjugate partition: column lengths of the Young diagram of the
    partition s (weakly decreasing parts, zero parts ignored).  The columns
    that reach row h but not row h+1 are appended at once, so it takes
    O(len(s) + s[0]) steps.  Raises DomainError on parts that increase or
    fall below 0.

    >>> conjugate((3, 3, 2, 1))
    (4, 3, 2)
    """
    if not _is_shape(s, least=0):
        raise DomainError(f"not a partition: {tuple(s)}")
    heights: list[int] = []
    for h in range(len(s), 0, -1):
        heights.extend([h] * (s[h - 1] - len(heights)))
    return tuple(heights)


def _is_shape(lengths: Sequence[int], least: int = 1) -> bool:
    # The length rule: weakly decreasing, so every length is at least
    # `least` when the last one is.
    return not lengths or (lengths[-1] >= least and all(map(ge, lengths, lengths[1:])))


def _shaped(t: Sequence[Sequence[int]]) -> tuple[Sequence[int], ...]:
    # t's rows as a tuple, checked by the length rule alone in O(number of
    # rows), for the functions that move entries without comparing them.
    rows = tuple(t)
    if not _is_shape(lengths := shape(rows)):
        raise InvalidTableau(f"row lengths are not a partition: {lengths}")
    return rows


def validate(t: Sequence[Sequence[int]]) -> bool:
    """
    True iff t is a standard Young tableau: check_tableau's answer, False
    where it refuses, so it can screen untrusted input.
    """
    try:
        check_tableau(t)
    except InvalidTableau:
        return False
    return True


def check_tableau(t: Sequence[Sequence[int]]) -> Tableau:
    """
    t as a tableau; raises InvalidTableau unless it is a standard Young
    tableau: positive, weakly decreasing row lengths, entries exactly 1..n,
    rows and columns strictly increasing.  An entry that is not an
    integer, such as None, "a" or 2.0, is a violation too; a bool counts as
    0 or 1.
    """
    return _checked(t, partial=False)


def check_partial_tableau(t: Sequence[Sequence[int]]) -> Tableau:
    """
    t as a tableau; raises InvalidTableau unless it is a partial standard
    tableau: distinct integer entries, any set of them, with rows and
    columns strictly increasing and row lengths weakly decreasing.

    >>> check_partial_tableau(((2, 7), (5,)))
    ((2, 7), (5,))
    """
    return _checked(t, partial=True)


def _checked(t: Sequence[Sequence[int]], partial: bool) -> Tableau:
    # The one refusal of both checks, on rows converted once, in O(n)
    # without a sort.  A set of the integer entries tells they are
    # distinct.  Unless partial, they are then 1..n exactly when the least
    # is 1 and the largest n; once rows and columns increase, the least is
    # the first row's first entry and the largest is some row's last.  Each
    # scan is C-level (map over operator) and relies on the ones before it:
    # the entries are integers before rows and columns are compared, and
    # those are compared before the corners are read.
    kind = "partial standard tableau" if partial else "standard Young tableau"
    try:
        tab = as_tableau(t)
        distinct = len(set(map(index, chain.from_iterable(tab))))
    except TypeError:  # t or a row not iterable, or an entry not an integer
        raise InvalidTableau(f"not a {kind}: {t!r}") from None
    lengths = shape(tab)
    n = sum(lengths)
    if not (
        distinct == n
        and _is_shape(lengths)
        and all(all(map(lt, row, row[1:])) for row in tab)
        and all(all(map(lt, upper, lower)) for upper, lower in zip(tab, tab[1:]))
        and (partial or not tab or tab[0][0] == 1 and max(map(itemgetter(-1), tab)) == n)
    ):
        raise InvalidTableau(f"not a {kind}: {tab}")
    return tab


def transpose(t: Sequence[Sequence[int]]) -> Tableau:
    """
    Reflect across the main diagonal: the entry in row r, column c moves to
    row c, column r.  Row lengths must be positive and weakly decrease, as
    in a tableau, or it raises InvalidTableau; each entry is moved once, in
    O(n) steps whatever the shape.

    >>> transpose(((1, 3, 6), (2, 4, 7), (5, 8), (9,)))
    ((1, 2, 5, 9), (3, 4, 8), (6, 7))
    """
    t = _shaped(t)
    return tuple(map(tuple, _columns(t, len(t[0]) if t else 0)))


def _columns(t: Sequence[Sequence[int]], width: int) -> list[list[int]]:
    # The first `width` columns of t as lists, top to bottom: each row adds
    # its entries to the columns it reaches, so each entry is moved once.
    # list.append returns None, so any() runs each map to its end, in C.
    columns: list[list[int]] = [[] for _ in range(width)]
    for row in t:
        any(map(list.append, columns, row))
    return columns


def layered_tableau(parts: Sequence[int]) -> Tableau:
    """
    The tableau of the layered permutation with these layer lengths: each
    layer starts on the top row, and each next entry of it goes directly
    below the previous one.

    >>> layered_tableau((2, 1, 3))
    ((1, 3, 4), (2, 5), (6,))
    """
    parts = _composition(parts)
    rows: list[list[int]] = [[] for _ in range(max(parts, default=0))]
    entry = 0
    for width in parts:
        for r in range(width):
            entry += 1
            rows[r].append(entry)
    return as_tableau(rows)


def _composition(parts: Sequence[int]) -> tuple[int, ...]:
    # Layer lengths as a tuple, as layered_tableau and
    # layered_from_composition read them: no part below 1.
    parts = tuple(parts)
    if min(parts, default=1) < 1:
        raise DomainError(f"not a composition: {parts}")
    return parts


def tableau_descents(t: Sequence[Sequence[int]]) -> set[int]:
    """
    Entries i such that i+1 lies in a strictly lower row.  Raises
    InvalidTableau unless t is a standard Young tableau.

    >>> sorted(tableau_descents(((1, 2, 5, 9), (3, 4, 8), (6, 7))))
    [2, 5]
    """
    return _tableau_descents(check_tableau(t))


def _row_index(rows: Sequence[Sequence[int]], n: int) -> list[int]:
    # row_of[v] is the 0-based row of entry v, for v in 1..n; an entry the
    # rows do not hold gets len(rows), the row below them.  The one entry
    # index of the package: inverse_rsk, f's peel and the descents read it.
    row_of = [len(rows)] * (n + 1)
    for r, row in enumerate(rows):
        for v in row:
            row_of[v] = r
    return row_of


def _tableau_descents(t: Sequence[Sequence[int]]) -> set[int]:
    row = _row_index(t, size(t))
    return set(compress(count(1), map(lt, row[1:], row[2:])))


def is_layered_tableau(t: Sequence[Sequence[int]]) -> bool:
    """
    True iff t is a standard Young tableau in which every entry i+1 sits
    either in the row directly below i's row or in the top row.  Vacuously
    true on 0 or 1 boxes; False on anything validate rejects.
    """
    try:
        return _is_layered_tableau(check_tableau(t))
    except InvalidTableau:
        return False


def _is_layered_tableau(t: Sequence[Sequence[int]]) -> bool:
    # Every entry v below the top row has v-1 in the row directly above.
    # Both rows increase, so one pass over the row above finds each v-1 in
    # turn.
    for above, row in zip(t, t[1:]):
        rest = iter(above)
        for v in row:
            if v - 1 not in rest:
                return False
    return True


def satisfies_transposed_layer(t: Sequence[Sequence[int]]) -> bool:
    """
    True iff t is a standard Young tableau in which every entry i+1 sits
    either in the first column or in the column immediately right of i's
    column: the layered condition on the transpose.  False on anything
    validate rejects.
    """
    try:
        return _satisfies_transposed_layer(check_tableau(t))
    except InvalidTableau:
        return False


def _satisfies_transposed_layer(t: Sequence[Sequence[int]]) -> bool:
    # Read from each entry's column; entry 1 is in the first column.
    column = [0] * (size(t) + 1)  # column[v]: the column of entry v
    for row in t:
        for c, v in enumerate(row):
            column[v] = c
    left = 0
    for c in column[2:]:
        if c and c != left + 1:
            return False
        left = c
    return True


def first_column(t: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Entries of the leftmost column, top to bottom.  Row lengths must be
    positive and weakly decrease, or it raises InvalidTableau."""
    return tuple(row[0] for row in _shaped(t))


def tableau_to_json(t: Sequence[Sequence[int]]) -> str:
    """Serialize as ``{"rows":[[...],...]}`` with rows top to bottom."""
    return json.dumps({"rows": [list(row) for row in t]}, separators=(",", ":"))


def tableau_from_json(text: str) -> Tableau:
    """Parse and validate the JSON tableau format; raises InvalidTableau."""
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad JSON, too long an int, too deep
        raise InvalidTableau(f"bad tableau JSON: {exc}") from exc
    if not isinstance(data, dict) or set(data) != {"rows"}:
        raise InvalidTableau('tableau JSON must be an object with single key "rows"')
    rows = data["rows"]
    if not isinstance(rows, list) or not all(
        # JSON true and false load as bool, a subclass of int
        isinstance(row, list) and all(type(v) is int for v in row) for row in rows
    ):
        raise InvalidTableau('"rows" must be a list of lists of integers')
    return check_tableau(rows)
