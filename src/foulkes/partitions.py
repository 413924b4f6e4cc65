"""Exact integer-partition arithmetic.

Partitions are weakly decreasing tuples of positive integers.  This module
provides conjugation, the dominance order, enumeration in descending
lexicographic order, diagonal-hook diagnostics and the two constructions the
constituent formulas need: the conjugate-join (column lengths add) and the
doubled partition with prescribed diagonal hook lengths.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from enum import Enum
from functools import reduce, total_ordering
from itertools import accumulate, repeat
from math import factorial
from operator import add, ge
from operator import index as _as_int
from typing import Iterable, Iterator, Sequence

from .errors import InternalConsistencyError

__all__ = [
    "Partition",
    "DominanceRelation",
    "parse_partition",
    "dominance_compare",
    "dominates",
    "dominance_minimal_elements",
    "dominance_maximal_elements",
    "conjugate_join",
    "double_from_distinct",
    "diagonal_hook_lengths",
    "dimension",
    "partitions_of",
    "distinct_part_partitions_of",
]


@total_ordering
class Partition:
    """A weakly decreasing sequence of positive integers.

    Instances are immutable and hashable.  Comparison operators give the
    lexicographic order on part sequences: the first differing part decides,
    and a proper prefix is smaller.
    """

    __slots__ = ("parts", "weight", "_conj")

    def __init__(self, parts: Iterable[int] = ()):
        ps = tuple(_as_int(p) for p in parts)
        for i, p in enumerate(ps):
            if p < 1:
                raise ValueError(f"partition parts must be positive: {ps}")
            if i and ps[i - 1] < p:
                raise ValueError(f"partition parts must be weakly decreasing: {ps}")
        self.parts = ps
        self.weight = sum(ps)
        self._conj: Partition | None = None

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Partition) and self.parts == other.parts

    def __lt__(self, other: "Partition"):
        if not isinstance(other, Partition):
            return NotImplemented
        return self.parts < other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, i: int) -> int:
        return self.parts[i]

    def __repr__(self) -> str:
        return f"Partition({list(self.parts)!r})"

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts)

    def part(self, i: int) -> int:
        """The i-th part, 1-based; zero beyond the last part."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    def conjugate(self) -> "Partition":
        """The partition of column lengths of the Young diagram (memoized)."""
        if self._conj is None:
            cols = [0] * (self.parts[0] if self.parts else 0)
            for p in self.parts:
                for j in range(p):
                    cols[j] += 1
            conj = Partition(cols)
            conj._conj = self
            self._conj = conj
        return self._conj


def parse_partition(text: str) -> Partition:
    """Parse a comma-separated partition; the empty string is the empty partition."""
    text = text.strip()
    if not text:
        return Partition()
    return Partition(int(tok) for tok in text.split(","))


class DominanceRelation(Enum):
    STRICTLY_BELOW = "strictly-below"
    EQUAL = "equal"
    STRICTLY_ABOVE = "strictly-above"
    INCOMPARABLE = "incomparable"


def dominance_compare(lam: Partition, mu: Partition) -> DominanceRelation:
    """Compare two partitions of equal weight in the dominance order.

    ``STRICTLY_ABOVE`` means every prefix sum of ``lam`` is at least the
    matching prefix sum of ``mu``, with at least one strict inequality.
    Partitions of different weights live in different posets and raise.
    """
    if lam.weight != mu.weight:
        raise ValueError(
            f"dominance is only defined between equal weights: |{lam}|={lam.weight} "
            f"vs |{mu}|={mu.weight}"
        )
    if lam.parts == mu.parts:
        return DominanceRelation.EQUAL
    lam_ge = mu_ge = True
    sa = sb = 0
    for i in range(1, max(len(lam), len(mu)) + 1):
        sa += lam.part(i)
        sb += mu.part(i)
        if sa < sb:
            lam_ge = False
        elif sb < sa:
            mu_ge = False
    if lam_ge:
        return DominanceRelation.STRICTLY_ABOVE
    if mu_ge:
        return DominanceRelation.STRICTLY_BELOW
    return DominanceRelation.INCOMPARABLE


def dominates(lam: Partition, mu: Partition) -> bool:
    """Whether ``lam`` weakly dominates ``mu``."""
    return dominance_compare(lam, mu) in (
        DominanceRelation.EQUAL,
        DominanceRelation.STRICTLY_ABOVE,
    )


def _extremal_parts(parts: Iterable[tuple[int, ...]], minimal: bool) -> list[tuple[int, ...]]:
    """The dominance-minimal (or maximal) members of a set of part tuples.

    The tuples must be partitions of one weight.  Lexicographic order
    extends dominance, so after one sort every member that would beat a
    candidate comes before it, and then some extremal member already kept
    beats it too: each member is compared with the kept ones only.  With
    prefix sums padded to a common length (a partition's sums reach its
    weight and stay there), weak dominance is ``>=`` entry by entry, and a
    strictly dominating member has the larger sum of sums, so only kept
    members on the right side of that total are compared.
    """
    items = sorted(set(parts), reverse=not minimal)
    width = max(map(len, items), default=0)
    kept: list[tuple[int, ...]] = []
    totals: list[int] = []  # ascending
    kept_sums: list[tuple[int, ...]] = []  # in the order of totals
    for p in items:
        sums = tuple(accumulate(p + (0,) * (width - len(p))))
        total = sum(sums)
        # any(all(map(ge, sums, q)) for q in the kept sums of smaller total),
        # or the mirror image, without a Python frame per pair.
        if minimal:
            below = kept_sums[: bisect_left(totals, total)]
            pairs = map(map, repeat(ge), repeat(sums), below)
        else:
            above = kept_sums[bisect_right(totals, total) :]
            pairs = map(map, repeat(ge), above, repeat(sums))
        if not any(map(all, pairs)):
            kept.append(p)
            at = bisect_right(totals, total)
            totals.insert(at, total)
            kept_sums.insert(at, sums)
    return kept


def _dominance_extremal(partitions: Iterable[Partition], minimal: bool) -> set[Partition]:
    """The dominance-minimal (or maximal) members of a set of partitions."""
    by_parts = {p.parts: p for p in partitions}
    weights = {p.weight for p in by_parts.values()}
    if len(weights) > 1:
        raise ValueError(f"mixed weights in partition set: {sorted(weights)}")
    return {by_parts[parts] for parts in _extremal_parts(by_parts, minimal)}


def dominance_minimal_elements(partitions: Iterable[Partition]) -> set[Partition]:
    """The partitions in the set that strictly dominate no other member."""
    return _dominance_extremal(partitions, minimal=True)


def dominance_maximal_elements(partitions: Iterable[Partition]) -> set[Partition]:
    """The partitions in the set strictly dominated by no other member."""
    return _dominance_extremal(partitions, minimal=False)


def _add_vectors(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Entrywise sum of two count vectors, the shorter one padded with zeros."""
    if len(a) < len(b):
        a, b = b, a
    return tuple(map(add, a, b)) + a[len(b) :]


def conjugate_join(partitions: Sequence[Partition]) -> Partition:
    """Combine partitions by adding column lengths.

    Returns the partition whose conjugate is the componentwise sum of the
    conjugates of the inputs.  Occurrence counts of combined family tuples
    add, so their types combine exactly this way.
    """
    columns = reduce(_add_vectors, (p.conjugate().parts for p in partitions), ())
    return Partition(columns).conjugate()


def diagonal_hook_lengths(lam: Partition) -> tuple[int, ...]:
    """Hook lengths of the boxes on the leading diagonal."""
    conj = lam.conjugate()
    hooks = []
    i = 1
    while lam.part(i) >= i:
        hooks.append(lam.part(i) + conj.part(i) - 2 * i + 1)
        i += 1
    return tuple(hooks)


def dimension(lam: Partition) -> int:
    """Number of standard Young tableaux of this shape (hook-length formula)."""
    conj = lam.conjugate()
    prod = 1
    for i, row in enumerate(lam.parts, start=1):
        for j in range(1, row + 1):
            prod *= row - j + conj.part(j) - i + 1
    quot, rem = divmod(factorial(lam.weight), prod)
    if rem:
        raise InternalConsistencyError(f"hook product does not divide {lam.weight}!")
    return quot


def double_from_distinct(alpha: Partition) -> Partition:
    """Double a strictly decreasing partition into a partition of twice its weight.

    The result is the unique partition whose leading diagonal hook lengths are
    ``2*alpha_i`` and whose i-th row is ``alpha_i + i`` for each part of
    ``alpha``.  The output is re-verified against the hook-length description
    because the two characterizations are redundant.
    """
    parts = alpha.parts
    if any(parts[i] <= parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError(f"parts must be strictly decreasing: {alpha}")
    if not parts:
        return Partition()
    r = len(parts)
    rows = [parts[i] + i + 1 for i in range(r)]
    # Column j (1-based, j <= r) has length alpha_j + j - 1; rows below the
    # diagonal read off those column lengths.
    cols = [parts[i] + i for i in range(r)]
    for i in range(r + 1, parts[0] + 1):
        rows.append(sum(1 for c in cols if c >= i))
    lam = Partition(rows)
    hooks = diagonal_hook_lengths(lam)
    ok = (
        lam.weight == 2 * alpha.weight
        and len(hooks) == r
        and all(hooks[i] == 2 * parts[i] for i in range(r))
        and all(lam.part(i + 1) == parts[i] + i + 1 for i in range(r))
    )
    if not ok:
        raise InternalConsistencyError(
            f"doubled partition {lam} fails the hook characterization of {alpha}"
        )
    return lam


def partitions_of(n: int) -> Iterator[Partition]:
    """All partitions of ``n``, in descending lexicographic order."""
    return _partitions_with_gap(n, 0)


def distinct_part_partitions_of(n: int) -> Iterator[Partition]:
    """Partitions of ``n`` with strictly decreasing parts, descending lex order."""
    return _partitions_with_gap(n, 1)


def _partitions_with_gap(n: int, gap: int) -> Iterator[Partition]:
    """Partitions of ``n`` whose consecutive parts differ by at least ``gap``.

    Descending lexicographic order.  A generator, so a negative ``n`` is
    refused on the first ``next``.
    """
    if n < 0:
        raise ValueError("cannot partition a negative integer")
    buf: list[int] = []

    def rec(remaining: int, top: int) -> Iterator[Partition]:
        if remaining == 0:
            yield Partition(buf)
            return
        for p in range(min(remaining, top), 0, -1):
            buf.append(p)
            yield from rec(remaining - p, p - gap)
            buf.pop()

    yield from rec(n, n)
