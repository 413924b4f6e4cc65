"""Exact integer-partition arithmetic.

Partitions are weakly decreasing tuples of positive integers.  This module
provides conjugation, the dominance order, kappa (nu or nu' by the parity of
m), enumeration in descending lexicographic order, diagonal-hook diagnostics
and the two constructions the constituent formulas need: the conjugate-join
(column lengths add) and the doubled partition with prescribed diagonal hook
lengths.
"""

from __future__ import annotations

from bisect import bisect_right
from enum import Enum
from functools import reduce, total_ordering
from itertools import accumulate
from math import factorial
from operator import add, ge, mul
from operator import index as _as_int
from typing import Callable, Iterable, Iterator, Sequence

from .errors import InternalConsistencyError

__all__ = [
    "Partition",
    "DominanceRelation",
    "parse_partition",
    "dominance_compare",
    "dominates",
    "kappa_partition",
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
        ps = tuple(map(_as_int, parts))
        if ps and (ps[-1] < 1 or not all(map(ge, ps, ps[1:]))):
            # The first offending part names the fault.
            for i, p in enumerate(ps):
                if p < 1:
                    raise ValueError(f"partition parts must be positive: {ps}")
                if i and ps[i - 1] < p:
                    raise ValueError(f"partition parts must be weakly decreasing: {ps}")
        self.parts = ps
        self.weight = sum(ps)
        self._conj: Partition | None = None

    @classmethod
    def _trusted(cls, parts: tuple[int, ...], weight: int) -> "Partition":
        """A partition of parts already positive and weakly decreasing, summing to weight."""
        lam = object.__new__(cls)
        lam.parts = parts
        lam.weight = weight
        lam._conj = None
        return lam

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
            conj = Partition._trusted(_conjugate_parts(self.parts), self.weight)
            conj._conj = self
            self._conj = conj
        return self._conj


def _conjugate_parts(ps: tuple[int, ...]) -> tuple[int, ...]:
    """The column lengths of a weakly decreasing tuple of positive parts."""
    # Columns done+1, ..., ps[length-1] are reached by exactly the first
    # `length` parts.  A list, not a lazy repeat, so a part too large to hold
    # fails at once.
    cols: list[int] = []
    done = 0
    for length in range(len(ps), 0, -1):
        cols += [length] * (ps[length - 1] - done)
        done = ps[length - 1]
    return tuple(cols)


def parse_partition(text: str) -> Partition:
    """Parse a comma-separated partition; the empty string is the empty partition."""
    text = text.strip()
    if not text:
        return Partition()
    parts = []
    for tok in text.split(","):
        try:
            parts.append(int(tok))
        except ValueError:
            raise ValueError(
                f"partition {text!r} has a part that is not an integer: {tok!r}"
            ) from None
    return Partition(parts)


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


def kappa_partition(m: int, nu: Partition) -> Partition:
    """nu when m is even, its conjugate when m is odd: the one place the
    parity of m is read."""
    return nu if m % 2 == 0 else nu.conjugate()


def _packer(width: int, weight: int) -> tuple[Callable[[tuple[int, ...]], int], int, int]:
    """Pack vectors of at most ``width`` entries and weight at most ``weight``.

    Returns ``(pack, guards, total_mask)``.  ``pack(v)`` is one int holding
    the ``width`` prefix sums of ``v`` (zero padded) in fields of
    ``weight.bit_length() + 1`` bits, the first sum most significant, above
    a lowest field holding their sum.  Every value is below its field's top
    bit, the guard bit (``guards`` holds them all), so packing is linear: a
    sum of packed vectors whose weights add to at most ``weight`` is the
    packed sum of the vectors.  Int order is lexicographic order on equally
    long prefix sums, which for vectors of one weight is lexicographic order
    on the vectors.
    """
    bits = weight.bit_length() + 1
    low = (width * weight).bit_length() + 1
    shifts = range(low + bits * (width - 1), low - 1, -bits)
    guards = sum(1 << (shift + bits - 1) for shift in shifts) | 1 << (low - 1)
    # Entry j adds to prefix sums j, ..., width - 1, and once to the sum of
    # each, so it is worth units[j] = sum over those fields of (1 << shift) + 1.
    units = list(accumulate((1 << shift) + 1 for shift in reversed(shifts)))[::-1]

    def pack(v: tuple[int, ...]) -> int:
        return sum(map(mul, v, units))

    return pack, guards, (1 << low) - 1


def _packed_maxima(keys: Iterable[int], guards: int, total_mask: int) -> list[int]:
    """The members of a set of packed vectors (see :func:`_packer`) that no
    other member weakly exceeds in every field, in descending order.

    For prefix sums this is dominance.  Int order extends it, so after one
    descending sort every member that would exceed a candidate comes before
    it, and then some member already kept exceeds it too: each member is
    compared with the kept ones only, and, as a member that exceeds another
    has the larger sum of prefix sums (the lowest field), only with kept
    members of a larger sum.  Neighbours in int order are alike, so the
    kept member that exceeded the last candidate beaten is tried first.
    """
    kept: list[int] = []
    totals: list[int] = []  # ascending
    raised: list[int] = []  # kept members with every guard bit set, in the order of totals
    last = None  # the member of raised that exceeded the last candidate beaten
    for p in sorted(keys, reverse=True):
        # q >= p in every field exactly when (q | guards) - p keeps every
        # guard bit; no field borrows, each value being below its guard bit.
        if last is not None and (last - p) & guards == guards:
            continue
        total = p & total_mask
        at = bisect_right(totals, total)
        for q in raised[at:]:
            if (q - p) & guards == guards:
                last = q
                break
        else:  # nothing kept exceeds p
            kept.append(p)
            totals.insert(at, total)
            raised.insert(at, p | guards)
    return kept


def _dominance_extremal(partitions: Iterable[Partition], minimal: bool) -> set[Partition]:
    """The dominance-minimal (or maximal) members of a set of partitions.

    Weak dominance is ``>=`` between prefix sums padded to a common length
    (a partition's sums reach its weight and stay there), so the maxima are
    those of the packed prefix sums, and the minima those of their
    complements, each field ``weight - sum``.
    """
    by_parts = {p.parts: p for p in partitions}
    weights = {p.weight for p in by_parts.values()}
    if len(weights) > 1:
        raise ValueError(f"mixed weights in partition set: {sorted(weights)}")
    weight = next(iter(weights), 0)
    pack, guards, total_mask = _packer(max(map(len, by_parts), default=0), weight)
    by_key = {pack(parts): p for parts, p in by_parts.items()}
    if minimal:
        full = pack((weight,))  # every prefix sum at the weight
        by_key = {full - key: p for key, p in by_key.items()}
    return set(map(by_key.__getitem__, _packed_maxima(by_key, guards, total_mask)))


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
