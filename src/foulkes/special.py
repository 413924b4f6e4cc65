"""Closed-form corollaries of the constituent rules.

Covers the lexicographically least constituent (via the cascade formula of
Agaoka's conjectures and the colex initial segment), the lexicographically
greatest constituent with its witness tuple, the classification of characters
with a unique minimal or maximal constituent, rectangular certificates, and
the complete decomposition of s_(1^n) o s_(2) into hook-doubled labels.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

from .constituents import (
    CharacterFlavor,
    CharacterSpec,
    Extremum,
    _RULES,
    _shapes,
    certificate_from_closed_tuple,
)
from .errors import InternalConsistencyError
from .families import (
    BlockKind,
    Family,
    FamilyTuple,
    _colex_bounded,
    tuple_type,
)
from .oracle import SchurExpansion
from .partitions import (
    Partition,
    conjugate_join,
    distinct_part_partitions_of,
    double_from_distinct,
)

__all__ = [
    "AgaokaData",
    "RectangularCertificate",
    "agaoka_lex_least",
    "lex_least_constituent",
    "lex_greatest_constituent",
    "unique_minimal_classification",
    "unique_maximal_classification",
    "rectangular_certificate",
    "theta_decomposition",
]


def _multichoose(q: int, t: int) -> int:
    """Number of t-multisets with elements from {1,...,q}."""
    return comb(q + t - 1, t)


class AgaokaData(NamedTuple):
    """Cascade data behind the lexicographically least single-family type.

    ``indices`` are the cascade values p_1 > ... > p_r (sets) or
    q_1 >= ... >= q_s (multisets) with n expressed as the sum of
    C(p_i, m+1-i) resp. multichoose(q_i, m+1-i); ``residuals`` are the
    leftover counts after each step and ``widths`` the per-step column
    contributions C(p_i - 1, m - i) resp. multichoose(q_i + 1, m - i).
    """

    kind: BlockKind
    m: int
    n: int
    indices: tuple[int, ...]
    residuals: tuple[int, ...]
    widths: tuple[int, ...]
    assembled: Partition


def agaoka_lex_least(m: int, n: int, kind: BlockKind | str) -> AgaokaData:
    """Closed formula for the type of the colex initial segment of shape (m^n).

    Runs the greedy cascade extraction and assembles
    ((p_1+1)^{a_1}, p_1^{b_1-a_1}, ..., p_r^{b_r}): the exponents of equal
    part sizes are summed (which is how a negative b_i - a_i is absorbed when
    p_i = p_{i+1} + 1, and how equal q_i of the multiset case combine), and
    the sizes are sorted.  Equality with the colex-segment type is the binding
    contract, tested code path vs code path.
    """
    kind = BlockKind(kind)
    if m < 1 or n < 1:
        raise ValueError("need m >= 1 and n >= 1")
    binom = comb if kind is BlockKind.SET else _multichoose
    remaining = n
    indices: list[int] = []
    residuals: list[int] = []
    widths: list[int] = []
    i = 1
    while remaining > 0:
        t = m + 1 - i
        p = t if kind is BlockKind.SET else 1
        while binom(p + 1, t) <= remaining:
            p += 1
        remaining -= binom(p, t)
        indices.append(p)
        residuals.append(remaining)
        widths.append(comb(p - 1, m - i) if kind is BlockKind.SET else _multichoose(p + 1, m - i))
        i += 1

    totals: dict[int, int] = {}
    for p, a, b in zip(indices, residuals, widths):
        totals[p + 1] = totals.get(p + 1, 0) + a
        totals[p] = totals.get(p, 0) + b - a
    if any(e < 0 for e in totals.values()) or (
        kind is BlockKind.SET and any(p <= q for p, q in zip(indices, indices[1:]))
    ):
        raise InternalConsistencyError(f"bad cascade assembly for m={m}, n={n}: {totals}")
    assembled = Partition([v for v in sorted(totals, reverse=True) for _ in range(totals[v])])
    if assembled.weight != m * n:
        raise InternalConsistencyError(
            f"assembled type of shape ({m}^{n}) has weight {assembled.weight}"
        )
    return AgaokaData(kind, m, n, tuple(indices), tuple(residuals), tuple(widths), assembled)


def lex_least_constituent(m: int, nu: Partition, flavor: CharacterFlavor | str) -> Partition:
    """Lexicographically least label in the support of phi (or psi).

    The least type over tuples of prescribed component shapes is reached by
    taking every component to be a colex initial segment, and component types
    combine by the conjugate-join.
    """
    rule = _RULES[CharacterSpec(m, nu, flavor).flavor, Extremum.MINIMAL]
    shapes = _shapes(rule, m, nu)
    return conjugate_join([agaoka_lex_least(m, nj, rule.kind).assembled for nj in shapes])


def lex_greatest_constituent(
    m: int, nu: Partition, flavor: CharacterFlavor | str
) -> tuple[Partition, FamilyTuple]:
    """Lexicographically greatest label, with the witnessing closed tuple.

    For phi the label is ((m-1)n + nu_1, nu_2, ..., nu_k), witnessed by
    multiset families whose blocks are {1,...,1,j}; for psi it is
    (n^(m-1), nu_1, ..., nu_k), witnessed by set families with blocks
    {1,...,m-1, m-1+j}.  In both cases the conjugate of the witness type is
    the label.
    """
    flavor = CharacterSpec(m, nu, flavor).flavor
    n = nu.weight
    nu_conj = nu.conjugate().parts
    if flavor is CharacterFlavor.PHI:
        label = Partition([(m - 1) * n + nu.parts[0], *nu.parts[1:]])
        families = [
            Family(m, BlockKind.MULTISET, [(1,) * (m - 1) + (j,) for j in range(1, cnt + 1)])
            for cnt in nu_conj
        ]
    else:
        label = Partition([n] * (m - 1) + list(nu.parts))
        families = [
            Family(m, BlockKind.SET, [tuple(range(1, m)) + (m - 1 + j,) for j in range(1, cnt + 1)])
            for cnt in nu_conj
        ]
    witness = FamilyTuple(families)
    ty = tuple_type(witness)
    if ty is None or ty.conjugate() != label:
        raise InternalConsistencyError(
            f"lex-greatest witness type mismatch for m={m}, nu=({nu}), {flavor.value}"
        )
    return label, witness


def unique_minimal_classification(m: int, nu: Partition) -> Partition | None:
    """The unique minimal constituent label of phi^(m^n)_nu, when there is one.

    For m >= 2 uniqueness holds exactly when the relevant kappa has at most
    two columns: nu = (n) or (n-r, r) for even m, nu = (1^n) or
    (2^r, 1^(n-2r)) for odd m.  For m = 1 the character is irreducible.
    """
    CharacterSpec(m, nu)  # refuses m < 1 and an empty nu
    if m == 1:
        return nu
    n = nu.weight
    parts = nu.parts
    if m % 2 == 0:
        if len(parts) == 1:
            return Partition([m] * n)
        if len(parts) == 2:
            r = parts[1]
            return Partition([m + 1] * r + [m] * (n - 2 * r) + [m - 1] * r)
        return None
    if parts[0] == 1:
        return Partition([m] * n)
    if parts[0] == 2:
        r = sum(1 for p in parts if p == 2)
        return Partition([m + 1] * r + [m] * (n - 2 * r) + [m - 1] * r)
    return None


def unique_maximal_classification(m: int, nu: Partition) -> Partition | None:
    """The unique maximal constituent label of phi^(m^n)_nu, when there is one.

    Exists for m >= 2 exactly when nu has at most two rows: (mn) for
    nu = (n) and (mn - r, r) for nu = (n-r, r).
    """
    CharacterSpec(m, nu)  # refuses m < 1 and an empty nu
    if m == 1:
        return nu
    n = nu.weight
    if len(nu.parts) == 1:
        return Partition([m * n])
    if len(nu.parts) == 2:
        r = nu.parts[1]
        return Partition([m * n - r, r])
    return None


class RectangularCertificate(NamedTuple):
    """A twisted character guaranteed to contain a rectangular label."""

    kind: BlockKind
    nu: Partition
    rectangle: Partition
    witness: FamilyTuple


def rectangular_certificate(a: int, m: int, k: int, kind: BlockKind | str) -> RectangularCertificate:
    """Rectangle (a^b) resp. (b^a) certified inside a twisted character.

    Set case: k copies of the family of all m-subsets of {1,...,a} form a
    closed tuple of type (a^b) with b = k*C(a-1, m-1); nu has k columns of
    height C(a, m) (for even m) or k rows of width C(a, m) (odd m).  Multiset
    case: k copies of all m-multisets over {1,...,a} give type conjugate to
    (b^a) with b = k*multichoose(a+1, m-1), and nu has multichoose(a, m) rows
    of width k.  The returned label is re-derived through the closed-tuple
    certificate as a consistency check.
    """
    kind = BlockKind(kind)
    if not 1 <= m <= a:
        raise ValueError("need a >= m >= 1")
    if k < 1:
        raise ValueError("need k >= 1")
    if kind is BlockKind.SET:
        base = comb(a, m)
        nu = Partition([base] * k) if m % 2 == 1 else Partition([k] * base)
        b = k * comb(a - 1, m - 1)
        rectangle = Partition([a] * b)
    else:
        base = _multichoose(a, m)
        nu = Partition([k] * base)
        b = k * _multichoose(a + 1, m - 1)
        rectangle = Partition([b] * a)
    blocks = list(_colex_bounded(m, a, kind))
    witness = FamilyTuple([Family(m, kind, blocks)] * k)
    spec = CharacterSpec(m, nu, CharacterFlavor.PHI)
    derived = certificate_from_closed_tuple(spec, witness)
    if derived != rectangle:
        raise InternalConsistencyError(
            f"rectangular certificate mismatch: {derived} != {rectangle}"
        )
    return RectangularCertificate(kind, nu, rectangle, witness)


def theta_decomposition(n: int) -> SchurExpansion:
    """Complete decomposition of s_(1^n) o s_(2): one hook-doubled label 2[alpha]
    per partition alpha of n with distinct parts, each with multiplicity 1.

    Every constituent of this character is simultaneously minimal and
    maximal, so the multiplicity-one list is the whole expansion.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    return SchurExpansion(
        2 * n, {double_from_distinct(alpha): 1 for alpha in distinct_part_partitions_of(n)}
    )
