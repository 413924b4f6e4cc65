"""Exact combinatorics of twisted Foulkes characters.

Computes the dominance-minimal and -maximal irreducible constituents of the
characters phi^(m^n)_nu and psi^(m^n)_nu from set-family and multiset-family
rules, and cross-checks every result with an independent plethysm oracle
built on symmetric-group character values.
"""

from .constituents import (
    CharacterFlavor,
    CharacterSpec,
    ConstituentReport,
    Extremum,
    certificate_from_closed_tuple,
    kappa_partition,
    maximal_constituents_phi,
    maximal_constituents_psi,
    minimal_constituents_phi,
    minimal_constituents_psi,
    sign_twist_labels,
    verify,
)
from .errors import GuardExceededError, InternalConsistencyError
from .families import (
    BlockKind,
    Family,
    FamilyTuple,
    closure,
    colex_initial_segment,
    down_set_family,
    enumerate_closed_families,
    enumerate_minimal_tuple_types,
    family_type,
    is_closed,
    is_minimal_tuple,
    majorizes,
    tuple_closure,
    tuple_from_json,
    tuple_is_closed,
    tuple_to_json,
    tuple_type,
)
from .oracle import (
    CharacterTable,
    PlethysmFlavor,
    SchurExpansion,
    character_value,
    monomial_expansion,
    multiplicity,
    omega_check,
    plethysm_expansion,
    z_order,
)
from .partitions import (
    DominanceRelation,
    Partition,
    conjugate_join,
    dimension,
    distinct_part_partitions_of,
    dominance_compare,
    dominance_maximal_elements,
    dominance_minimal_elements,
    dominates,
    double_from_distinct,
    parse_partition,
    partitions_of,
)

__version__ = "0.1.0"

# The corollaries in ``special`` serve two CLI commands only, so the module is
# imported on first use of it or of one of its names (PEP 562).
_SPECIAL = frozenset(
    {
        "AgaokaData",
        "RectangularCertificate",
        "agaoka_lex_least",
        "lex_greatest_constituent",
        "lex_least_constituent",
        "rectangular_certificate",
        "theta_decomposition",
        "unique_maximal_classification",
        "unique_minimal_classification",
    }
)
__all__ = [n for n in globals() if not n.startswith("_")] + ["special", *sorted(_SPECIAL)]


def __getattr__(name: str):
    if name != "special" and name not in _SPECIAL:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    special = import_module(".special", __name__)
    return special if name == "special" else getattr(special, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
