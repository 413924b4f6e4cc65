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
from . import families, oracle


def clear_caches() -> None:
    """Empty every memo the package keeps; the only code that names them all.

    A process memoizes, in four memos, ribbon-strip values per (cycle-type
    suffix, m, flavor), whose m = 1 nodes hold the character values, the
    class weights of each s_nu, the closed families of each (m, n) asked
    for, and prefix folds, and frees none of them on its own.  Answers never
    depend on what the memos hold.
    """
    oracle._RIBBON_CACHE.clear()
    oracle._power_sum_coefficients.cache_clear()
    families._LEVELS.clear()
    families._PREFIX_FOLDS.clear()


__version__ = "0.1.0"

# The corollaries in ``special`` serve two CLI commands, so the module is
# imported on first use of it or of one of its names (PEP 562).
_LAZY = {
    "special": (
        "AgaokaData",
        "RectangularCertificate",
        "agaoka_lex_least",
        "lex_greatest_constituent",
        "lex_least_constituent",
        "rectangular_certificate",
        "theta_decomposition",
        "unique_maximal_classification",
        "unique_minimal_classification",
    ),
}
_LAZY_NAMES = {name: module for module, names in _LAZY.items() for name in names}
__all__ = [n for n in globals() if not n.startswith("_")] + [*_LAZY, *sorted(_LAZY_NAMES)]


def __getattr__(name: str):
    module = name if name in _LAZY else _LAZY_NAMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    loaded = import_module(f".{module}", __name__)
    return loaded if module == name else getattr(loaded, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
