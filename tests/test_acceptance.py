"""Acceptance suite.

Each test enforces one acceptance criterion at its stated tolerance (all are
exact) and runtime budget, and prints one ``criterion N: PASS/FAIL`` line.
Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they pass.
"""

import random
import time
import warnings
from collections import Counter
from math import factorial

from foulkes import clear_caches, oracle
from foulkes.constituents import (
    maximal_constituents_phi,
    minimal_constituents_phi,
    minimal_constituents_psi,
)
from foulkes.families import (
    BlockKind,
    Family,
    FamilyTuple,
    _colex_bounded,
    _ground_top,
    closure,
    colex_initial_segment,
    down_set_family,
    family_type,
    is_closed,
    is_minimal_tuple,
    tuple_is_closed,
    tuple_type,
)
from foulkes.oracle import (
    CharacterTable,
    PlethysmFlavor,
    character_value,
    class_size,
    multiplicity,
    omega_check,
    plethysm_expansion,
)
from foulkes.partitions import (
    DominanceRelation,
    Partition,
    dimension,
    dominance_compare,
    dominance_maximal_elements,
    dominance_minimal_elements,
    dominates,
    parse_partition,
    partitions_of,
)
from foulkes.special import agaoka_lex_least, theta_decomposition

P = parse_partition


def _bounded_blocks(m, n, kind):
    return tuple(_colex_bounded(m, _ground_top(m, n, kind), kind))


def _criterion(number: int, description: str, budget_s: float, body) -> None:
    start = time.monotonic()
    try:
        body()
    except Exception:
        print(f"criterion {number}: FAIL - {description}")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < budget_s, (
        f"criterion {number} blew its runtime budget: {elapsed:.1f}s >= {budget_s}s"
    )
    print(f"criterion {number}: PASS - {description} ({elapsed:.2f}s)")


def test_criterion_1_golden_example():
    def body():
        nu = P("2,1,1")
        min_rep = minimal_constituents_phi(2, nu)
        max_rep = maximal_constituents_phi(2, nu)
        assert set(min_rep.labels) == {P("4,2,1,1"), P("3,3,2")}
        assert set(max_rep.labels) == {P("6,1,1"), P("5,3")}

        # witnesses match the displayed tuples up to family reordering
        def families_multiset(t):
            return Counter(t.families)

        expected_min = {
            P("4,2,1,1"): FamilyTuple(
                [Family(2, "set", [(1, 2), (1, 3), (1, 4)]), Family(2, "set", [(1, 2)])]
            ),
            P("3,3,2"): FamilyTuple(
                [Family(2, "set", [(1, 2), (1, 3), (2, 3)]), Family(2, "set", [(1, 2)])]
            ),
        }
        expected_max = {
            P("6,1,1"): FamilyTuple(
                [
                    Family(2, "multiset", [(1, 1), (1, 2), (1, 3)]),
                    Family(2, "multiset", [(1, 1)]),
                ]
            ),
            P("5,3"): FamilyTuple(
                [
                    Family(2, "multiset", [(1, 1), (1, 2), (2, 2)]),
                    Family(2, "multiset", [(1, 1)]),
                ]
            ),
        }
        for lab, expected in expected_min.items():
            assert families_multiset(min_rep.witnesses[lab]) == families_multiset(expected)
        for lab, expected in expected_max.items():
            assert families_multiset(max_rep.witnesses[lab]) == families_multiset(expected)

        # independent oracle path
        expansion = plethysm_expansion(nu, 2, PlethysmFlavor.ROW)
        assert dominance_minimal_elements(expansion.support()) == set(min_rep.labels)
        assert dominance_maximal_elements(expansion.support()) == set(max_rep.labels)

    _criterion(1, "golden example, theorem and oracle paths with witnesses", 5.0, body)


def test_criterion_2_theorem_oracle_sweep():
    def body():
        for m in (2, 3):
            for n in range(1, 12 // m + 1):
                for nu in partitions_of(n):
                    row = plethysm_expansion(nu, m, PlethysmFlavor.ROW)
                    col = plethysm_expansion(nu, m, PlethysmFlavor.COLUMN)
                    assert set(
                        minimal_constituents_phi(m, nu).labels
                    ) == dominance_minimal_elements(row.support()), (m, nu)
                    assert set(
                        maximal_constituents_phi(m, nu).labels
                    ) == dominance_maximal_elements(row.support()), (m, nu)
                    assert set(
                        minimal_constituents_psi(m, nu).labels
                    ) == dominance_minimal_elements(col.support()), (m, nu)

    _criterion(2, "theorem-oracle equivalence for m in {2,3}, mn <= 12", 300.0, body)


def test_criterion_3_theta_complete_decomposition():
    def body():
        for n in range(1, 7):
            theta = theta_decomposition(n)
            oracle = plethysm_expansion(Partition([1] * n), 2, PlethysmFlavor.ROW)
            assert theta == oracle, n
            assert all(mult == 1 for _, mult in theta.items())

    _criterion(3, "hook-doubling decomposition equals the oracle for n <= 6", 60.0, body)


def test_criterion_4_agaoka_cross_path():
    def body():
        for m in range(1, 6):
            for n in range(1, 31):
                for kind in BlockKind:
                    formula = agaoka_lex_least(m, n, kind).assembled
                    segment = family_type(colex_initial_segment(m, n, kind))
                    assert formula == segment, (m, n, kind)

    _criterion(4, "cascade formula equals colex-segment type, m <= 5, n <= 30", 30.0, body)


def test_criterion_5_omega_involution():
    def body():
        for m in range(1, 11):
            for n in range(1, 10 // m + 1):
                for nu in partitions_of(n):
                    assert omega_check(nu, m), (m, nu)

    _criterion(5, "omega-involution identity for all mn <= 10", 120.0, body)


def test_criterion_6_degree_24_certificate(tmp_path):
    lam = Partition([4] * 6)

    def coefficient(table):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return multiplicity(P("4,4"), 3, lam, PlethysmFlavor.ROW, table=table)

    def by_characters():
        # The same coefficient as sum w_tau chi^lam(tau) over the power-sum
        # terms, divided by the wreath order 8! 3!^8: the degree-24 values
        # that the cache file holds.
        terms = oracle._power_sum_coefficients((4, 4), 3, PlethysmFlavor.ROW)
        total = sum(w * character_value(lam, Partition(tau)) for tau, w in terms)
        value, rem = divmod(total, factorial(8) * factorial(3) ** 8)
        assert rem == 0
        return value

    def body():
        table = CharacterTable.load_or_create(24, tmp_path)
        value = coefficient(table)
        assert value >= 1
        assert by_characters() == value
        table.save_to(tmp_path)
        saved = table.values
        # The memo is the only store, so only cleared memos show what the file holds.
        clear_caches()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reloaded = CharacterTable.load_or_create(24, tmp_path)
        assert reloaded.values == saved and saved
        assert coefficient(reloaded) == value
        assert by_characters() == value
        assert reloaded.values == saved

    _criterion(6, "degree-24 single coefficient >= 1 with persistent cache", 600.0, body)


def test_criterion_7_closed_but_not_minimal():
    def body():
        p1 = down_set_family(2, BlockKind.SET, [(2, 4)])
        p2 = down_set_family(2, BlockKind.SET, [(1, 5)])
        t = FamilyTuple([p1, p2])
        assert tuple_is_closed(t)
        ty = tuple_type(t)
        assert ty == P("5,4,4,2,1,1,1")
        assert not is_minimal_tuple(t)
        # replacement tuple: swap the top generators downward
        r1 = Family(2, BlockKind.SET, [(1, 2), (1, 3), (1, 4), (2, 3), (1, 5)])
        r2 = Family(2, BlockKind.SET, [(1, 2), (1, 3), (1, 4), (2, 3)])
        r_type = tuple_type(FamilyTuple([r1, r2]))
        assert r_type == P("5,4,3,3,1,1,1")
        assert dominance_compare(r_type, ty) is DominanceRelation.STRICTLY_BELOW

    _criterion(7, "closed-but-not-minimal tuple with dominating replacement", 5.0, body)


def test_criterion_8_property_suites():
    def body():
        # (a) closure weakly decreases the type on 1000 random families
        rng = random.Random(197)
        for _ in range(1000):
            kind = rng.choice((BlockKind.SET, BlockKind.MULTISET))
            m = rng.randint(1, 3)
            n = rng.randint(1, 6)
            pool = _bounded_blocks(m, n + 2, kind)
            fam = Family(m, kind, rng.sample(pool, min(n, len(pool))))
            closed = closure(fam)
            assert is_closed(closed) and closed.size == fam.size
            before, after = family_type(fam), family_type(closed)
            assert after is not None
            if before is not None:
                assert dominates(before, after)

        # (b) character-table column orthogonality, exact, n <= 10
        for n in range(1, 11):
            table = CharacterTable(n)
            table.verify_orthogonality()

        # (c) dimension identity on expansions of both flavors
        for m, nu_text in ((2, "2,1,1"), (2, "3,2"), (3, "2,1"), (4, "2"), (2, "1,1,1,1,1")):
            nu = P(nu_text)
            n = nu.weight
            index = factorial(m * n) // (factorial(m) ** n * factorial(n))
            want = index * dimension(nu)
            for flavor in PlethysmFlavor:
                expansion = plethysm_expansion(nu, m, flavor)
                got = sum(mult * dimension(lam) for lam, mult in expansion.items())
                assert got == want, (m, nu, flavor)

        # (d) every reported extremal label set is a dominance antichain
        for m in (2, 3):
            for n in range(1, 12 // m + 1):
                for nu in partitions_of(n):
                    for engine in (
                        minimal_constituents_phi,
                        maximal_constituents_phi,
                        minimal_constituents_psi,
                    ):
                        labels = engine(m, nu).labels
                        for i, a in enumerate(labels):
                            for b in labels[i + 1 :]:
                                assert (
                                    dominance_compare(a, b)
                                    is DominanceRelation.INCOMPARABLE
                                ), (m, nu, a, b)

        # sanity on (b): class sizes really partition the group
        for n in range(1, 11):
            assert sum(class_size(rho) for rho in partitions_of(n)) == factorial(n)

    _criterion(8, "closure/orthogonality/dimension/antichain property suites", 300.0, body)
