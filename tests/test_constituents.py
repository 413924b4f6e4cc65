import itertools
from pathlib import Path

import pytest

from foulkes.constituents import (
    _RULES,
    CharacterFlavor,
    CharacterSpec,
    certificate_from_closed_tuple,
    kappa_partition,
    maximal_constituents_phi,
    maximal_constituents_psi,
    minimal_constituents_phi,
    minimal_constituents_psi,
    sign_twist_labels,
    verify,
)
from foulkes.errors import GuardExceededError
from foulkes.families import Family, FamilyTuple, down_set_family, tuple_type
from foulkes.oracle import multiplicity, plethysm_expansion
from foulkes.partitions import (
    DominanceRelation,
    Partition,
    dominance_compare,
    dominance_maximal_elements,
    dominance_minimal_elements,
    parse_partition,
    partitions_of,
)

P = parse_partition


class TestSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            CharacterSpec(0, P("2,1"))
        with pytest.raises(ValueError):
            CharacterSpec(2, Partition())
        assert CharacterSpec(2, P("2,1,1")).degree == 8

    def test_kappa(self):
        assert kappa_partition(2, P("2,1,1")) == P("2,1,1")
        assert kappa_partition(3, P("2,1,1")) == P("3,1")


class TestMinimalPhi:
    def test_golden_example(self):
        rep = minimal_constituents_phi(2, P("2,1,1"))
        assert rep.labels == (P("4,2,1,1"), P("3,3,2"))
        assert rep.witnesses[P("4,2,1,1")] == FamilyTuple(
            [Family(2, "set", [(1, 2), (1, 3), (1, 4)]), Family(2, "set", [(1, 2)])]
        )

    def test_m_one_is_irreducible(self):
        for nu in partitions_of(4):
            assert minimal_constituents_phi(1, nu).labels == (nu,)

    def test_single_row_even_m(self):
        for n in (1, 2, 3, 4):
            rep = minimal_constituents_phi(2, Partition([n]))
            assert rep.labels == (Partition([2] * n),)

    def test_label_count_at_former_cliff(self):
        assert len(minimal_constituents_phi(3, Partition((10, 10, 10))).labels) == 209


class TestMaximalPhi:
    def test_golden_example(self):
        rep = maximal_constituents_phi(2, P("2,1,1"))
        assert rep.labels == (P("6,1,1"), P("5,3"))
        # witness type conjugates to the label
        for lab in rep.labels:
            assert tuple_type(rep.witnesses[lab]).conjugate() == lab

    def test_single_row(self):
        for m, n in ((2, 3), (3, 2), (4, 2)):
            rep = maximal_constituents_phi(m, Partition([n]))
            assert rep.labels == (Partition([m * n]),)

    def test_two_rows(self):
        for m, n, r in ((2, 4, 1), (2, 4, 2), (3, 3, 1)):
            rep = maximal_constituents_phi(m, Partition([n - r, r]))
            assert rep.labels == (Partition([m * n - r, r]),)


class TestMinimalPsi:
    def test_one_row_even_m(self):
        # kappa=(2) means two single-block components {1,1}: counts (4), label (1^4)
        rep = minimal_constituents_psi(2, P("2"))
        assert rep.labels == (P("1,1,1,1"),)

    def test_one_column_even_m(self):
        rep = minimal_constituents_psi(2, P("1,1"))
        assert rep.labels == (P("2,1,1"),)

    def test_m_one_is_irreducible(self):
        for nu in partitions_of(4):
            assert minimal_constituents_psi(1, nu).labels == (nu,)
            assert maximal_constituents_psi(1, nu).labels == (nu,)

    def test_max_psi_witness_relation(self):
        for m, nu in ((2, P("2,1")), (3, P("2,1")), (2, P("2,1,1"))):
            rep = maximal_constituents_psi(m, nu)
            for lab in rep.labels:
                assert tuple_type(rep.witnesses[lab]).conjugate() == lab


class TestSignTwistConsistency:
    def test_labels(self):
        assert sign_twist_labels([P("6,1,1"), P("5,3")]) == {
            P("3,1,1,1,1,1"),
            P("2,2,2,1,1"),
        }
        assert sign_twist_labels([]) == set()
        assert sign_twist_labels([P("6")]) == {P("1,1,1,1,1,1")}

    def test_max_phi_equals_twisted_min_psi(self):
        # exact for every m <= 3, nu with mn <= 12
        for m in (1, 2, 3):
            for n in range(1, 12 // m + 1):
                for nu in partitions_of(n):
                    partner = nu if m % 2 == 0 else nu.conjugate()
                    twisted = sign_twist_labels(
                        minimal_constituents_psi(m, partner).labels
                    )
                    assert set(maximal_constituents_phi(m, nu).labels) == twisted


class TestOracleAgreement:
    def test_sweep_small(self):
        for m in (2, 3):
            for n in range(1, 10 // m + 1):
                for nu in partitions_of(n):
                    row = plethysm_expansion(nu, m)
                    col = plethysm_expansion(nu, m, "column")
                    assert set(
                        minimal_constituents_phi(m, nu).labels
                    ) == dominance_minimal_elements(row.support())
                    assert set(
                        maximal_constituents_phi(m, nu).labels
                    ) == dominance_maximal_elements(row.support())
                    assert set(
                        minimal_constituents_psi(m, nu).labels
                    ) == dominance_minimal_elements(col.support())
                    assert set(
                        maximal_constituents_psi(m, nu).labels
                    ) == dominance_maximal_elements(col.support())


class TestVerify:
    def test_names_in_order_and_agreement(self):
        checks = verify(2, P("2,1,1"))
        assert [name for name, _, _ in checks] == ["min-phi", "max-phi", "min-psi"]
        assert all(rule == oracle for _, rule, oracle in checks)

    @pytest.mark.parametrize("m, nu", [(2, "3,1"), (3, "2,1")])
    def test_sets_are_the_reports_and_the_filtered_supports(self, m, nu):
        nu = P(nu)
        row = plethysm_expansion(nu, m).support()
        col = plethysm_expansion(nu, m, "column").support()
        want = {
            "min-phi": (minimal_constituents_phi(m, nu), dominance_minimal_elements(row)),
            "max-phi": (maximal_constituents_phi(m, nu), dominance_maximal_elements(row)),
            "min-psi": (minimal_constituents_psi(m, nu), dominance_minimal_elements(col)),
        }
        checks = verify(m, nu)
        assert len(checks) == len(want)
        for name, rule, oracle in checks:
            report, filtered = want[name]
            assert rule == set(report.labels)
            assert oracle == filtered

    def test_degree_above_the_guard_is_refused(self):
        with pytest.raises(GuardExceededError):
            verify(2, P("3,2"), guard=9)


class TestAntichain:
    def test_all_reports_are_antichains(self):
        engines = (
            minimal_constituents_phi,
            maximal_constituents_phi,
            minimal_constituents_psi,
            maximal_constituents_psi,
        )
        for engine in engines:
            for m in (2, 3):
                for nu in partitions_of(3):
                    labels = engine(m, nu).labels
                    for a, b in itertools.combinations(labels, 2):
                        assert (
                            dominance_compare(a, b) is DominanceRelation.INCOMPARABLE
                        )


class TestCertificates:
    def test_big_rectangular_example(self):
        fam = Family(3, "set", [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)])
        t = FamilyTuple([fam, fam])
        spec = CharacterSpec(3, P("4,4"), CharacterFlavor.PHI)
        assert certificate_from_closed_tuple(spec, t) == Partition([4] * 6)

    def test_closed_non_minimal_tuple_certifies(self):
        p1 = down_set_family(2, "set", [(2, 4)])
        p2 = down_set_family(2, "set", [(1, 5)])
        t = FamilyTuple([p1, p2])
        # shapes (5, 4) arise for even m=2 from kappa' = (5, 4), i.e. nu = (2^4, 1)
        spec = CharacterSpec(2, P("2,2,2,2,1"), CharacterFlavor.PHI)
        label = certificate_from_closed_tuple(spec, t)
        assert label == P("5,4,4,2,1,1,1")
        assert multiplicity(spec.nu, 2, label, guard=18) >= 1

    def test_minimal_witnesses_certify_their_own_labels(self):
        cases = ((2, P("2,1,1")), (3, P("2,1")), (2, P("3,2")), (3, P("3,1")), (4, P("2,1")))
        for m, nu in cases:
            phi = CharacterSpec(m, nu, CharacterFlavor.PHI)
            psi = CharacterSpec(m, nu, CharacterFlavor.PSI)
            for engine, spec in (
                (minimal_constituents_phi, phi),
                (maximal_constituents_phi, phi),
                (minimal_constituents_psi, psi),
            ):
                rep = engine(m, nu)
                for lab in rep.labels:
                    assert certificate_from_closed_tuple(spec, rep.witnesses[lab]) == lab
            # psi takes no set tuples; max-psi is the sign twist of the
            # partner's phi, whose set-tuple certificate is the conjugate label.
            partner = CharacterSpec(m, kappa_partition(m, nu), CharacterFlavor.PHI)
            rep = maximal_constituents_psi(m, nu)
            for lab in rep.labels:
                got = certificate_from_closed_tuple(partner, rep.witnesses[lab])
                assert got.conjugate() == lab

    def test_psi_multiset_certificate(self):
        rep = minimal_constituents_psi(2, P("1,1"))
        spec = CharacterSpec(2, P("1,1"), CharacterFlavor.PSI)
        witness = rep.witnesses[P("2,1,1")]
        assert certificate_from_closed_tuple(spec, witness) == P("2,1,1")

    def test_phi_multiset_certificate_conjugates(self):
        rep = maximal_constituents_phi(2, P("2,1,1"))
        spec = CharacterSpec(2, P("2,1,1"), CharacterFlavor.PHI)
        for lab in rep.labels:
            assert certificate_from_closed_tuple(spec, rep.witnesses[lab]) == lab

    def test_certificate_multiplicities_small(self):
        for m, nu in ((2, P("2,1")), (3, P("1,1")), (2, P("2,2"))):
            for engine, oracle_flavor in (
                (minimal_constituents_phi, "row"),
                (minimal_constituents_psi, "column"),
            ):
                rep = engine(m, nu)
                exp = plethysm_expansion(nu, m, oracle_flavor)
                for lab in rep.labels:
                    assert exp[lab] >= 1

    def test_errors(self):
        spec = CharacterSpec(2, P("2,1,1"), CharacterFlavor.PHI)
        wrong_shape = FamilyTuple([Family(2, "set", [(1, 2), (1, 3)])])
        with pytest.raises(ValueError):
            certificate_from_closed_tuple(spec, wrong_shape)
        not_closed = FamilyTuple(
            [Family(2, "set", [(1, 2), (1, 3), (2, 3)]), Family(2, "set", [(1, 3)])]
        )
        with pytest.raises(ValueError):
            certificate_from_closed_tuple(spec, not_closed)
        psi_spec = CharacterSpec(2, P("2,1,1"), CharacterFlavor.PSI)
        good_set_tuple = FamilyTuple(
            [Family(2, "set", [(1, 2), (1, 3), (1, 4)]), Family(2, "set", [(1, 2)])]
        )
        with pytest.raises(ValueError):
            certificate_from_closed_tuple(psi_spec, good_set_tuple)


def test_readme_rule_table_matches_the_code():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## The four rules", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if cells[0] in ("phi", "psi"):
            rows[cells[0], cells[1]] = tuple(cells[2:])
    want = {
        (flavor.value, extremum.value): (
            rule.kind.value,
            "kappa'" if rule.shapes_from_kappa else "nu'",
            "conjugate of the type" if rule.conjugate_label else "type",
        )
        for (flavor, extremum), rule in _RULES.items()
    }
    assert rows == want
