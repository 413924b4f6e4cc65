import pytest

from foulkes.constituents import (
    CharacterFlavor,
    maximal_constituents_phi,
    minimal_constituents_phi,
)
from foulkes.families import (
    BlockKind,
    colex_initial_segment,
    family_type,
    tuple_is_closed,
    tuple_type,
)
from foulkes.oracle import multiplicity, plethysm_expansion
from foulkes.partitions import Partition, parse_partition, partitions_of
from foulkes.special import (
    agaoka_lex_least,
    lex_greatest_constituent,
    lex_least_constituent,
    rectangular_certificate,
    theta_decomposition,
    unique_maximal_classification,
    unique_minimal_classification,
)

P = parse_partition


class TestAgaoka:
    def test_set_example(self):
        data = agaoka_lex_least(2, 4, BlockKind.SET)
        assert data.indices == (3, 1)
        assert data.residuals == (1, 0)
        assert data.widths == (2, 1)
        assert data.assembled == P("4,3,1")

    def test_single_block(self):
        for m in (1, 2, 3, 5):
            assert agaoka_lex_least(m, 1, BlockKind.SET).assembled == Partition([m])

    def test_multiset_example_pinned_by_colex(self):
        data = agaoka_lex_least(2, 3, BlockKind.MULTISET)
        assert data.indices == (2,)
        assert data.assembled == P("2,2,2")
        assert data.assembled == family_type(colex_initial_segment(2, 3, "multiset"))

    def test_cross_path_medium(self):
        # the full m <= 5, n <= 30 sweep lives in the acceptance suite
        for m in (1, 2, 3, 4):
            for n in range(1, 16):
                for kind in BlockKind:
                    got = agaoka_lex_least(m, n, kind).assembled
                    want = family_type(colex_initial_segment(m, n, kind))
                    assert got == want, (m, n, kind)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            agaoka_lex_least(0, 3, BlockKind.SET)
        with pytest.raises(ValueError):
            agaoka_lex_least(2, 0, BlockKind.SET)


class TestLexLeast:
    def test_golden_example_pinned_by_oracle(self):
        got = lex_least_constituent(2, P("2,1,1"), CharacterFlavor.PHI)
        support = plethysm_expansion(P("2,1,1"), 2).support()
        assert got == min(support)
        assert got == P("3,3,2")

    def test_m_one(self):
        assert lex_least_constituent(1, P("3,2"), CharacterFlavor.PHI) == P("3,2")

    def test_single_row_even_m_is_single_cascade(self):
        # one-column kappa means a single component of shape (m^n)
        assert lex_least_constituent(2, P("1,1,1,1"), CharacterFlavor.PHI) == (
            agaoka_lex_least(2, 4, BlockKind.SET).assembled
        )

    def test_matches_oracle_lex_extreme(self):
        for m in (1, 2, 3):
            for n in range(1, 12 // m + 1):
                for nu in partitions_of(n):
                    row = plethysm_expansion(nu, m)
                    col = plethysm_expansion(nu, m, "column")
                    assert lex_least_constituent(m, nu, "phi") == min(row.support())
                    assert lex_least_constituent(m, nu, "psi") == min(col.support())


class TestLexGreatest:
    def test_phi_golden(self):
        label, witness = lex_greatest_constituent(2, P("2,1,1"), "phi")
        assert label == P("6,1,1")
        assert tuple_is_closed(witness)
        assert tuple_type(witness).conjugate() == label

    def test_phi_formula_with_oracle(self):
        label, _ = lex_greatest_constituent(3, P("2,2"), "phi")
        assert label == P("10,2")
        assert multiplicity(P("2,2"), 3, label) >= 1

    def test_psi_small(self):
        label, witness = lex_greatest_constituent(2, P("2"), "psi")
        assert label == P("2,2")
        assert tuple_type(witness).conjugate() == label

    def test_matches_oracle_lex_extreme(self):
        for m in (1, 2, 3):
            for n in range(1, 12 // m + 1):
                for nu in partitions_of(n):
                    row = plethysm_expansion(nu, m)
                    col = plethysm_expansion(nu, m, "column")
                    assert lex_greatest_constituent(m, nu, "phi")[0] == max(row.support())
                    assert lex_greatest_constituent(m, nu, "psi")[0] == max(col.support())


class TestUniqueClassifications:
    def test_examples(self):
        assert unique_minimal_classification(2, P("3,2")) == P("3,3,2,1,1")
        assert unique_minimal_classification(3, P("2,2,1")) == P("4,4,3,2,2")
        assert unique_minimal_classification(2, P("2,1,1")) is None
        assert unique_maximal_classification(2, P("3,1")) == P("7,1")
        assert unique_maximal_classification(3, P("4")) == P("12")
        assert unique_maximal_classification(2, P("2,1,1")) is None

    def test_against_engines(self):
        for m in range(1, 8):
            for n in range(1, 11):
                for nu in partitions_of(n):
                    mins = minimal_constituents_phi(m, nu)
                    want_min = mins.labels[0] if len(mins.labels) == 1 else None
                    assert unique_minimal_classification(m, nu) == want_min, (m, nu)
                    maxs = maximal_constituents_phi(m, nu)
                    want_max = maxs.labels[0] if len(maxs.labels) == 1 else None
                    assert unique_maximal_classification(m, nu) == want_max, (m, nu)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_empty_nu_is_refused(m):
    for call in (
        lambda: lex_least_constituent(m, Partition(), "phi"),
        lambda: lex_greatest_constituent(m, Partition(), "phi"),
        lambda: unique_minimal_classification(m, Partition()),
        lambda: unique_maximal_classification(m, Partition()),
    ):
        with pytest.raises(ValueError, match="nu must be a nonempty partition"):
            call()


class TestRectangular:
    def test_degenerate(self):
        rc = rectangular_certificate(3, 3, 1, BlockKind.SET)
        assert rc.nu == P("1")
        assert rc.rectangle == P("3")

    def test_set_case_small(self):
        rc = rectangular_certificate(3, 3, 2, BlockKind.SET)
        assert rc.nu == P("1,1")
        assert rc.rectangle == P("3,3")
        assert multiplicity(rc.nu, 3, rc.rectangle) >= 1

    def test_set_case_even_m_conjugates_nu(self):
        rc = rectangular_certificate(3, 2, 1, BlockKind.SET)
        assert rc.nu == P("1,1,1")
        assert rc.rectangle == P("3,3")
        assert multiplicity(rc.nu, 2, rc.rectangle) >= 1

    def test_multiset_case_small(self):
        rc = rectangular_certificate(2, 2, 1, BlockKind.MULTISET)
        assert rc.nu == P("1,1,1")
        assert rc.rectangle == P("3,3")
        assert multiplicity(rc.nu, 2, rc.rectangle) >= 1

    def test_big_paper_instance_statically(self):
        rc = rectangular_certificate(4, 3, 2, BlockKind.SET)
        assert rc.nu == P("4,4")
        assert rc.rectangle == Partition([4] * 6)
        assert rc.witness.families[0].blocks == (
            (1, 2, 3),
            (1, 2, 4),
            (1, 3, 4),
            (2, 3, 4),
        )

    def test_a_wide_block(self):
        rc = rectangular_certificate(1200, 1200, 1, BlockKind.SET)
        assert rc.nu == P("1") and rc.rectangle == Partition([1200])
        assert rc.witness.families[0].blocks == (tuple(range(1, 1201)),)

    def test_rejects_a_below_m(self):
        with pytest.raises(ValueError):
            rectangular_certificate(2, 3, 1, BlockKind.SET)


class TestTheta:
    def test_small_values(self):
        assert theta_decomposition(2).coefficients == {P("3,1"): 1}
        assert theta_decomposition(3).coefficients == {P("4,1,1"): 1, P("3,3"): 1}
        assert theta_decomposition(4).coefficients == {P("5,1,1,1"): 1, P("4,3,1"): 1}

    def test_every_constituent_minimal_and_maximal(self):
        from foulkes.partitions import (
            dominance_maximal_elements,
            dominance_minimal_elements,
        )

        for n in range(1, 7):
            support = set(theta_decomposition(n).support())
            assert dominance_minimal_elements(support) == support
            assert dominance_maximal_elements(support) == support
