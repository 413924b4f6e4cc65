import copy
import hashlib
import itertools
import json
import pickle
from pathlib import Path

import pytest

from foulkes.constituents import (
    _RULES,
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
from foulkes.errors import GuardExceededError
from foulkes.families import (
    BlockKind,
    Family,
    FamilyTuple,
    down_set_family,
    enumerate_closed_families,
    enumerate_minimal_tuple_types,
    tuple_to_json,
    tuple_type,
)
from foulkes.oracle import PlethysmFlavor, multiplicity, plethysm_expansion
from foulkes.partitions import (
    DominanceRelation,
    Partition,
    dominance_compare,
    dominance_maximal_elements,
    dominance_minimal_elements,
    parse_partition,
    partitions_of,
)
from foulkes.special import AgaokaData, RectangularCertificate, theta_decomposition

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


SPEC = CharacterSpec(2, P("2,1"))
PAIR = FamilyTuple([Family(2, "set", [(1, 2), (1, 3), (2, 3)])] * 2)
# Each record built by keyword, the same built positionally, the same with
# one field changed, and the repr.
RECORDS = [
    (
        CharacterSpec(m=2, nu=P("2,1"), flavor="psi"),
        CharacterSpec(2, P("2,1"), CharacterFlavor.PSI),
        CharacterSpec(2, P("2,1")),
        "CharacterSpec(m=2, nu=Partition([2, 1]), flavor=<CharacterFlavor.PSI: 'psi'>)",
    ),
    (
        ConstituentReport(
            spec=SPEC, extremum=Extremum.MINIMAL, labels=(P("3,3"),), witnesses={}
        ),
        ConstituentReport(SPEC, Extremum.MINIMAL, (P("3,3"),), {}),
        ConstituentReport(SPEC, Extremum.MINIMAL, (P("3,3"),), {P("3,3"): PAIR}),
        "ConstituentReport(spec=CharacterSpec(m=2, nu=Partition([2, 1]), "
        "flavor=<CharacterFlavor.PHI: 'phi'>), extremum=<Extremum.MINIMAL: 'minimal'>, "
        "labels=(Partition([3, 3]),))",
    ),
    (
        AgaokaData(
            kind=BlockKind.SET, m=2, n=4, indices=(3, 1), residuals=(1, 0), widths=(2, 1),
            assembled=P("4,3,1"),
        ),
        AgaokaData(BlockKind.SET, 2, 4, (3, 1), (1, 0), (2, 1), P("4,3,1")),
        AgaokaData(BlockKind.MULTISET, 2, 4, (3, 1), (1, 0), (2, 1), P("4,3,1")),
        "AgaokaData(kind=<BlockKind.SET: 'set'>, m=2, n=4, indices=(3, 1), "
        "residuals=(1, 0), widths=(2, 1), assembled=Partition([4, 3, 1]))",
    ),
    (
        RectangularCertificate(
            kind=BlockKind.SET, nu=P("2,2,2"), rectangle=P("3,3,3,3"), witness=PAIR
        ),
        RectangularCertificate(BlockKind.SET, P("2,2,2"), P("3,3,3,3"), PAIR),
        RectangularCertificate(BlockKind.SET, P("2,2,2"), P("4,4,4"), PAIR),
        "RectangularCertificate(kind=<BlockKind.SET: 'set'>, nu=Partition([2, 2, 2]), "
        "rectangle=Partition([3, 3, 3, 3]), witness=FamilyTuple([Family(m=2, kind='set', "
        "blocks=[(1, 2), (1, 3), (2, 3)]), Family(m=2, kind='set', "
        "blocks=[(1, 2), (1, 3), (2, 3)])]))",
    ),
]


@pytest.mark.parametrize("record, same, other, text", RECORDS, ids=lambda r: type(r).__name__)
class TestRecords:
    def test_equality(self, record, same, other, text):
        assert record == same and not record != same
        assert record != other and not record == other
        assert record != () and record != text

    def test_hash_is_over_every_field(self, record, same, other, text):
        if isinstance(record, ConstituentReport):
            with pytest.raises(TypeError):  # the witnesses are a dict
                hash(record)
        else:
            assert hash(record) == hash(same)
            assert len({record, same, other}) == 2

    def test_repr(self, record, same, other, text):
        assert repr(record) == repr(same) == text

    def test_frozen(self, record, same, other, text):
        field = text[text.index("(") + 1 : text.index("=")]  # the first field
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            setattr(record, "extra", None)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert record == same

    def test_copies_are_equal(self, record, same, other, text):
        assert copy.copy(record) == copy.deepcopy(record) == record
        assert pickle.loads(pickle.dumps(record)) == record


ONE = P("1")
LONE = FamilyTuple([Family(1, "set", [(1,)])])
EDGE = FamilyTuple([Family(2, "set", [(1, 2)])])
# One record of each class, and its protocol-4 pickle as written by a version
# whose records were slotted classes reduced to (class, field values).
SLOTTED_PICKLES = [
    (
        CharacterSpec(2, P("2,1"), CharacterFlavor.PSI),
        (
            b"\x80\x04\x95\xa0\x00\x00\x00\x00\x00\x00\x00\x8c\x14foulkes.constituents\x94"
            b"\x8c\rCharacterSpec\x94\x93\x94K\x02\x8c\x12foulkes.partitions\x94\x8c\tPartit"
            b"ion\x94\x93\x94)\x81\x94N}\x94(\x8c\x05parts\x94K\x02K\x01\x86\x94\x8c\x06weig"
            b"ht\x94K\x03\x8c\x05_conj\x94Nu\x86\x94bh\x00\x8c\x0fCharacterFlavor\x94\x93"
            b"\x94\x8c\x03psi\x94\x85\x94R\x94\x87\x94R\x94."
        ),
    ),
    (
        ConstituentReport(CharacterSpec(1, ONE), Extremum.MINIMAL, (ONE,), {ONE: LONE}),
        (
            b"\x80\x04\x95r\x01\x00\x00\x00\x00\x00\x00\x8c\x14foulkes.constituents\x94\x8c"
            b"\x11ConstituentReport\x94\x93\x94(h\x00\x8c\rCharacterSpec\x94\x93\x94K\x01"
            b"\x8c\x12foulkes.partitions\x94\x8c\tPartition\x94\x93\x94)\x81\x94N}\x94(\x8c"
            b"\x05parts\x94K\x01\x85\x94\x8c\x06weight\x94K\x01\x8c\x05_conj\x94Nu\x86\x94bh"
            b"\x00\x8c\x0fCharacterFlavor\x94\x93\x94\x8c\x03phi\x94\x85\x94R\x94\x87\x94R"
            b"\x94h\x00\x8c\x08Extremum\x94\x93\x94\x8c\x07minimal\x94\x85\x94R\x94h\x08\x85"
            b"\x94}\x94h\x08\x8c\x10foulkes.families\x94\x8c\x0bFamilyTuple\x94\x93\x94)\x81"
            b"\x94N}\x94(\x8c\x01m\x94K\x01\x8c\x04kind\x94h\x1d\x8c\tBlockKind\x94\x93\x94"
            b"\x8c\x03set\x94\x85\x94R\x94\x8c\x08families\x94h\x1d\x8c\x06Family\x94\x93"
            b"\x94)\x81\x94N}\x94(h\"K\x01h#h(\x8c\x06blocks\x94K\x01\x85\x94\x85\x94u\x86"
            b"\x94b\x85\x94u\x86\x94bst\x94R\x94."
        ),
    ),
    (
        AgaokaData(BlockKind.SET, 2, 2, (2, 1), (1, 0), (1, 1), P("3,1")),
        (
            b"\x80\x04\x95\xb8\x00\x00\x00\x00\x00\x00\x00\x8c\x0ffoulkes.special\x94\x8c\nA"
            b"gaokaData\x94\x93\x94(\x8c\x10foulkes.families\x94\x8c\tBlockKind\x94\x93\x94"
            b"\x8c\x03set\x94\x85\x94R\x94K\x02K\x02K\x02K\x01\x86\x94K\x01K\x00\x86\x94K"
            b"\x01K\x01\x86\x94\x8c\x12foulkes.partitions\x94\x8c\tPartition\x94\x93\x94)"
            b"\x81\x94N}\x94(\x8c\x05parts\x94K\x03K\x01\x86\x94\x8c\x06weight\x94K\x04\x8c"
            b"\x05_conj\x94Nu\x86\x94bt\x94R\x94."
        ),
    ),
    (
        RectangularCertificate(BlockKind.SET, ONE, P("2"), EDGE),
        (
            b"\x80\x04\x950\x01\x00\x00\x00\x00\x00\x00\x8c\x0ffoulkes.special\x94\x8c\x16Re"
            b"ctangularCertificate\x94\x93\x94(\x8c\x10foulkes.families\x94\x8c\tBlockKind"
            b"\x94\x93\x94\x8c\x03set\x94\x85\x94R\x94\x8c\x12foulkes.partitions\x94\x8c\tPa"
            b"rtition\x94\x93\x94)\x81\x94N}\x94(\x8c\x05parts\x94K\x01\x85\x94\x8c\x06weigh"
            b"t\x94K\x01\x8c\x05_conj\x94Nu\x86\x94bh\x0b)\x81\x94N}\x94(h\x0eK\x02\x85\x94h"
            b"\x10K\x02h\x11Nu\x86\x94bh\x03\x8c\x0bFamilyTuple\x94\x93\x94)\x81\x94N}\x94("
            b"\x8c\x01m\x94K\x02\x8c\x04kind\x94h\x08\x8c\x08families\x94h\x03\x8c\x06Family"
            b"\x94\x93\x94)\x81\x94N}\x94(h\x1bK\x02h\x1ch\x08\x8c\x06blocks\x94K\x01K\x02"
            b"\x86\x94\x85\x94u\x86\x94b\x85\x94u\x86\x94bt\x94R\x94."
        ),
    ),
]


@pytest.mark.parametrize(
    "record, data", SLOTTED_PICKLES, ids=[type(r).__name__ for r, _ in SLOTTED_PICKLES]
)
def test_slotted_pickles_still_load(record, data):
    loaded = pickle.loads(data)
    assert type(loaded) is type(record) and loaded == record
    assert pickle.loads(pickle.dumps(loaded)) == record


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

    @pytest.mark.parametrize(
        "n, count, digest", [(14, 430, "82f1d3402d9f37e4"), (16, 915, "4d51224b68f57fc6")]
    )
    def test_two_component_fold_is_pinned(self, n, count, digest):
        # Every label and witness of min-phi at m = 3, nu = (n, n): two set
        # components of n blocks each, the second folded onto the first.
        rep = minimal_constituents_phi(3, Partition((n, n)))
        data = [[list(lab.parts), tuple_to_json(rep.witnesses[lab])] for lab in rep.labels]
        text = json.dumps(data, sort_keys=True, separators=(",", ":"))
        assert len(rep.labels) == count
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


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


class TestClosedFormsAtLargeDegree:
    """The rules against classical decompositions, folds of weight up to 200."""

    def test_thrall_two_fold_row_plethysm(self):
        # Thrall, Amer. J. Math. 64 (1942): s_(2) o s_(m) is the sum of
        # s_(2m-k, k) over even k <= m, a chain in dominance.
        for m in range(1, 101):
            k = m - m % 2
            least = Partition(p for p in (2 * m - k, k) if p)
            assert minimal_constituents_phi(m, P("2")).labels == (least,), m
            assert maximal_constituents_phi(m, P("2")).labels == (Partition((2 * m,)),), m

    def test_one_row_at_m_2(self):
        # s_(n) o s_(2) is the sum of s_lam over the lam of 2n with even parts
        # (Littlewood; Macdonald, ch. I.8, Ex. 6), least (2^n), greatest (2n).
        for n in range(1, 41):
            assert minimal_constituents_phi(2, Partition((n,))).labels == (Partition((2,) * n),)
            assert maximal_constituents_phi(2, Partition((n,))).labels == (Partition((2 * n,)),)

    def test_one_column_at_m_2(self):
        # Littlewood (Macdonald, ch. I.8, Ex. 6): s_(1^n) o s_(2) is the sum of
        # s_lam over lam = (a_1+1, ..., a_r+1 | a_1, ..., a_r) in Frobenius
        # notation, a_1 > ... > a_r >= 0 summing to n - r: an antichain, so
        # every label is both minimal and maximal.
        for n in range(1, 25):
            support = theta_decomposition(n).support()
            nu = Partition((1,) * n)
            assert minimal_constituents_phi(2, nu).labels == tuple(support), n
            assert maximal_constituents_phi(2, nu).labels == tuple(support), n


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
                    partner = kappa_partition(m, nu)
                    twisted = sign_twist_labels(
                        minimal_constituents_psi(m, partner).labels
                    )
                    assert set(maximal_constituents_phi(m, nu).labels) == twisted


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

    @pytest.mark.parametrize(
        "m, nu, calls",
        [(2, "2,1", 1), (3, "2,1", 1), (3, "3,1", 2)],
        ids=["even-m", "odd-m-self-conjugate", "odd-m"],
    )
    def test_one_expansion_when_kappa_is_nu(self, monkeypatch, m, nu, calls):
        # omega(s_nu o s_(m)) = s_kappa o s_(1^m): when kappa = nu the psi
        # support is the conjugated phi support, and no column walk runs.
        import foulkes.constituents as constituents

        flavors = []
        real = constituents.plethysm_expansion

        def counting(nu, m, flavor, **kw):
            flavors.append(PlethysmFlavor(flavor))
            return real(nu, m, flavor, **kw)

        monkeypatch.setattr(constituents, "plethysm_expansion", counting)
        checks = verify(m, P(nu))
        assert all(rule == oracle for _, rule, oracle in checks)
        assert flavors == [PlethysmFlavor.ROW, PlethysmFlavor.COLUMN][:calls]

    def test_psi_oracle_labels_are_those_of_the_column_walk(self):
        for m in range(1, 5):
            for n in range(1, 16 // m + 1):
                for nu in partitions_of(n):
                    col = plethysm_expansion(nu, m, "column").support()
                    oracle = {name: labels for name, _, labels in verify(m, nu)}
                    assert oracle["min-psi"] == dominance_minimal_elements(col), (m, nu)


ENGINES = {
    (CharacterFlavor.PHI, Extremum.MINIMAL): minimal_constituents_phi,
    (CharacterFlavor.PHI, Extremum.MAXIMAL): maximal_constituents_phi,
    (CharacterFlavor.PSI, Extremum.MINIMAL): minimal_constituents_psi,
    (CharacterFlavor.PSI, Extremum.MAXIMAL): maximal_constituents_psi,
}


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_reports_equal_the_public_minimal_types(m):
    # Each report rebuilt from the public minimal types of its rule: the
    # shapes are the columns of kappa or nu, and a maximal label is the
    # conjugate of its type.  The reports read their labels off the fold.
    for weight in range(1, 16 // m + 1):
        for nu in partitions_of(weight):
            for key, rule in _RULES.items():
                source = kappa_partition(m, nu) if rule.shapes_from_kappa else nu
                found = enumerate_minimal_tuple_types(m, source.conjugate().parts, rule.kind)
                want = {
                    (ty.conjugate() if rule.conjugate_label else ty): t for ty, t in found.items()
                }
                report = ENGINES[key](m, nu)
                assert report.labels == tuple(sorted(want, reverse=True)), (m, nu, key)
                assert report.witnesses == want, (m, nu, key)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_labels_and_witnesses_are_what_their_constructors_build(m):
    # Labels and witness families are built unchecked: each must be what the
    # checking constructors build from its parts or blocks, weight included,
    # which equality (parts, or blocks, m and kind) alone would not see.
    for weight in range(1, 16 // m + 1):
        for nu in partitions_of(weight):
            for key, rule in _RULES.items():
                report = ENGINES[key](m, nu)
                for label, t in report.witnesses.items():
                    rebuilt = Partition(label.parts)
                    assert (label.parts, label.weight) == (rebuilt.parts, rebuilt.weight)
                    assert label.weight == report.spec.degree, (m, nu, key, label)
                    assert (t.m, t.kind) == (m, rule.kind)
                    for fam in t.families:
                        assert fam == Family(m, rule.kind, fam.blocks), (m, nu, key, fam)


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
                (maximal_constituents_psi, psi),
            ):
                rep = engine(m, nu)
                for lab in rep.labels:
                    assert certificate_from_closed_tuple(spec, rep.witnesses[lab]) == lab

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

    def test_psi_set_certificates_lie_in_the_oracle_support(self):
        # psi_nu is the sign twist of phi_kappa, whose set tuples of shapes
        # kappa(kappa)' = nu' certify their types: so a closed set tuple of
        # shapes nu' certifies the conjugate of its type in psi_nu.
        tuples = 0
        for m in (2, 3, 4):
            for n in range(1, 18 // m + 1):
                for nu in partitions_of(n):
                    spec = CharacterSpec(m, nu, CharacterFlavor.PSI)
                    support = set(plethysm_expansion(nu, m, "column", guard=18).support())
                    components = [
                        list(enumerate_closed_families(m, nj, BlockKind.SET))
                        for nj in nu.conjugate().parts
                    ]
                    for fams in itertools.product(*components):
                        t = FamilyTuple(fams)
                        label = certificate_from_closed_tuple(spec, t)
                        assert label == tuple_type(t).conjugate() and label in support, (m, nu)
                        tuples += 1
        assert tuples == 330


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
