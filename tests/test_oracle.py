import random
import warnings
from fractions import Fraction
from itertools import product
from math import factorial
from pathlib import Path

import pytest

from foulkes import clear_caches, monomial, oracle
from foulkes.constituents import verify
from foulkes.errors import GuardExceededError, InternalConsistencyError
from foulkes.monomial import monomial_expansion
from foulkes.oracle import (
    CharacterTable,
    PlethysmFlavor,
    SchurExpansion,
    character_value,
    class_size,
    expected_dimension,
    multiplicity,
    omega_check,
    plethysm_expansion,
    z_order,
)
from foulkes.partitions import Partition, dimension, dominates, parse_partition, partitions_of

# A full degree-4 table as ``CharacterTable.save_to`` writes it.
GOLDEN_N4 = Path(__file__).resolve().parent / "golden" / "characters-n4.json"

P = parse_partition
ROW, COLUMN = PlethysmFlavor


class TestZOrder:
    def test_examples(self):
        assert z_order(P("1,1,1")) == 6
        assert z_order(P("3")) == 3
        assert z_order(P("2,1")) == 2

    def test_class_sizes_sum_to_group_order(self):
        for n in range(1, 9):
            assert sum(class_size(rho) for rho in partitions_of(n)) == factorial(n)


class TestCharacterValues:
    def test_trivial_character(self):
        for n in range(1, 8):
            for rho in partitions_of(n):
                assert character_value(Partition([n]), rho) == 1

    def test_sign_character(self):
        for n in range(1, 8):
            for rho in partitions_of(n):
                sign = (-1) ** (n - len(rho.parts))
                assert character_value(Partition([1] * n), rho) == sign

    def test_dimension_column(self):
        assert character_value(P("2,1"), P("1,1,1")) == 2
        for n in range(1, 9):
            for lam in partitions_of(n):
                assert character_value(lam, Partition([1] * n)) == dimension(lam)

    def test_weight_mismatch(self):
        with pytest.raises(ValueError):
            character_value(P("2"), P("1,1,1"))

    def test_known_s5_values(self):
        # hand row of the S_5 table for the standard character chi^(4,1)
        values = {
            "1,1,1,1,1": 4,
            "2,1,1,1": 2,
            "2,2,1": 0,
            "3,1,1": 1,
            "3,2": -1,
            "4,1": 0,
            "5": -1,
        }
        for rho, want in values.items():
            assert character_value(P("4,1"), P(rho)) == want


def _beta_list_strips(lam, r):
    """The partitions left by the strips of length r of lam, as (+1 list, -1 list).

    Strips are found on the beta numbers lam_j + (len - 1 - j): removing a
    strip of length r moves one beta number down by r, and the sign is
    (-1)^(beta numbers jumped).
    """
    length = len(lam)
    beta = [lam[j] + (length - 1 - j) for j in range(length)]
    beta_set = set(beta)
    plus, minus = [], []
    for b in beta:
        c = b - r
        if c < 0 or c in beta_set:
            continue
        leg = sum(1 for x in beta if c < x < b)
        nb = sorted((beta_set - {b}) | {c}, reverse=True)
        mu = tuple(v - (length - 1 - j) for j, v in enumerate(nb) if v - (length - 1 - j) > 0)
        (minus if leg % 2 else plus).append(mu)
    return sorted(plus), sorted(minus)


def _beta_list_char(lam, rho, memo):
    """chi^lam(rho) by the earlier tuple/beta-list recursion, memoized in ``memo``.

    The reference the bead-mask kernel is checked against.  ``rho`` must be
    weakly decreasing; its first part is stripped by :func:`_beta_list_strips`.
    """
    key = (lam, rho)
    cached = memo.get(key)
    if cached is not None:
        return cached
    if not rho:
        memo[key] = 1
        return 1
    plus, minus = _beta_list_strips(lam, rho[0])
    total = sum(_beta_list_char(mu, rho[1:], memo) for mu in plus) - sum(
        _beta_list_char(mu, rho[1:], memo) for mu in minus
    )
    memo[key] = total
    return total


def _memo_entries():
    """(suffix, bead mask, value) for every character value: the ribbon memo at (rho, 1, ROW)."""
    return [
        (rho, mask, v)
        for (rho, m, flavor), node in oracle._RIBBON_CACHE.items() if (m, flavor) == (1, ROW)
        for mask, v in node[2].items()
    ]


class TestBeadMaskKernel:
    def test_matches_beta_list_recursion_up_to_degree_12(self):
        memo = {}
        for n in range(13):
            parts = list(partitions_of(n))
            for lam in parts:
                for rho in parts:
                    want = _beta_list_char(lam.parts, rho.parts, memo)
                    assert character_value(lam, rho) == want, (str(lam), str(rho))
        # Every mask the recursion memoized is in normal form: no zero parts.
        entries = _memo_entries()
        assert entries
        assert all(mask & 1 == 0 for _, mask, _ in entries)

    def test_matches_beta_list_recursion_at_degrees_20_to_24(self):
        # Labels from the band the single-coefficient benchmark draws from:
        # 4 to 8 parts, first part at most 10.
        rng = random.Random(20240)
        memo = {}
        for n in range(20, 25):
            classes = list(partitions_of(n))
            band = [lam for lam in classes if 4 <= len(lam) <= 8 and lam.parts[0] <= 10]
            for _ in range(60):
                lam, rho = rng.choice(band), rng.choice(classes)
                want = _beta_list_char(lam.parts, rho.parts, memo)
                assert character_value(lam, rho) == want, (str(lam), str(rho))

    def test_empty_row_column_and_hook_labels(self):
        assert oracle._beads(()) == 0
        assert character_value(Partition([]), Partition([])) == 1
        rng = random.Random(7)
        memo = {}
        for n in range(1, 31):
            classes = list(partitions_of(n))
            for rho in rng.sample(classes, min(len(classes), 12)):
                for k in range(n):
                    hook = Partition([n - k] + [1] * k)
                    want = _beta_list_char(hook.parts, rho.parts, memo)
                    assert character_value(hook, rho) == want, (str(hook), str(rho))
                assert character_value(Partition([n]), rho) == 1
                assert character_value(Partition([1] * n), rho) == (-1) ** (n - len(rho))


def _fill(degree):
    """Compute every character value of the degree, so the memo holds them all."""
    classes = list(partitions_of(degree))
    for lam in classes:
        for rho in classes:
            character_value(lam, rho)


class TestCharacterTable:
    def test_orthogonality_small(self):
        for n in range(1, 9):
            CharacterTable(n).verify_orthogonality()

    def test_save_load_round_trip(self, tmp_path):
        table = CharacterTable(5)
        _fill(5)
        path = table.save_to(tmp_path)
        assert path.name == "characters-n5.json"
        saved = table.values
        clear_caches()
        loaded = CharacterTable.load_or_create(5, tmp_path)
        assert loaded.degree == 5
        assert loaded.values == saved

    def test_load_or_create(self, tmp_path):
        fresh = CharacterTable.load_or_create(4, tmp_path)
        assert fresh.values == {}
        v = character_value(P("2,2"), P("2,1,1"))
        fresh.save_to(tmp_path)
        clear_caches()
        again = CharacterTable.load_or_create(4, tmp_path)
        assert again.values == {((2, 2), (2, 1, 1)): v}

    @pytest.mark.parametrize(
        "content",
        [
            "{not json",
            "[]",
            '{"schema": 99, "degree": 4, "values": {}}',
            '{"schema": 1, "degree": 5, "values": {}}',
            '{"schema": 1, "degree": 4, "values": {"2,2": 2}}',
            '{"schema": 1, "degree": 4, "values": {"2,2|2,2": 2.7}}',
            '{"schema": 1, "degree": 4, "values": {"3,1|2,2": -0.5}}',
            '{"schema": 1, "degree": 4, "values": {"2,2|2,2": "2"}}',
            '{"schema": 1, "degree": 4, "values": {"4|4": true}}',
            '{"schema": 1, "degree": 4, "values": {"2,1|2,1": 0}}',
            '{"schema": 1, "degree": 4, "values": {"2,2|2,1": 0}}',
            '{"schema": 1, "degree": 4, "values": {"2,2|1,1,1,1": 3}}',
            '{"schema": 1, "degree": 4, "values": {"4|2,2": -1}}',
            '{"schema": 1, "degree": 4, "values": {"3,1|1,1,1,1": -3}}',
            '{"schema": 1, "degree": 4, "values": {"4|1,1,1,1": 0}}',
            '{"schema": 1, "degree": 4, "values": {"1,3|2,2": 0}}',
            '{"schema": 1, "degree": 4, "values": {"4,0|2,2": 0}}',
            '{"schema": 1, "degree": 4, "values": {"2,a|2,2": 0}}',
            '{"schema": 1, "degree": 4.5, "values": {}}',
            '{"schema": 1, "degree": "4", "values": {}}',
            # int(true) is 1, which matches the degree only in a degree-1 file
            (1, '{"schema": 1, "degree": true, "values": {}}'),
            pytest.param("[" * 10**6 + "]" * 10**6, id="deep-nesting"),
            pytest.param('{"schema": 1, "degree": 1000000000000000, "values": {}}', id="huge-degree"),
            # chi^(3,1)(2,2) is -1, held before the load; the good entries before it stay out
            pytest.param(
                '{"schema": 1, "degree": 4, "values": {"2,2|2,1,1": 0, "4|2,2": 1, "3,1|2,2": 1}}',
                id="disagrees-with-a-held-value",
            ),
            pytest.param(
                '{"schema": 1, "degree": 5, "values": {"3,2|3,1,1": -1, "5|5": 1}}', id="other-degree"
            ),
            pytest.param(
                '{"schema": 1, "degree": 4, "values": {"2,2|2,2": 2, "2,02|2,2": -2}}',
                id="one-pair-spelt-twice",
            ),
        ],
    )
    def test_unusable_cache_file_is_ignored(self, tmp_path, content):
        degree, content = content if isinstance(content, tuple) else (4, content)
        path = tmp_path / f"characters-n{degree}.json"
        path.write_text(content)
        assert character_value(P("3,1"), P("2,2")) == -1
        before = _memo_entries()
        with pytest.warns(RuntimeWarning, match=path.name):
            table = CharacterTable.load_or_create(degree, tmp_path)
        assert table.degree == degree and _memo_entries() == before

    def test_unreadable_cache_path_is_ignored(self, tmp_path):
        path = tmp_path / "characters-n4.json"
        path.mkdir()
        character_value(P("3,1"), P("2,2"))
        before = _memo_entries()
        with pytest.warns(RuntimeWarning, match=path.name):
            table = CharacterTable.load_or_create(4, tmp_path)
        assert table.degree == 4 and _memo_entries() == before

    def test_load_checks_every_entry_before_it_seeds(self, tmp_path):
        (tmp_path / "characters-n4.json").write_text(
            '{"schema": 1, "degree": 4, "values": {"2,2|2,1,1": 0, "2,2|2,2": 2, "3,1|2,2": 1}}'
        )
        held = character_value(P("3,1"), P("2,2"))
        before = _memo_entries()
        with pytest.warns(RuntimeWarning, match=r"'3,1\|2,2' holds 1"):
            CharacterTable.load_or_create(4, tmp_path)
        assert _memo_entries() == before
        assert oracle._RIBBON_CACHE[(2, 2), 1, ROW][2][oracle._beads((3, 1))] == held == -1

    def test_huge_degree_loads_at_once(self, tmp_path):
        # The identity class is recognised by its length, so no (1,) * degree is built.
        (tmp_path / f"characters-n{10**15}.json").write_text(
            '{"schema": 1, "degree": 1000000000000000, "values": {}}'
        )
        table = CharacterTable.load_or_create(10**15, tmp_path)
        assert table.degree == 10**15 and table.values == {}

    def test_save_replaces_the_file_whole(self, tmp_path):
        (tmp_path / "characters-n4.json").write_text("{not json")
        table = CharacterTable(4)
        _fill(4)
        table.save_to(tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == ["characters-n4.json"]
        assert CharacterTable.load_or_create(4, tmp_path).values == table.values

    def test_degree_checked(self):
        table = CharacterTable(4)
        with pytest.raises(ValueError):
            character_value(P("2,1"), P("4"))
        with pytest.raises(ValueError, match="degree 4 only"):
            multiplicity(P("2,1"), 2, P("6"), table=table)

    @pytest.mark.parametrize("degree", [2.0, 4.0, True, False, "4", None, -1])
    def test_degree_must_be_a_nonnegative_int(self, tmp_path, degree):
        # 2.0 and True would name files characters-n2.0.json and
        # characters-nTrue.json, which load_or_create never reads.
        with pytest.raises(ValueError, match="nonnegative int"):
            CharacterTable(degree)
        with pytest.raises(ValueError, match="nonnegative int"):
            CharacterTable.load_or_create(degree, tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_degree_is_checked_before_the_disk(self, tmp_path):
        # A directory at the would-be path would be warned about if it were
        # read; a warning fails this test (filterwarnings = error).
        (tmp_path / "characters-n-1.json").mkdir()
        with pytest.raises(ValueError, match="nonnegative int"):
            CharacterTable.load_or_create(-1, tmp_path)

    def test_surface_the_benchmark_binds(self):
        # The benchmark wraps load_or_create through the class dict and
        # save_to, reads values, and passes a table to multiplicity.
        assert isinstance(CharacterTable.__dict__["load_or_create"], classmethod)
        assert callable(CharacterTable.save_to)
        assert isinstance(CharacterTable.__dict__["values"], property)
        nu, lam = P("2,1"), P("4,2")
        assert multiplicity(nu, 2, lam, table=CharacterTable(6)) == multiplicity(nu, 2, lam)

    def test_save_writes_the_recorded_layout(self, tmp_path):
        table = CharacterTable(4)
        _fill(4)
        path = table.save_to(tmp_path)
        assert path.read_text() == GOLDEN_N4.read_text()

    def test_recorded_file_loads(self):
        table = CharacterTable.load_or_create(4, GOLDEN_N4.parent)
        assert table.degree == 4 and len(table.values) == 25
        memo = {}
        for (lam, rho), v in table.values.items():
            assert v == _beta_list_char(lam, rho, memo), (lam, rho)

    def test_poisoned_degree_zero_file_is_ignored(self, tmp_path):
        (tmp_path / "characters-n0.json").write_text(
            '{"schema": 1, "degree": 0, "values": {"|": 0}}'
        )
        with pytest.warns(RuntimeWarning, match="characters-n0.json"):
            assert CharacterTable.load_or_create(0, tmp_path).values == {}

    def test_table_keys_and_bead_memo_keys(self):
        # The table holds the partition keys it was asked for and nothing
        # below them; the recursion memo is keyed by bead masks only.
        table = CharacterTable(7)
        asked = [(P("4,2,1"), P("3,2,2")), (P("3,3,1"), P("2,2,1,1,1"))]
        values = [character_value(lam, rho) for lam, rho in asked]
        assert table.values == {
            (lam.parts, rho.parts): v for (lam, rho), v in zip(asked, values)
        }
        entries = _memo_entries()
        assert entries
        assert all(type(mask) is int for _, mask, _ in entries)
        clear_caches()
        for (lam, rho), v in zip(asked, values):
            assert character_value(lam, rho) == v

    def test_table_values_are_not_kept_twice(self, tmp_path, monkeypatch):
        # A table holds its degree only, also when passed to multiplicity: a
        # value read through character_value or from a loaded file is held
        # once, at its node.
        assert vars(CharacterTable(7)) == {"degree": 7}
        table = CharacterTable(12)
        lam = P("6,3,2,1")
        multiplicity(P("3,1"), 3, lam, table=table)
        assert vars(table) == {"degree": 12}
        taus = [tau for tau, _ in oracle._power_sum_coefficients((3, 1), 3, PlethysmFlavor.ROW)]
        for tau in taus:
            character_value(lam, Partition(tau))
        assert table.values == {
            (lam.parts, tau): oracle._RIBBON_CACHE[tau, 1, ROW][2][oracle._beads(lam.parts)]
            for tau in taus
        }
        for (mu, rho), v in table.values.items():
            assert v == _beta_list_char(mu, rho, {})
        # A value character_value stored is the one a table's snapshot holds,
        # and a saved file seeds the memo, from which it reads without computing.
        lam, rho = P("4,2,1"), P("3,2,2")
        v = character_value(lam, rho)
        assert oracle._RIBBON_CACHE[rho.parts, 1, ROW][2][oracle._beads(lam.parts)] == v
        seven = CharacterTable(7)
        assert seven.values[lam.parts, rho.parts] == v
        _fill(7)
        seven.save_to(tmp_path)
        saved = seven.values
        clear_caches()
        loaded = CharacterTable.load_or_create(7, tmp_path)
        assert sorted(_memo_entries()) == sorted(
            (rho, oracle._beads(mu), v) for (mu, rho), v in saved.items()
        )
        monkeypatch.setattr(oracle, "_ribbon_sum", None)
        for (mu, rho), v in saved.items():
            assert character_value(Partition(mu), Partition(rho)) == v
        assert loaded.values == saved

    def test_snapshot_holds_character_values_only(self):
        # The ribbon memo also holds coefficient nodes: (rho, 2, flavor) with
        # |rho| = 3 holds masks of weight 6.  A snapshot reads the m = 1 ROW
        # nodes only, so each degree holds pairs of its own degree.
        nu = P("2,1")
        for flavor in PlethysmFlavor:
            for lam in partitions_of(6):
                multiplicity(nu, 2, lam, flavor)
        other = [
            (rho, mask)
            for (rho, m, _), node in oracle._RIBBON_CACHE.items() if m == 2 and sum(rho) == 3
            for mask in node[2]
        ]
        assert other and all(sum(oracle._unbeads(mask)) == 6 for _, mask in other)
        _fill(6)
        memo = {}
        for degree in (3, 6):
            values = CharacterTable(degree).values
            assert values
            for (lam, rho), v in values.items():
                assert sum(lam) == sum(rho) == degree, (degree, lam, rho)
                assert v == _beta_list_char(lam, rho, memo), (lam, rho)
        assert len(CharacterTable(6).values) == len(list(partitions_of(6))) ** 2


class TestSchurExpansion:
    def test_validation(self):
        with pytest.raises(ValueError):
            SchurExpansion(4, {P("2,1"): 1})
        with pytest.raises(ValueError):
            SchurExpansion(3, {P("2,1"): -1})
        # A multiplicity must be an int itself, not a value int() would accept;
        # the refusal names the label.  A zero int is still dropped.
        for bad in (1.5, 1.0, "3", True, False, Fraction(2), None):
            with pytest.raises(ValueError, match=r"multiplicity of 2,1 must be an int"):
                SchurExpansion(3, {P("2,1"): bad})
        with pytest.raises(ValueError, match=r"multiplicity of 2 must be an int, not 1\.5"):
            SchurExpansion(2, {P("2"): 1.5})
        assert SchurExpansion(3, {P("2,1"): 0, P("3"): 2}).coefficients == {P("3"): 2}

    def test_support_descending_lex(self):
        e = SchurExpansion(4, {P("2,2"): 1, P("4"): 2, P("1,1,1,1"): 1})
        assert e.support() == (P("4"), P("2,2"), P("1,1,1,1"))
        assert e[P("4")] == 2 and e[P("3,1")] == 0


class TestPlethysmExpansion:
    def test_row_1_1(self):
        e = plethysm_expansion(P("1,1"), 2)
        assert e.coefficients == {P("3,1"): 1}

    def test_row_2(self):
        e = plethysm_expansion(P("2"), 2)
        assert e.coefficients == {P("4"): 1, P("2,2"): 1}

    def test_golden_extremes(self):
        from foulkes.partitions import (
            dominance_maximal_elements,
            dominance_minimal_elements,
        )

        e = plethysm_expansion(P("2,1,1"), 2)
        assert dominance_minimal_elements(e.support()) == {P("4,2,1,1"), P("3,3,2")}
        assert dominance_maximal_elements(e.support()) == {P("6,1,1"), P("5,3")}

    def test_m_equals_one_is_identity(self):
        for nu in partitions_of(5):
            for flavor in PlethysmFlavor:
                e = plethysm_expansion(nu, 1, flavor)
                assert e.coefficients == {nu: 1}

    def test_guard(self):
        with pytest.raises(GuardExceededError):
            plethysm_expansion(P("3,2,1"), 3)
        assert plethysm_expansion(P("3,2,1"), 3, guard=18).degree == 18

    def test_dimension_identity_all_small(self):
        for m in (2, 3):
            for n in range(1, 9 // m + 1):
                for nu in partitions_of(n):
                    for flavor in PlethysmFlavor:
                        e = plethysm_expansion(nu, m, flavor)
                        assert e.total_dimension() == expected_dimension(nu, m)


class TestForwardAssembly:
    """The full expansion adds border strips; ``multiplicity`` removes them."""

    def test_matches_the_per_label_backward_path(self):
        # Three paths to each coefficient: the expansion, and multiplicity
        # cold (the memos are cleared per case, so it computes its values) and
        # warm, with and without a table.  Every label asked is then held at
        # the top ribbon node of each class of S_|nu| that it sums over; at
        # m = 1 both flavors use the row node, whose values are characters.
        for m in range(1, 13):
            for n in range(1, 12 // m + 1):
                labels = list(partitions_of(m * n))
                for nu in partitions_of(n):
                    for flavor in PlethysmFlavor:
                        clear_caches()
                        e = plethysm_expansion(nu, m, flavor)
                        table = CharacterTable(m * n)
                        cold = [multiplicity(nu, m, lam, flavor, table=table) for lam in labels]
                        for lam, v in zip(labels, cold):
                            assert e[lam] == v == multiplicity(nu, m, lam, flavor) == multiplicity(
                                nu, m, lam, flavor, table=table
                            ), (m, str(nu), flavor, str(lam))
                        for rho, _ in oracle._power_sum_coefficients(nu.parts, 1, ROW):
                            held = oracle._RIBBON_CACHE[rho, m, flavor if m > 1 else ROW][2]
                            assert all(oracle._beads(lam.parts) in held for lam in labels)

    def test_p1_fold_gives_the_dimensions(self):
        vec = {0: 1}
        for n in range(1, 11):
            vec = oracle._times_power_sum(vec, 1, {})
            assert vec == {oracle._beads(lam.parts): dimension(lam) for lam in partitions_of(n)}
            for mask in vec:
                assert oracle._beads(oracle._unbeads(mask)) == mask

    def test_pn_of_one_gives_the_signed_hooks(self):
        for n in range(1, 13):
            hooks = {oracle._beads((n - k,) + (1,) * k): (-1) ** k for k in range(n)}
            assert oracle._times_power_sum({0: 1}, n, {}) == hooks

    @pytest.mark.parametrize("nu", ["2,1", "4,4"])
    def test_poisoned_power_sum_weight_is_caught(self, monkeypatch, nu):
        nu, m = P(nu), 2
        terms = oracle._power_sum_coefficients(nu.parts, m, PlethysmFlavor.ROW)
        for i in range(len(terms)):
            poisoned = terms[:i] + ((terms[i][0], terms[i][1] + 1),) + terms[i + 1:]
            monkeypatch.setattr(oracle, "_power_sum_coefficients", lambda *_: poisoned)
            with pytest.raises(InternalConsistencyError):
                plethysm_expansion(nu, m)

    def test_expansion_computes_no_character_value_of_its_degree(self):
        # Only the power-sum weights read character values, of degree |nu|.
        plethysm_expansion(P("3,2,1"), 2)
        weights = {sum(oracle._unbeads(mask)) for _, mask, _ in _memo_entries()}
        assert 6 in weights and 12 not in weights


class TestSuffixMemo:
    """Character values: the ribbon memo's (rho, 1, ROW) nodes, keyed by bead mask."""

    def test_nodes_and_entries_are_well_formed(self):
        for n in range(9):
            classes = list(partitions_of(n))
            for lam in classes:
                for rho in classes:
                    character_value(lam, rho)
        # The classes of the degree-12 and degree-20 power-sum terms.
        for nu, m, lam, flavor in [("3,1", 3, "6,3,2,1", ROW), ("2,2", 5, "8,6,4,2", COLUMN)]:
            for tau, _ in oracle._power_sum_coefficients(P(nu).parts, m, flavor):
                character_value(P(lam), Partition(tau))
        assert oracle._EMPTY_PRODUCT[2] == {0: 1}
        memo = {}
        weights = set()
        for (rho, m, flavor), (r, child, values) in oracle._RIBBON_CACHE.items():
            assert (m, flavor) == (1, ROW)
            assert rho and rho[-1] >= 1 and list(rho) == sorted(rho, reverse=True)
            assert r == rho[0]
            assert child is oracle._RIBBON_CACHE.get((rho[1:], 1, ROW), oracle._EMPTY_PRODUCT)
            for mask, v in values.items():
                assert type(mask) is int and mask & 1 == 0, (rho, mask)
                lam = oracle._unbeads(mask)
                assert sum(lam) == sum(rho), (rho, mask)
                weights.add(sum(rho))
                if sum(rho) <= 12:
                    assert v == _beta_list_char(lam, rho, memo), (rho, lam)
        assert {8, 12, 20} <= weights


def _times_plethystic_power(vec, r, m, flavor):
    """The Schur vector ``vec`` times h_m[p_r] (ROW) or e_m[p_r] (COLUMN), by power sums.

    h_m = sum_sigma p_sigma/z_sigma and e_m = sum_sigma sign(sigma) p_sigma/z_sigma,
    and p_s[p_r] = p_{rs}, so the product is built by ``_times_power_sum``
    alone, scaled by m! to stay in integers and divided back exactly.
    """
    out = {}
    for sigma in partitions_of(m):
        w = factorial(m) // z_order(sigma)
        if flavor is COLUMN and (m - len(sigma)) % 2:
            w = -w
        term = {mask: w * c for mask, c in vec.items()}
        for s in sigma.parts:
            term = oracle._times_power_sum(term, r * s, {})
        for mask, c in term.items():
            out[mask] = out.get(mask, 0) + c
    product = {}
    for mask, c in out.items():
        q, rem = divmod(c, factorial(m))
        assert rem == 0
        if q:
            product[mask] = q
    return product


def _by_characters(nu, m, lam, flavor):
    """<s_lam, plethysm> as sum w_tau chi^lam(tau) over the power-sum terms, divided exactly."""
    total = sum(
        w * character_value(lam, Partition(tau))
        for tau, w in oracle._power_sum_coefficients(nu.parts, m, flavor)
    )
    value, rem = divmod(total, factorial(nu.weight) * factorial(m) ** nu.weight)
    assert rem == 0
    return value


class TestRibbonStrips:
    """Single coefficients sum over the classes of S_|nu| by strips of ribbons."""

    def test_matches_beta_list_strips_up_to_weight_12(self):
        # At m = 1 the strips are single border strips, those of a character value.
        checked = 0
        for n in range(1, 13):
            for lam in partitions_of(n):
                mask = oracle._beads(lam.parts)
                for r in range(1, n + 1):
                    strips = oracle._ribbon_strips(mask, r, 1, False)
                    plus = [left for left, sign in strips if sign == 1]
                    minus = [left for left, sign in strips if sign == -1]
                    assert len(plus) + len(minus) == len(strips) == len({*plus, *minus})
                    for left in plus + minus:
                        assert type(left) is int and (left == 0 or left & 1 == 0), (lam, r, left)
                    got = (
                        sorted(oracle._unbeads(left) for left in plus),
                        sorted(oracle._unbeads(left) for left in minus),
                    )
                    assert got == _beta_list_strips(lam.parts, r), (str(lam), r)
                    checked += 1
        assert checked == sum(
            len(list(partitions_of(n))) * n for n in range(1, 13)
        )

    def test_strips_are_the_adjoint_of_the_product(self):
        # <s_lam, s_mu f[p_r]> by the product must be the sign of the strip
        # that leaves mu, for every lam of weight <= 10: shapes and signs are
        # checked without the ribbon code.
        checked = 0
        for r in range(1, 5):
            for m in range(1, 4):
                for flavor in PlethysmFlavor:
                    want = {}
                    for k in range(10 - r * m + 1):
                        for mu in partitions_of(k):
                            below = oracle._beads(mu.parts)
                            vec = _times_plethystic_power({below: 1}, r, m, flavor)
                            for mask, c in vec.items():
                                want.setdefault(mask, {})[below] = c
                    for n in range(11):
                        for lam in partitions_of(n):
                            mask = oracle._beads(lam.parts)
                            strips = oracle._ribbon_strips(mask, r, m, flavor is COLUMN)
                            got = dict(strips)
                            assert len(got) == len(strips)
                            assert got == want.get(mask, {}), (r, m, flavor, str(lam))
                            checked += 1
        assert checked == 2 * 12 * sum(len(list(partitions_of(n))) for n in range(11))

    def test_nodes_and_entries_are_well_formed(self):
        for nu, m in [("2,1", 2), ("3,1", 3), ("2,2", 2), ("1,1,1", 3), ("3", 4)]:
            nu = P(nu)
            for flavor in PlethysmFlavor:
                for lam in partitions_of(m * nu.weight):
                    multiplicity(nu, m, lam, flavor)
        assert oracle._EMPTY_PRODUCT[2] == {0: 1}
        entries = 0
        for (rho, m, flavor), (r, child, values) in oracle._RIBBON_CACHE.items():
            assert rho and rho[-1] >= 1 and list(rho) == sorted(rho, reverse=True)
            assert r == rho[0]
            assert child is oracle._RIBBON_CACHE.get((rho[1:], m, flavor), oracle._EMPTY_PRODUCT)
            product = {0: 1}
            for part in rho:
                product = _times_plethystic_power(product, part, m, flavor)
            for mask, v in values.items():
                assert type(mask) is int and mask & 1 == 0, (rho, mask)
                assert sum(oracle._unbeads(mask)) == m * sum(rho), (rho, m, mask)
                assert v == product.get(mask, 0), (rho, m, flavor, oracle._unbeads(mask))
                entries += 1
        assert entries > 100

    def test_a_strip_removes_at_most_r_rows_or_columns(self):
        # The bound _ribbon_sum skips by: a ROW strip of m r-ribbons keeps at
        # least len(lam) - r parts, and a COLUMN strip lowers the first part
        # by at most r.  Both are reached, so r is the least such bound.
        checked = reached = 0
        for n in range(13):
            for lam in partitions_of(n):
                mask = oracle._beads(lam.parts)
                rows, first = len(lam), (lam[0] if n else 0)
                for r in range(1, 5):
                    for m in range(1, 4):
                        for column in (False, True):
                            for left, _ in oracle._ribbon_strips(mask, r, m, column):
                                mu = oracle._unbeads(left)
                                lost = first - (mu[0] if mu else 0) if column else rows - len(mu)
                                assert lost <= r, (str(lam), r, m, column, mu)
                                checked += 1
                                reached += lost == r
        assert (checked, reached) == (8738, 3298)

    def test_plethystic_powers_have_at_most_r_rows_or_columns(self):
        # Built without the ribbon code: every constituent of h_m[p_r] has at
        # most r rows and every constituent of e_m[p_r] at most r columns,
        # and some has exactly r.
        for r in range(1, 5):
            for m in range(1, 5):
                for flavor in PlethysmFlavor:
                    shapes = [
                        oracle._unbeads(mask)
                        for mask in _times_plethystic_power({0: 1}, r, m, flavor)
                    ]
                    sizes = [mu[0] if flavor is COLUMN else len(mu) for mu in shapes]
                    assert max(sizes) == r, (r, m, flavor)

    @pytest.mark.parametrize(
        "nu, m",
        [("3,3,2", 3), ("3,2,1", 4), ("3,3", 4), ("2,2", 6), ("2,1", 8), ("2,2", 5)],
    )
    def test_matches_the_character_sum_at_the_benchmark_plethysms(self, nu, m):
        # Labels of the coeff benchmark's middle band: 4 to 8 parts, the
        # first at most 10.
        nu = P(nu)
        band = [lam for lam in partitions_of(m * nu.weight) if 4 <= len(lam) <= 8 and lam[0] <= 10]
        rng = random.Random(f"{nu}:{m}")
        for flavor in PlethysmFlavor:
            for lam in rng.sample(band, 3):
                with warnings.catch_warnings():
                    warnings.filterwarnings("ignore", "single-coefficient", RuntimeWarning)
                    got = multiplicity(nu, m, lam, flavor)
                assert got == _by_characters(nu, m, lam, flavor), (str(nu), m, flavor, str(lam))

    @pytest.mark.parametrize(
        "nu, m",
        [("3,3,2", 3), ("3,2,1", 4), ("3,3", 4), ("2,2", 6), ("2,1", 8), ("2,2", 5)],
    )
    def test_memo_holds_nothing_past_the_bound_at_the_benchmark_plethysms(self, nu, m):
        # Below the top nodes, no partition with more parts (ROW), or a
        # larger first part (COLUMN), than its suffix's weight is stored,
        # and every value stored is the coefficient of the product.  Per
        # flavor, three labels of the benchmark's middle band, most of which
        # are past the bound at the top already, and three within it.
        nu = P(nu)
        labels = list(partitions_of(m * nu.weight))
        band = [lam for lam in labels if 4 <= len(lam) <= 8 and lam[0] <= 10]
        rng = random.Random(f"{nu}:{m}")
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "single-coefficient", RuntimeWarning)
            for flavor in PlethysmFlavor:
                within = [
                    lam for lam in labels
                    if (lam[0] if flavor is COLUMN else len(lam)) <= nu.weight
                ]
                for lam in rng.sample(band, 3) + rng.sample(within, 3):
                    multiplicity(nu, m, lam, flavor)
        products = {}
        below = 0
        for (rho, k, flavor), (_, _, values) in oracle._RIBBON_CACHE.items():
            if k == 1:
                continue
            assert k == m
            for i in range(len(rho) - 1, -1, -1):
                if (rho[i:], flavor) not in products:
                    tail = products.get((rho[i + 1:], flavor), {0: 1})
                    products[rho[i:], flavor] = _times_plethystic_power(tail, rho[i], m, flavor)
            product = products[rho, flavor]
            for mask, v in values.items():
                assert v == product.get(mask, 0), (rho, flavor, oracle._unbeads(mask))
                if sum(rho) < nu.weight:
                    mu = oracle._unbeads(mask)
                    assert (mu[0] if flavor is COLUMN else len(mu)) <= sum(rho), (rho, flavor, mu)
                    below += 1
        assert below


def _rational_power_sum_coefficients(nu, m, flavor):
    """The power-sum coefficients in Fractions, one sigma per part of rho.

    The reference the integer kernel is checked against: the product over
    sigma^len(rho) with no merging of partial cycle types.
    """
    sigmas = [s.parts for s in partitions_of(m)]
    weights = []
    for s in partitions_of(m):
        w = Fraction(1, z_order(s))
        if flavor is PlethysmFlavor.COLUMN and (m - len(s)) % 2 == 1:
            w = -w
        weights.append(w)
    acc = {}
    for rho in partitions_of(nu.weight):
        chi = character_value(nu, rho)
        if chi == 0:
            continue
        for combo in product(range(len(sigmas)), repeat=len(rho)):
            w = Fraction(chi, z_order(rho))
            tau = []
            for r, i in zip(rho.parts, combo):
                w *= weights[i]
                tau.extend(r * x for x in sigmas[i])
            key = tuple(sorted(tau, reverse=True))
            acc[key] = acc.get(key, Fraction(0)) + w
    return {tau: c for tau, c in acc.items() if c}


def _assert_weights_match_the_reference(nu, m):
    scale = factorial(nu.weight) * factorial(m) ** nu.weight
    for flavor in PlethysmFlavor:
        got = oracle._power_sum_coefficients(nu.parts, m, flavor)
        assert all(type(w) is int for _, w in got)
        want = _rational_power_sum_coefficients(nu, m, flavor)
        assert dict(got) == {tau: c * scale for tau, c in want.items()}, (m, str(nu), flavor)


class TestPowerSumKernel:
    def test_weights_are_the_rational_coefficients_times_the_wreath_order(self):
        for m in range(1, 13):
            for n in range(12 // m + 1):
                for nu in partitions_of(n):
                    _assert_weights_match_the_reference(nu, m)

    @pytest.mark.parametrize(
        "nu, m",
        [("3,3,2", 3), ("3,2,1", 4), ("3,3", 4), ("2,2", 6), ("2,1", 8), ("2,2", 5)],
    )
    def test_weights_at_the_benchmark_plethysms(self, nu, m):
        # The plethysms whose single coefficients the coeff benchmark times,
        # at degrees 20-24, past the sweep above.
        _assert_weights_match_the_reference(P(nu), m)

    def test_off_by_one_table_value_is_caught(self):
        # Each class rho of S_3 with chi^nu(rho) != 0 adds w_rho times the
        # value at its top ribbon node; one more there is w_rho/3! more.
        nu, m, lam = P("2,1"), 2, P("4,2")
        want = multiplicity(nu, m, lam)
        mask = oracle._beads(lam.parts)
        classes = oracle._power_sum_coefficients(nu.parts, 1, ROW)
        assert [rho for rho, _ in classes] == [(1, 1, 1), (3,)]
        for rho, _ in classes:
            table = CharacterTable(6)
            assert multiplicity(nu, m, lam, table=table) == want
            held = oracle._RIBBON_CACHE[rho, m, ROW][2]
            held[mask] += 1
            try:
                with pytest.raises(InternalConsistencyError, match=r"\(4,2\)"):
                    multiplicity(nu, m, lam, table=table)
            finally:
                held[mask] -= 1


class TestMultiplicity:
    def test_unique_top_row_coefficient(self):
        for m in (2, 3, 4):
            for n in (1, 2, 3):
                if m * n <= 12:
                    assert multiplicity(Partition([n]), m, Partition([m * n])) == 1

    def test_zero_coefficient(self):
        assert multiplicity(P("1,1"), 2, P("2,2")) == 0

    def test_matches_expansion(self):
        # s_nu o s_(1) = s_nu.  Every character value of weight <= 12 is
        # computed first, so the m = 1 ROW coefficients read the nodes that
        # character_value filled, and store nothing there.
        for n in range(13):
            _fill(n)
        held = len(_memo_entries())
        assert held == sum(len(list(partitions_of(n))) ** 2 for n in range(1, 13))
        count = 0
        for m in range(1, 13):
            for n in range(1, 12 // m + 1):
                for nu in partitions_of(n):
                    for flavor in PlethysmFlavor:
                        e = plethysm_expansion(nu, m, flavor)
                        for lam in partitions_of(m * n):
                            assert multiplicity(nu, m, lam, flavor) == e[lam], (
                                str(nu), m, flavor, str(lam)
                            )
                            count += 1
        assert count == 30442
        assert len(_memo_entries()) == held

    def test_weight_mismatch(self):
        with pytest.raises(ValueError):
            multiplicity(P("2"), 2, P("3,2"))

    def test_m_equals_one_reads_the_character_values_in_both_flavors(self):
        # e_1[p_r] = h_1[p_r] = p_r, so both flavors read the (rho, 1, ROW)
        # nodes, and no (rho, 1, COLUMN) node keeps a copy of them.
        nu = P("3,3")
        for flavor in PlethysmFlavor:
            for lam in partitions_of(6):
                assert multiplicity(nu, 1, lam, flavor) == (lam == nu), (flavor, str(lam))
        assert {m for _, m, _ in oracle._RIBBON_CACHE} == {1}
        assert {flavor for _, _, flavor in oracle._RIBBON_CACHE} == {ROW}

    @pytest.mark.parametrize(
        "call",
        [
            lambda guard: plethysm_expansion(P("2,1"), 2, guard=guard),
            lambda guard: multiplicity(P("2,1"), 2, P("4,2"), guard=guard),
            lambda guard: verify(2, P("2,1"), guard=guard),
        ],
        ids=["plethysm_expansion", "multiplicity", "verify"],
    )
    def test_negative_guard_is_refused(self, call):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for guard in (-1, -5):
                with pytest.raises(ValueError, match=f"guard must be nonnegative, got {guard}"):
                    call(guard)

    def test_warns_past_guard_and_caps_at_limit(self):
        with pytest.warns(RuntimeWarning):
            assert multiplicity(Partition([6]), 3, Partition([18])) == 1
        with pytest.raises(GuardExceededError):
            multiplicity(Partition([13]), 2, Partition([26]))


class TestOmega:
    @pytest.mark.parametrize("nu,m", [("2", 2), ("2,1", 3), ("1,1,1", 2)])
    def test_examples(self, nu, m):
        assert omega_check(P(nu), m)

    def test_column_flavor_values(self):
        # omega of s_(2) o s_(2) = s_(1^4) + s_(2,2)
        e = plethysm_expansion(P("2"), 2, PlethysmFlavor.COLUMN)
        assert e.coefficients == {P("2,2"): 1, P("1,1,1,1"): 1}


class TestClassicalIdentities:
    """Closed-form decompositions known independently of either engine."""

    def test_even_row_partitions(self):
        # s_(n) o s_(2) is multiplicity-free on partitions with all parts even
        for n in range(1, 7):
            e = plethysm_expansion(Partition([n]), 2)
            want = {
                lam
                for lam in partitions_of(2 * n)
                if all(p % 2 == 0 for p in lam.parts)
            }
            assert set(e.support()) == want
            assert all(mult == 1 for _, mult in e.items())

    def test_even_column_partitions(self):
        # s_(n) o s_(1,1) is multiplicity-free on partitions with even columns
        for n in range(1, 7):
            e = plethysm_expansion(Partition([n]), 2, PlethysmFlavor.COLUMN)
            want = {
                lam
                for lam in partitions_of(2 * n)
                if all(p % 2 == 0 for p in lam.conjugate().parts)
            }
            assert set(e.support()) == want
            assert all(mult == 1 for _, mult in e.items())

    def test_two_row_decompositions(self):
        # s_(1,1) o s_(m) hits the two-row labels (2m-r, r) with r odd,
        # s_(2) o s_(m) those with r even
        for m in range(2, 7):
            anti = plethysm_expansion(P("1,1"), m, guard=2 * m)
            assert set(anti.support()) == {
                Partition([2 * m - r, r]) for r in range(1, m + 1, 2)
            }
            sym = plethysm_expansion(P("2"), m, guard=2 * m)
            assert set(sym.support()) == {
                Partition([2 * m - r, r]) if r else Partition([2 * m])
                for r in range(0, m + 1, 2)
            }
            assert all(mult == 1 for _, mult in anti.items())
            assert all(mult == 1 for _, mult in sym.items())


class TestMonomialCrossOracle:
    def test_agrees_with_power_sum_engine_up_to_degree_10(self):
        for m in range(1, 11):
            for n in range(1, 10 // m + 1):
                if m == 1 and n > 4:
                    continue  # m=1 is the identity; spot-checked below
                for nu in partitions_of(n):
                    for flavor in PlethysmFlavor:
                        assert monomial_expansion(nu, m, flavor) == plethysm_expansion(
                            nu, m, flavor
                        ), (m, str(nu), flavor)

    def test_m_equals_one_spot_checks(self):
        for nu in (P("5,3,2"), P("4,4,1,1")):
            assert monomial_expansion(nu, 1).coefficients == {nu: 1}


def _kostka(kappa: Partition, lam: Partition) -> int:
    """K_{kappa,lam} read from the plethystic counter: at m = 1 a block is one letter."""
    return monomial._plethystic_tableau_count(kappa.parts, 1, PlethysmFlavor.ROW, lam.parts)


class TestKostkaCounter:
    def test_standard_content_gives_the_dimension(self):
        for n in range(9):
            for lam in partitions_of(n):
                assert _kostka(lam, Partition([1] * n)) == dimension(lam), str(lam)

    def test_diagonal_is_one(self):
        for n in range(9):
            for lam in partitions_of(n):
                assert _kostka(lam, lam) == 1, str(lam)

    def test_zero_unless_dominant(self):
        for n in range(1, 9):
            for kappa, lam in product(partitions_of(n), repeat=2):
                if not dominates(kappa, lam):
                    assert _kostka(kappa, lam) == 0, (str(kappa), str(lam))

    def test_small_values(self):
        assert _kostka(P("3,2"), P("2,2,1")) == 2
        assert _kostka(P("2,2"), P("1,1,1,1")) == 2
