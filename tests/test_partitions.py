import random

import pytest

from foulkes.partitions import (
    DominanceRelation,
    Partition,
    _extremal_parts,
    conjugate_join,
    diagonal_hook_lengths,
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

P = parse_partition


def brute_conjugate(lam: Partition) -> Partition:
    """Independent column count over an explicit diagram."""
    cells = {(i, j) for i, row in enumerate(lam.parts) for j in range(row)}
    cols = [sum(1 for (i, jj) in cells if jj == j) for j in range(lam.part(1))]
    return Partition(cols)


class TestConstruction:
    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            Partition((1, 2))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Partition((2, 0))

    def test_parse_round_trip(self):
        assert str(P("4,2,1,1")) == "4,2,1,1"
        assert P("") == Partition()
        assert P(" 3 , 1 ") == Partition((3, 1))

    def test_lex_order_is_tuple_order(self):
        assert P("3,3,2") < P("4,2,1,1")
        assert not P("4,3,1") < P("4,3,1")
        assert P("2,1,1") < P("2,2")
        assert P("3,3") < P("3,3,1")  # proper prefix is smaller


class TestConjugate:
    def test_examples(self):
        assert P("4,2,1,1").conjugate() == P("4,2,1,1")
        assert Partition().conjugate() == Partition()
        assert P("6,1,1").conjugate() == P("3,1,1,1,1,1")

    def test_against_column_count(self):
        for n in range(9):
            for lam in partitions_of(n):
                assert lam.conjugate() == brute_conjugate(lam)

    def test_involution_weight_le_10(self):
        for n in range(11):
            for lam in partitions_of(n):
                assert lam.conjugate().conjugate() == lam

    def test_order_reversing_weight_le_10(self):
        for n in range(11):
            parts = list(partitions_of(n))
            for lam in parts:
                for mu in parts:
                    assert dominates(lam, mu) == dominates(
                        mu.conjugate(), lam.conjugate()
                    )


class TestDominance:
    def test_incomparable_pair_from_golden_example(self):
        assert (
            dominance_compare(P("4,2,1,1"), P("3,3,2"))
            is DominanceRelation.INCOMPARABLE
        )

    def test_one_row_dominates_everything(self):
        top = P("6")
        for mu in partitions_of(6):
            rel = dominance_compare(top, mu)
            assert rel in (DominanceRelation.EQUAL, DominanceRelation.STRICTLY_ABOVE)

    def test_crossing_prefix_sums(self):
        assert dominance_compare(P("4,1,1"), P("3,3")) is DominanceRelation.INCOMPARABLE

    def test_antisymmetry_exhaustive(self):
        flips = {
            DominanceRelation.STRICTLY_ABOVE: DominanceRelation.STRICTLY_BELOW,
            DominanceRelation.STRICTLY_BELOW: DominanceRelation.STRICTLY_ABOVE,
            DominanceRelation.EQUAL: DominanceRelation.EQUAL,
            DominanceRelation.INCOMPARABLE: DominanceRelation.INCOMPARABLE,
        }
        parts = list(partitions_of(7))
        for lam in parts:
            for mu in parts:
                assert dominance_compare(mu, lam) is flips[dominance_compare(lam, mu)]

    def test_unequal_weights_raise(self):
        with pytest.raises(ValueError):
            dominance_compare(P("2"), P("1"))

    def test_dominance_refines_lex_weight_le_12(self):
        for n in range(13):
            parts = list(partitions_of(n))
            for lam in parts:
                for mu in parts:
                    if dominance_compare(lam, mu) is DominanceRelation.STRICTLY_ABOVE:
                        assert lam > mu


class TestExtremalElements:
    def test_three_element_example(self):
        got = dominance_minimal_elements({P("4,2,1,1"), P("3,3,2"), P("4,3,1")})
        assert got == {P("4,2,1,1"), P("3,3,2")}

    def test_singleton_and_empty(self):
        assert dominance_minimal_elements({P("2,1")}) == {P("2,1")}
        assert dominance_minimal_elements(set()) == set()
        assert dominance_maximal_elements(set()) == set()

    def test_maximal_dual(self):
        got = dominance_maximal_elements({P("4,2,1,1"), P("3,3,2"), P("3,3,1,1")})
        assert got == {P("4,2,1,1"), P("3,3,2")}

    def test_mixed_weights_raise(self):
        with pytest.raises(ValueError):
            dominance_minimal_elements({P("2"), P("1")})
        with pytest.raises(ValueError):
            dominance_maximal_elements([P("3,1"), P("2,1"), P("3,1")])

    def test_random_sets_match_pairwise_definition(self):
        rng = random.Random(20140923)
        pools = {n: list(partitions_of(n)) for n in range(13)}
        for _ in range(400):
            pool = pools[rng.randrange(13)]
            size = rng.choice([0, 1, 2, rng.randrange(len(pool) + 1), 2 * len(pool)])
            sample = [rng.choice(pool) for _ in range(size)]  # with duplicates
            distinct = set(sample)
            minimal = {
                p
                for p in distinct
                if not any(
                    dominance_compare(p, q) is DominanceRelation.STRICTLY_ABOVE
                    for q in distinct
                )
            }
            maximal = {
                p
                for p in distinct
                if not any(
                    dominance_compare(p, q) is DominanceRelation.STRICTLY_BELOW
                    for q in distinct
                )
            }
            assert dominance_minimal_elements(sample) == minimal, sample
            assert dominance_maximal_elements(iter(sample)) == maximal, sample
            # The tuple-level core behind both filters, as the fold calls it.
            for extremal, want in ((True, minimal), (False, maximal)):
                got = _extremal_parts((p.parts for p in sample), extremal)
                assert sorted(got) == sorted(p.parts for p in want), sample


class TestConjugateJoin:
    def test_hand_example(self):
        assert conjugate_join([P("4,3,1"), P("2,1")]) == P("4,3,2,1,1")

    def test_identity_on_singleton(self):
        assert conjugate_join([P("3,1")]) == P("3,1")
        assert conjugate_join([Partition(), Partition()]) == Partition()

    def test_commutative_and_associative(self):
        parts = [P("3,1"), P("2,2"), P("4")]
        import itertools

        base = conjugate_join(parts)
        for perm in itertools.permutations(parts):
            assert conjugate_join(list(perm)) == base
        assert conjugate_join([conjugate_join(parts[:2]), parts[2]]) == base


def brute_double(alpha: Partition) -> Partition:
    """Exhaustive search for the partition with the prescribed hooks and rows."""
    r = len(alpha.parts)
    hits = [
        lam
        for lam in partitions_of(2 * alpha.weight)
        if diagonal_hook_lengths(lam) == tuple(2 * a for a in alpha.parts)
        and all(lam.part(i + 1) == alpha.parts[i] + i + 1 for i in range(r))
    ]
    assert len(hits) == 1, (alpha, hits)
    return hits[0]


class TestDoubleFromDistinct:
    def test_small_examples(self):
        assert double_from_distinct(P("2,1")) == P("3,3")
        assert double_from_distinct(P("3,1")) == P("4,3,1")

    def test_single_row_alpha(self):
        for n in range(1, 7):
            expected = Partition([n + 1] + [1] * (n - 1))
            assert double_from_distinct(Partition([n])) == expected

    def test_against_brute_search_weight_le_10(self):
        for n in range(1, 11):
            for alpha in distinct_part_partitions_of(n):
                lam = double_from_distinct(alpha)
                assert lam == brute_double(alpha)
                assert lam.weight == 2 * alpha.weight

    def test_rejects_repeated_parts(self):
        with pytest.raises(ValueError):
            double_from_distinct(P("2,2"))


class TestEnumeration:
    def test_counts(self):
        known = {0: 1, 1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11, 7: 15, 8: 22, 12: 77}
        for n, expected in known.items():
            assert len(list(partitions_of(n))) == expected

    def test_descending_lex_order(self):
        for n in range(10):
            out = list(partitions_of(n))
            assert out == sorted(out, reverse=True)
            assert len(set(out)) == len(out)

    def test_distinct_parts(self):
        assert list(distinct_part_partitions_of(4)) == [P("4"), P("3,1")]
        for n in range(26):
            strict = [p for p in partitions_of(n) if len(set(p.parts)) == len(p.parts)]
            assert list(distinct_part_partitions_of(n)) == strict

    def test_partitions_of_zero(self):
        assert list(partitions_of(0)) == [Partition()]


class TestHooks:
    def test_diagonal_hooks(self):
        assert diagonal_hook_lengths(P("3,3")) == (4, 2)
        assert diagonal_hook_lengths(P("4,3,1")) == (6, 2)
        assert diagonal_hook_lengths(Partition()) == ()

    def test_dimensions(self):
        assert dimension(P("2,1")) == 2
        assert dimension(P("3")) == 1
        assert dimension(P("1,1,1")) == 1
        assert dimension(P("2,2")) == 2
        # consistency: dimensions over a degree square-sum to n!
        from math import factorial

        for n in range(1, 8):
            assert sum(dimension(l) ** 2 for l in partitions_of(n)) == factorial(n)
