import random
import subprocess
import sys
from itertools import accumulate
from operator import ge

import pytest

from foulkes.partitions import (
    DominanceRelation,
    Partition,
    _packed_maxima,
    _packer,
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

    @pytest.mark.parametrize(
        "parts, fault",
        [
            ((1, 2), "weakly decreasing"),
            ((2, 0), "positive"),
            ((2, -1), "positive"),
            ((1, 2, 0), "weakly decreasing"),
            ((3, 1, 0, 2), "positive"),
        ],
    )
    def test_first_offending_part_names_the_fault(self, parts, fault):
        with pytest.raises(ValueError) as info:
            Partition(parts)
        assert str(info.value) == f"partition parts must be {fault}: {parts}"

    def test_parse_round_trip(self):
        assert str(P("4,2,1,1")) == "4,2,1,1"
        assert P("") == Partition()
        assert P(" 3 , 1 ") == Partition((3, 1))

    @pytest.mark.parametrize(
        "text, part", [("2,,1", ""), ("a", "a"), ("2.5", "2.5"), ("1e3", "1e3"), (" 3, x ", " x")]
    )
    def test_parse_names_the_part_that_is_not_an_integer(self, text, part):
        with pytest.raises(ValueError) as info:
            P(text)
        want = f"partition {text.strip()!r} has a part that is not an integer: {part!r}"
        assert str(info.value) == want

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
        for n in range(17):
            for lam in partitions_of(n):
                assert lam.conjugate() == brute_conjugate(lam)
        for lam in (Partition((40, 1)), Partition((1,) * 40)):
            assert lam.conjugate() == brute_conjugate(lam)

    def test_part_too_large_to_hold_fails_at_once(self):
        # In a child process with its address space capped, so that a
        # conjugate that walked the columns one by one would fail, not hang
        # this process or fill the machine's memory.
        code = (
            "import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 31, 1 << 31))\n"
            "from foulkes.partitions import Partition\n"
            "try:\n"
            "    Partition((10**20,)).conjugate()\n"
            "except (OverflowError, MemoryError) as exc:\n"
            "    print(type(exc).__name__)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=20
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() in ("OverflowError", "MemoryError")

    def test_involution_weight_le_10(self):
        for n in range(11):
            for lam in partitions_of(n):
                assert lam.conjugate().conjugate() == lam

    def test_conjugates_are_checked_partitions_weight_le_12(self):
        # conjugate builds its result unchecked: it must equal the checked
        # partition of its parts, weight included, and conjugate back to lam.
        for n in range(13):
            for lam in partitions_of(n):
                conj = lam.conjugate()
                rebuilt = Partition(conj.parts)
                assert (conj.parts, conj.weight) == (rebuilt.parts, rebuilt.weight), str(lam)
                assert conj.conjugate() is lam, str(lam)

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
            _check_extremes([rng.choice(pool) for _ in range(size)])  # with duplicates

    @pytest.mark.parametrize("weight", [63, 64, 127, 128, 255, 256])
    def test_random_sets_at_field_width_edges(self, weight):
        # The filters pack prefix sums into fields of weight.bit_length() + 1
        # bits, so a weight of 2^k - 1 or 2^k sits at a field width's edge.
        # Sets of short and of long partitions: a random partition and its
        # neighbours a few box moves away, some above it, some below it and
        # some incomparable, duplicates included.
        rng = random.Random(weight)
        for longest in (4, weight):
            for _ in range(4):
                base = _random_partition(rng, weight, rng.randint(1, longest))
                sample = [base, base]
                for _ in range(24):
                    lam = base
                    for _ in range(rng.randint(1, 3)):
                        lam = _move_box(rng, lam)
                    sample += [lam] * rng.randint(1, 2)
                _check_extremes(sample)

    def test_empty_single_and_weight_zero_sets(self):
        for sample in ([], [P("255,1")], [Partition()], [Partition(), Partition()]):
            _check_extremes(sample)
        empty = {Partition()}
        assert dominance_minimal_elements(empty) == dominance_maximal_elements(empty) == empty
        assert dominance_minimal_elements([]) == dominance_maximal_elements([]) == set()


class TestPackedMaxima:
    """The maxima kernel against the pairwise definition, on vectors packed
    by ``_packer``: the same kept keys, in the same (descending) order."""

    @staticmethod
    def check(vectors, width: int, weight: int) -> list[int]:
        pack, guards, total_mask = _packer(width, weight)
        sums = {pack(v): tuple(accumulate(v + (0,) * (width - len(v)))) for v in vectors}
        want = [
            key
            for key in sorted(sums, reverse=True)
            if not any(q != key and all(map(ge, sums[q], sums[key])) for q in sums)
        ]
        assert _packed_maxima(iter(sums), guards, total_mask) == want, vectors
        return want

    @staticmethod
    def random_vector(rng, width: int, weight: int) -> tuple[int, ...]:
        """At most ``width`` entries of total at most ``weight``; each entry is
        often 0 or all that is left, so prefix sums sit at 0 and at weight."""
        left = rng.choice([0, weight, rng.randint(0, weight)])
        v = []
        for _ in range(rng.randint(0, width)):
            x = rng.choice([0, left, rng.randint(0, left)])
            v.append(x)
            left -= x
        return tuple(v)

    @staticmethod
    def lowered(rng, v: tuple[int, ...], width: int) -> tuple[int, ...]:
        """v with one unit moved to a later entry: every prefix sum weakly
        below v's, so v beats it, and it sorts just below v."""
        v = list(v) + [0] * (width - len(v))
        i = rng.choice([i for i, x in enumerate(v[:-1]) if x])
        v[i] -= 1
        v[rng.randrange(i + 1, width)] += 1
        return tuple(v)

    # 2^k - 1 is the largest value below a field's guard bit, so weight
    # sums reach it; 2^k is the first weight of a wider field.
    @pytest.mark.parametrize("width", range(1, 9))
    @pytest.mark.parametrize("weight", [1, 3, 7, 8, 63, 64, 255])
    def test_random_vectors_match_pairwise_definition(self, width, weight):
        rng = random.Random(width * 1000 + weight)
        for _ in range(4):
            self.check([self.random_vector(rng, width, weight) for _ in range(40)], width, weight)
        self.check([(), (weight,), (0,) * (width - 1) + (weight,)], width, weight)

    @pytest.mark.parametrize("width", range(2, 9))
    def test_one_kept_key_beats_a_run_of_candidates(self, width):
        # A few leaders, each followed in int order by candidates it beats:
        # the kept key that beat the last candidate is tried first.
        rng = random.Random(width)
        weight = 15
        for _ in range(8):
            vectors = []
            for _ in range(rng.randint(1, 4)):
                top = (weight,) if rng.random() < 0.3 else self.random_vector(rng, width, weight)
                if any(top[: width - 1]):  # a unit that can move to a later entry
                    vectors += [top] + [self.lowered(rng, top, width) for _ in range(6)]
            kept = self.check(vectors, width, weight)
            if len(vectors) == 7:  # one leader: it alone is kept
                assert kept == [_packer(width, weight)[0](vectors[0])]

    def test_empty_and_single(self):
        pack, guards, total_mask = _packer(3, 5)
        assert _packed_maxima([], guards, total_mask) == []
        assert _packed_maxima([pack((2, 2))], guards, total_mask) == [pack((2, 2))]


def _random_partition(rng, n: int, length: int) -> Partition:
    """A random partition of n with at most ``length`` parts."""
    cuts = sorted(rng.sample(range(1, n), min(length, n) - 1))
    return Partition(sorted((b - a for a, b in zip([0] + cuts, cuts + [n])), reverse=True))


def _move_box(rng, lam: Partition) -> Partition:
    """lam with one box moved to another row (or a new one): a lower row
    gives a partition that lam dominates, a higher row one that dominates lam."""
    parts = list(lam.parts) + [0]
    i, j = rng.sample(range(len(parts)), 2)
    if not parts[i]:
        i, j = j, i
    parts[i] -= 1
    parts[j] += 1
    return Partition(sorted((p for p in parts if p), reverse=True))


def _check_extremes(sample: list[Partition]) -> None:
    """Both filters against the pairwise definition."""
    distinct = set(sample)
    minimal = {
        p
        for p in distinct
        if not any(dominance_compare(p, q) is DominanceRelation.STRICTLY_ABOVE for q in distinct)
    }
    maximal = {
        p
        for p in distinct
        if not any(dominance_compare(p, q) is DominanceRelation.STRICTLY_BELOW for q in distinct)
    }
    assert dominance_minimal_elements(sample) == minimal, sample
    assert dominance_maximal_elements(iter(sample)) == maximal, sample


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
