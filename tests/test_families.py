import itertools
import pickle
import random

import pytest

from foulkes import clear_caches
from foulkes.families import (
    BlockKind,
    Family,
    FamilyTuple,
    _colex_bounded,
    _ground_top,
    _upper_covers,
    _vector,
    closure,
    colex_initial_segment,
    colex_key,
    down_set_family,
    enumerate_closed_families,
    enumerate_minimal_tuple_types,
    family_type,
    is_closed,
    is_minimal_tuple,
    lower_covers,
    majorizes,
    occurrence_counts,
    tuple_closure,
    tuple_from_json,
    tuple_is_closed,
    tuple_to_json,
    tuple_type,
)
from foulkes.partitions import (
    Partition,
    dominance_minimal_elements,
    dominates,
    parse_partition,
)

P = parse_partition
SET = BlockKind.SET
MULTI = BlockKind.MULTISET


def _bounded_blocks(m, n, kind):
    return tuple(_colex_bounded(m, _ground_top(m, n, kind), kind))


class TestBlocks:
    def test_majorizes_examples(self):
        assert majorizes((1, 3), (2, 4))
        assert not majorizes((2, 3), (1, 5))
        assert not majorizes((1, 5), (2, 3))
        assert majorizes((1, 1), (1, 1))

    def test_majorizes_size_mismatch(self):
        with pytest.raises(ValueError):
            majorizes((1, 2), (1, 2, 3))

    def test_set_block_validation(self):
        with pytest.raises(ValueError):
            Family(2, SET, [(1, 1)])
        with pytest.raises(ValueError):
            Family(2, SET, [(0, 1)])
        with pytest.raises(ValueError):
            Family(2, SET, [(1, 2), (2, 1)])  # duplicates after sorting

    def test_decrement_moves_generate_majorization(self):
        # transitive closure of single decrements == the majorization order
        for kind, blocks in (
            (SET, _bounded_blocks(2, 5, SET)),
            (SET, _bounded_blocks(3, 4, SET)),
            (MULTI, _bounded_blocks(2, 5, MULTI)),
            (MULTI, _bounded_blocks(3, 4, MULTI)),
        ):
            universe = set(blocks)
            for b in blocks:
                reach = {b}
                frontier = [b]
                while frontier:
                    cur = frontier.pop()
                    for c in lower_covers(cur, kind):
                        if c not in reach:
                            reach.add(c)
                            frontier.append(c)
                below = {a for a in universe if majorizes(a, b)}
                assert reach == below, (kind, b)

    def test_upper_covers_invert_lower_covers(self):
        for kind in (SET, MULTI):
            for m in range(1, 5):
                for b in _bounded_blocks(m, 6, kind):
                    ups = _upper_covers(b, kind)
                    assert len(set(ups)) == len(ups)
                    assert all(b in lower_covers(u, kind) for u in ups), (kind, b)
                    assert all(b in _upper_covers(c, kind) for c in lower_covers(b, kind))

    def test_colex_extends_majorization(self):
        for kind in (SET, MULTI):
            blocks = _bounded_blocks(3, 5, kind)
            for a, b in itertools.combinations(blocks, 2):
                if majorizes(a, b) and a != b:
                    assert colex_key(a) < colex_key(b)


def brute_is_closed(fam: Family) -> bool:
    blocks = set(fam.blocks)
    top = max((b[-1] for b in fam.blocks), default=0)
    if fam.kind is SET:
        universe = itertools.combinations(range(1, top + 1), fam.m)
    else:
        universe = itertools.combinations_with_replacement(range(1, top + 1), fam.m)
    for a in universe:
        if a in blocks:
            continue
        if any(majorizes(a, b) for b in blocks):
            return False
    return True


class TestClosedness:
    def test_examples(self):
        assert is_closed(Family(2, SET, [(1, 2), (1, 3), (1, 4)]))
        assert not is_closed(Family(2, SET, [(2, 4)]))
        ideal = down_set_family(2, SET, [(2, 4)])
        assert ideal == Family(2, SET, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)])
        assert is_closed(ideal)

    def test_matches_brute_force(self):
        rng = random.Random(7)
        for kind in (SET, MULTI):
            for m in (2, 3):
                blocks = _bounded_blocks(m, 5, kind)
                for _ in range(300):
                    n = rng.randint(1, 5)
                    fam = Family(m, kind, rng.sample(blocks, n))
                    assert is_closed(fam) == brute_is_closed(fam)


class TestClosure:
    def test_single_block_trace(self):
        # {2,4} -> {1,4} -> {1,3} -> {1,2}
        assert closure(Family(2, SET, [(2, 4)])) == Family(2, SET, [(1, 2)])

    def test_fixed_point(self):
        fam = Family(2, SET, [(1, 2), (1, 3), (2, 3)])
        assert closure(fam) == fam

    def test_multiset_example(self):
        got = closure(Family(2, MULTI, [(1, 1), (2, 2)]))
        assert got == Family(2, MULTI, [(1, 1), (1, 2)])

    def test_random_families_weakly_decrease_type(self):
        rng = random.Random(2024)
        for _ in range(400):
            kind = rng.choice((SET, MULTI))
            m = rng.randint(1, 3)
            n = rng.randint(1, 6)
            blocks = _bounded_blocks(m, n + 2, kind)
            fam = Family(m, kind, rng.sample(blocks, min(n, len(blocks))))
            closed = closure(fam)
            assert is_closed(closed)
            assert closed.size == fam.size
            before = family_type(fam)
            after = family_type(closed)
            assert after is not None
            if before is not None:
                assert dominates(before, after)


class TestTypes:
    def test_golden_set_tuple(self):
        t = FamilyTuple(
            [Family(2, SET, [(1, 2), (1, 3), (1, 4)]), Family(2, SET, [(1, 2)])]
        )
        assert tuple_type(t) == P("4,2,1,1")

    def test_golden_multiset_tuple(self):
        t = FamilyTuple(
            [Family(2, MULTI, [(1, 1), (1, 2), (1, 3)]), Family(2, MULTI, [(1, 1)])]
        )
        ty = tuple_type(t)
        assert ty == P("3,1,1,1,1,1")
        assert ty.conjugate() == P("6,1,1")

    def test_undefined_type(self):
        assert tuple_type(FamilyTuple([Family(2, SET, [(2, 3)])])) is None

    def test_occurrence_counts_sum(self):
        from foulkes.families import occurrence_counts

        def reference(families):
            # a plain dict count and the conjugate of the dense count vector
            counts = {}
            for fam in families:
                for block in fam.blocks:
                    for x in block:
                        counts[x] = counts.get(x, 0) + 1
            seq = [counts.get(i, 0) for i in range(1, max(counts, default=0) + 1)]
            if any(a < b for a, b in zip(seq, seq[1:])):
                return counts, None
            cols = [sum(1 for c in seq if c >= j) for j in range(1, (seq or [0])[0] + 1)]
            return counts, Partition(cols)

        closed = [
            FamilyTuple([fam])
            for kind in (SET, MULTI)
            for m in range(1, 5)
            for n in range(0, 9)
            for fam in enumerate_closed_families(m, n, kind)
        ]
        rng = random.Random(5)
        drawn = []
        for _ in range(300):
            kind = rng.choice((SET, MULTI))
            m = rng.randint(1, 3)
            fams = []
            for _ in range(rng.randint(1, 3)):
                pool = _bounded_blocks(m, 6, kind)
                fams.append(Family(m, kind, rng.sample(pool, rng.randint(1, 4))))
            drawn.append(FamilyTuple(fams))
        assert sum(not is_closed(f) for t in drawn for f in t.families) > 300
        for t in closed + drawn:
            want_counts, want_type = reference(t.families)
            counts = occurrence_counts(t)
            assert counts == want_counts
            assert sum(counts.values()) == t.m * sum(t.shapes)
            assert tuple_type(t) == want_type, t
            if len(t.families) == 1:
                assert occurrence_counts(t.families[0]) == want_counts
                assert family_type(t.families[0]) == want_type

    def test_huge_element_has_no_type_at_once(self):
        # a type needs every value up to the largest element to occur, so a
        # block holding 10**20 is refused before any count vector is built
        fam = Family(2, SET, [(1, 10**20)])
        assert family_type(fam) is None
        assert tuple_type(FamilyTuple([fam, fam])) is None
        with pytest.raises(ValueError):
            is_minimal_tuple(FamilyTuple([fam]))

    def test_size_bound_is_over_the_whole_tuple(self):
        # {(1,5)} alone has no type, but with all 2-subsets of {1,..,4} the
        # counts are 4,3,3,3,1
        lone = Family(2, SET, [(1, 5)])
        assert family_type(lone) is None
        pairs = Family(2, SET, itertools.combinations(range(1, 5), 2))
        assert tuple_type(FamilyTuple([lone, pairs])) == P("5,4,4,1")
        assert tuple_type(FamilyTuple([pairs, lone])) == P("5,4,4,1")

    def test_pickle_round_trip_keeps_the_type(self):
        fam = Family(2, SET, [(1, 2), (1, 3)])
        # pickled with protocol 4 by a version whose families held no count vector
        older = (
            b"\x80\x04\x95h\x00\x00\x00\x00\x00\x00\x00\x8c\x10foulkes.families\x94"
            b"\x8c\x06Family\x94\x93\x94)\x81\x94N}\x94(\x8c\x01m\x94K\x02\x8c\x04kind"
            b"\x94h\x00\x8c\tBlockKind\x94\x93\x94\x8c\x03set\x94\x85\x94R\x94\x8c\x06"
            b"blocks\x94K\x01K\x02\x86\x94K\x01K\x03\x86\x94\x86\x94u\x86\x94b."
        )
        assert pickle.dumps(fam, protocol=4) == older
        assert family_type(fam) == P("3,1")
        for data in (older, pickle.dumps(fam)):
            copy = pickle.loads(data)
            assert copy == fam and hash(copy) == hash(fam) and repr(copy) == repr(fam)
            assert family_type(copy) == P("3,1")

    def test_search_carries_the_dense_counts(self):
        # The memos start cold, so each vector was set by the search and not by _vector.
        for kind in (SET, MULTI):
            for m in range(1, 5):
                for n in range(9):
                    for fam in enumerate_closed_families(m, n, kind):
                        counts = occurrence_counts(fam)
                        dense = tuple(counts[x] for x in range(1, max(counts, default=0) + 1))
                        if n:
                            assert fam._counts == dense, fam
                        assert _vector(fam) == dense, fam

    def test_searched_family_pickles_with_its_type(self):
        for kind in (SET, MULTI):
            for fam in enumerate_closed_families(3, 5, kind):
                copy = pickle.loads(pickle.dumps(fam))
                assert copy == fam and _vector(copy) == _vector(fam)
                assert family_type(copy) == family_type(fam)

    def test_closed_families_always_have_types(self):
        for kind in (SET, MULTI):
            for m in (1, 2, 3):
                for n in range(0, 5):
                    for fam in enumerate_closed_families(m, n, kind):
                        if n:
                            assert family_type(fam) is not None


class TestEnumeration:
    def test_unique_small_set_family(self):
        assert list(enumerate_closed_families(2, 2, SET)) == [
            Family(2, SET, [(1, 2), (1, 3)])
        ]

    def test_shape_2_4_contains_example(self):
        fams = list(enumerate_closed_families(2, 4, SET))
        assert Family(2, SET, [(1, 2), (1, 3), (1, 4), (2, 3)]) in fams

    def test_empty_shape(self):
        for kind in (SET, MULTI):
            assert list(enumerate_closed_families(3, 0, kind)) == [Family(3, kind, [])]

    def test_matches_brute_force_filter(self):
        # all n-subsets of the bounded block poset containing the bottom block
        for kind in (SET, MULTI):
            for m in (2, 3):
                for n in range(1, 6):
                    blocks = _bounded_blocks(m, n, kind)
                    bottom = blocks[0]
                    brute = {
                        Family(m, kind, (bottom,) + rest)
                        for rest in itertools.combinations(blocks[1:], n - 1)
                        if is_closed(Family(m, kind, (bottom,) + rest))
                    }
                    got = set(enumerate_closed_families(m, n, kind))
                    assert got == brute, (kind, m, n)

    @staticmethod
    def _scan_search(m, n, kind):
        """The earlier search: at every depth, scan every bounded block past
        the last one added and take those whose lower covers are all chosen."""
        if n == 0:
            return [Family(m, kind, [])]
        blocks = _bounded_blocks(m, n, kind)
        out, chosen = [], []

        def extend(start):
            if len(chosen) == n:
                out.append(Family(m, kind, chosen))
                return
            for idx in range(start, len(blocks)):
                b = blocks[idx]
                if all(c in chosen for c in lower_covers(b, kind)):
                    chosen.append(b)
                    extend(idx + 1)
                    chosen.pop()

        extend(0)
        return out

    @pytest.mark.parametrize("kind", [SET, MULTI])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_order_matches_scan_search(self, m, kind):
        for n in range(0, 8):
            want = self._scan_search(m, n, kind)
            assert list(enumerate_closed_families(m, n, kind)) == want, (m, n)

    def test_family_types_are_pairwise_incomparable(self):
        # Observed, not proved, and not used by the engine: closed families of
        # one shape have distinct, dominance-incomparable types, for sets in
        # every case probed and for multisets up to the first failure at m=4,
        # n=10, where 35 families have 35 types and 34 of them are minimal.
        for kind in (SET, MULTI):
            for m in (2, 3, 4):
                for n in range(1, 11):
                    types = [family_type(f) for f in enumerate_closed_families(m, n, kind)]
                    sizes = (len(types), len(set(types)), len(dominance_minimal_elements(types)))
                    want = (35, 35, 34) if (kind, m, n) == (MULTI, 4, 10) else (len(types),) * 3
                    assert sizes == want, (kind, m, n)

    def test_count_at_former_cliff(self):
        assert sum(1 for _ in enumerate_closed_families(4, 20, SET)) == 1068

    def test_search_families_equal_validated_families(self):
        # The search builds its families without validation or the colex
        # sort, so both must leave its blocks unchanged.
        for kind in (SET, MULTI):
            for m in range(1, 5):
                for n in range(0, 11):
                    for fam in enumerate_closed_families(m, n, kind):
                        checked = Family(m, kind, fam.blocks)
                        assert fam == checked and hash(fam) == hash(checked), (kind, m, n)
                        assert type(fam.blocks) is tuple and fam.blocks == checked.blocks
                        assert all(type(b) is tuple for b in fam.blocks)


class TestMinimalTuples:
    def test_golden_example_set(self):
        got = enumerate_minimal_tuple_types(2, (3, 1), SET)
        assert set(got) == {P("4,2,1,1"), P("3,3,2")}
        assert got[P("4,2,1,1")] == FamilyTuple(
            [Family(2, SET, [(1, 2), (1, 3), (1, 4)]), Family(2, SET, [(1, 2)])]
        )
        assert got[P("3,3,2")] == FamilyTuple(
            [Family(2, SET, [(1, 2), (1, 3), (2, 3)]), Family(2, SET, [(1, 2)])]
        )

    def test_golden_example_multiset(self):
        got = enumerate_minimal_tuple_types(2, (3, 1), MULTI)
        assert set(got) == {P("3,1,1,1,1,1"), P("2,2,2,1,1")}
        assert {ty.conjugate() for ty in got} == {P("6,1,1"), P("5,3")}

    def test_single_block_components(self):
        for m in (1, 2, 3, 4):
            got = enumerate_minimal_tuple_types(m, (1,), SET)
            assert set(got) == {Partition([m])}
            witness = got[Partition([m])]
            assert witness.families[0].blocks == (tuple(range(1, m + 1)),)

    def test_witnesses_are_closed_and_minimal(self):
        for kind in (SET, MULTI):
            for shapes in ((3,), (2, 2), (3, 1), (2, 1, 1)):
                for ty, witness in enumerate_minimal_tuple_types(2, shapes, kind).items():
                    assert tuple_is_closed(witness)
                    assert tuple_type(witness) == ty
                    assert is_minimal_tuple(witness)


class TestMinimalTupleFold:
    @staticmethod
    def _brute_force(m, shapes, kind):
        """Every tuple of closed families, the lexicographically least witness
        per type, and the types that strictly dominate no other type."""
        best = {}
        for combo in itertools.product(
            *(enumerate_closed_families(m, nj, kind) for nj in shapes)
        ):
            t = FamilyTuple(combo)
            ty = tuple_type(t)
            key = [f.blocks for f in combo]
            if ty not in best or key < best[ty][0]:
                best[ty] = (key, t)
        minimal = [
            ty
            for ty in best
            if not any(other != ty and dominates(ty, other) for other in best)
        ]
        return [(ty, best[ty][1]) for ty in sorted(minimal, reverse=True)]

    @pytest.mark.parametrize("kind", [SET, MULTI])
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize(
        "shapes",
        [(1,), (4,), (6,), (2, 1), (3, 3), (4, 2), (5, 3), (2, 2, 1), (3, 2, 2), (3, 3, 3)],
    )
    def test_matches_cartesian_product(self, m, shapes, kind):
        got = enumerate_minimal_tuple_types(m, shapes, kind)
        assert list(got.items()) == self._brute_force(m, shapes, kind)

    @pytest.mark.parametrize("kind", [SET, MULTI])
    @pytest.mark.parametrize("m", [2, 3])
    def test_fold_does_not_depend_on_memo_state(self, m, kind):
        # Shapes sharing prefixes, folded from cold memos in both orders.
        order = [(3, 3), (3, 3, 3), (3, 3, 2)]
        want = {shapes: self._brute_force(m, shapes, kind) for shapes in order}
        for shapes_order in (order, order[::-1]):
            clear_caches()
            for shapes in shapes_order:
                got = enumerate_minimal_tuple_types(m, shapes, kind)
                assert list(got.items()) == want[shapes]
            for shapes in shapes_order:
                minimal = {ty for ty, _ in want[shapes]}
                families = (enumerate_closed_families(m, nj, kind) for nj in shapes)
                for combo in itertools.product(*families):
                    t = FamilyTuple(combo)
                    assert is_minimal_tuple(t) == (tuple_type(t) in minimal), t

    @pytest.mark.parametrize("kind", [SET, MULTI])
    def test_deep_shape_tuple_is_folded_without_recursion(self, kind):
        # 1500 one-block components: the fold walks them one at a time.
        got = enumerate_minimal_tuple_types(3, (1,) * 1500, kind)
        block = (1, 2, 3) if kind is SET else (1, 1, 1)
        ty = Partition((3,) * 1500) if kind is SET else Partition((1,) * 4500)
        assert list(got) == [ty]
        assert got[ty] == FamilyTuple([Family(3, kind, [block])] * 1500)

    @pytest.mark.parametrize("shapes", [(11,), (11, 1)])
    def test_equal_types_keep_the_least_family(self, shapes):
        # Two closed multiset families of shape (4^11) share a minimal type,
        # and the search meets the lexicographically larger one first.
        got = enumerate_minimal_tuple_types(4, shapes, MULTI)
        assert list(got.items()) == self._brute_force(4, shapes, MULTI)


class TestIsMinimalTuple:
    def test_closed_but_not_minimal(self):
        p1 = down_set_family(2, SET, [(2, 4)])
        p2 = down_set_family(2, SET, [(1, 5)])
        t = FamilyTuple([p1, p2])
        assert tuple_is_closed(t)
        assert tuple_type(t) == P("5,4,4,2,1,1,1")
        assert not is_minimal_tuple(t)

    def test_golden_tuple_is_minimal(self):
        t = FamilyTuple(
            [Family(2, SET, [(1, 2), (1, 3), (1, 4)]), Family(2, SET, [(1, 2)])]
        )
        assert is_minimal_tuple(t)

    def test_undefined_type_raises(self):
        with pytest.raises(ValueError):
            is_minimal_tuple(FamilyTuple([Family(2, SET, [(2, 3)])]))

    @staticmethod
    def _strictly_dominates(a, b):
        """Prefix sums of a are >= those of b, and a != b (equal weights)."""
        sa = sb = 0
        for i in range(max(len(a), len(b))):
            sa += a.part(i + 1)
            sb += b.part(i + 1)
            if sa < sb:
                return False
        return a != b

    @pytest.mark.parametrize("kind", [SET, MULTI])
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("shapes", [(1,), (2,), (3,), (2, 1), (2, 2), (3, 1)])
    def test_matches_brute_force_definition(self, m, shapes, kind):
        # Every tuple of these shapes, closed or not, over the ground set of
        # the largest component.  A tuple outside it closes to one inside it
        # of weakly lower type, so these types decide minimality.
        pool = _bounded_blocks(m, max(shapes), kind)
        components = [
            [Family(m, kind, c) for c in itertools.combinations(pool, nj)] for nj in shapes
        ]
        typed = []
        for combo in itertools.product(*components):
            t = FamilyTuple(combo)
            ty = tuple_type(t)
            if ty is not None:
                typed.append((t, ty))
        types = {ty for _, ty in typed}
        for t, ty in typed:
            want = not any(self._strictly_dominates(ty, other) for other in types)
            assert is_minimal_tuple(t) == want, t

    def test_empty_components_contribute_nothing(self):
        empty = Family(2, SET, [])
        assert is_minimal_tuple(FamilyTuple([empty]))
        assert is_minimal_tuple(FamilyTuple([empty, empty]))
        golden = [Family(2, SET, [(1, 2), (1, 3), (1, 4)]), Family(2, SET, [(1, 2)])]
        assert is_minimal_tuple(FamilyTuple([empty, *golden]))
        closed_not_minimal = [
            down_set_family(2, SET, [(2, 4)]),
            down_set_family(2, SET, [(1, 5)]),
        ]
        assert not is_minimal_tuple(FamilyTuple([*closed_not_minimal, empty]))


class TestColexSegments:
    def test_examples(self):
        assert colex_initial_segment(2, 4, SET) == Family(
            2, SET, [(1, 2), (1, 3), (2, 3), (1, 4)]
        )
        assert colex_initial_segment(3, 4, SET) == Family(
            3, SET, [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]
        )
        assert colex_initial_segment(2, 1, MULTI) == Family(2, MULTI, [(1, 1)])

    def test_segment_type_of_2_4(self):
        assert family_type(colex_initial_segment(2, 4, SET)) == P("4,3,1")

    def test_segments_are_closed_with_lex_least_type(self):
        for kind in (SET, MULTI):
            for m in (1, 2, 3):
                for n in range(1, 7):
                    seg = colex_initial_segment(m, n, kind)
                    assert is_closed(seg)
                    seg_type = family_type(seg)
                    all_types = {
                        family_type(f) for f in enumerate_closed_families(m, n, kind)
                    }
                    assert seg_type == min(all_types)

    def test_matches_sorted_combinations(self):
        import itertools as it

        blocks = sorted(it.combinations(range(1, 9), 3), key=colex_key)[:12]
        assert colex_initial_segment(3, 12, SET) == Family(3, SET, blocks)

    def test_blocks_match_sorted_combinations(self):
        for kind, choose in (
            (SET, itertools.combinations),
            (MULTI, itertools.combinations_with_replacement),
        ):
            for k in range(6):
                for top in range(10):
                    expected = sorted(choose(range(1, top + 1), k), key=colex_key)
                    assert list(_colex_bounded(k, top, kind)) == expected, (kind, k, top)

    def test_a_wide_block(self):
        # one block of 1200 elements: no recursion per element
        assert colex_initial_segment(1200, 1, SET).blocks == (tuple(range(1, 1201)),)
        assert colex_initial_segment(1200, 2, MULTI).blocks == ((1,) * 1200, (1,) * 1199 + (2,))


class TestJson:
    def test_round_trip(self):
        t = FamilyTuple(
            [Family(2, SET, [(1, 2), (1, 3), (1, 4)]), Family(2, SET, [(1, 2)])]
        )
        data = tuple_to_json(t)
        assert data == {
            "m": 2,
            "kind": "set",
            "families": [[[1, 2], [1, 3], [1, 4]], [[1, 2]]],
        }
        assert tuple_from_json(data) == t

    def test_closure_tuple(self):
        t = FamilyTuple([Family(2, SET, [(2, 4)]), Family(2, SET, [(1, 3)])])
        closed = tuple_closure(t)
        assert tuple_is_closed(closed)
        assert closed.shapes == t.shapes
