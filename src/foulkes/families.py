"""Families of m-subsets and m-multisets under majorization.

A block is a sorted tuple of ``m`` positive integers, strictly increasing for
set blocks.  ``B`` majorizes ``A`` (written ``A <= B`` here) when the r-th
smallest element of ``A`` is at most the r-th smallest element of ``B`` for
every ``r``.  A family is *closed* when it is a down-set (order ideal) for
majorization, and the covering moves of the order are the single decrements
``i+1 -> i`` inside one block that yield a valid block.

Ground-set bound, never left by the closed-family search: a closed family of
``n`` blocks containing a block with maximum element ``x`` already contains
the blocks ``{1,..,m-1,y}`` for ``m <= y <= x`` (sets), respectively
``{1,..,1,y}`` for ``1 <= y <= x`` (multisets), so ``x <= m + n - 1``
(sets) or ``x <= n`` (multisets).

Shift bijection: raising the i-th smallest element of a multiset block by
``i`` (``i = 0, .., m-1``) gives a set block, and every set block arises
once.  Both blocks of a pair are raised by the same vector, so the map keeps
majorization (elementwise), its covers (a decrement at position r is valid
for the multiset exactly when it is for the set: ``a_r - 1 >= a_{r-1}``
becomes ``a_r + r - 1 > a_{r-1} + r - 1``) and colex order (the largest
differing position decides by the same margin).  So it maps the closed
multiset families of shape (m^n) onto the closed set families, in the same
search order, and the two ground-set bounds differ by its largest shift:
``m + n - 1 = n + (m - 1)``.

Cone correspondence: subtracting 1 from each element of a multiset block
and reversing the order gives a point ``x_1 >= .. >= x_m >= 0`` of the cone
C_m in N^m (a partition of at most m parts).  Majorization becomes the
componentwise order, an upper cover adds 1 to one coordinate, and colex
order becomes lex order, so the closed multiset families of n blocks are
the order ideals of n points of C_m; through the shift, so are the set
families.  At m = 2 these are the shifted diagrams, q(n) of them.  A
checked observation, not a theorem (tested for n <= 40 and n = 60): the
cell (i, j) of the shifted diagram of a strict partition alpha of n gives
the multiset block {i, j} (set block {i, j+1}), and the family's type is
``double_from_distinct(alpha)`` for sets and its conjugate for multisets.

Search order: the search adds blocks in colex order, so a node of depth k
is a colex-increasing sequence of k blocks, and it visits the children of
a node in the colex order of the block added.  Its pre-order restricted to
depth k is therefore the lexicographic order of these sequences, compared
by colex index, whatever depth the search goes on to.  An ideal of k < n
blocks grows to n blocks one block at a time, each time adding {1,..,1,x+1}
for its largest element x, so a search to n passes the closed families of
every k < n in the order a search to k lists them: they are the distinct
k-block prefixes of its families, in order (see ``_cut``).
"""

from __future__ import annotations

import itertools
from bisect import insort
from collections import Counter
from enum import Enum
from functools import reduce
from operator import add, attrgetter, ge, itemgetter
from typing import Iterable, Iterator, Mapping, Sequence

from .partitions import Partition, _add_vectors, _conjugate_parts, _packed_maxima, _packer

__all__ = [
    "BlockKind",
    "Block",
    "Family",
    "FamilyTuple",
    "validate_block",
    "majorizes",
    "lower_covers",
    "colex_key",
    "is_closed",
    "tuple_is_closed",
    "closure",
    "tuple_closure",
    "occurrence_counts",
    "family_type",
    "tuple_type",
    "enumerate_closed_families",
    "enumerate_minimal_tuple_types",
    "is_minimal_tuple",
    "colex_initial_segment",
    "down_set_family",
    "tuple_to_json",
    "tuple_from_json",
]

Block = tuple[int, ...]


class BlockKind(str, Enum):
    SET = "set"
    MULTISET = "multiset"


def validate_block(block: Iterable[int], m: int, kind: BlockKind) -> Block:
    """Normalize a block to a sorted tuple and check it fits the kind."""
    b = tuple(sorted(int(x) for x in block))
    if len(b) != m:
        raise ValueError(f"block {b} does not have {m} elements")
    if b and b[0] < 1:
        raise ValueError(f"block elements must be positive: {b}")
    if kind is BlockKind.SET and any(b[i] == b[i + 1] for i in range(len(b) - 1)):
        raise ValueError(f"set blocks may not repeat elements: {b}")
    return b


def majorizes(a: Block, b: Block) -> bool:
    """Whether ``a <= b`` in majorization: elementwise on sorted sequences."""
    if len(a) != len(b):
        raise ValueError(f"blocks of different size are incomparable: {a} vs {b}")
    return all(x <= y for x, y in zip(a, b))


def colex_key(block: Block) -> tuple[int, ...]:
    """Sort key for the colexicographic order (largest differing element decides)."""
    return tuple(reversed(block))


def lower_covers(block: Block, kind: BlockKind) -> list[Block]:
    """Blocks covered by ``block``: decrement one element where valid.

    For multisets a value repeated several times yields a single cover (the
    decrement that keeps the tuple sorted).
    """
    out = []
    for r, v in enumerate(block):
        if v == 1:
            continue
        prev = block[r - 1] if r else 0
        ok = (v - 1 > prev) if kind is BlockKind.SET else (v - 1 >= prev)
        if ok:
            out.append(block[:r] + (v - 1,) + block[r + 1 :])
    return out


def _upper_covers(block: Block, kind: BlockKind) -> list[Block]:
    """Blocks covering ``block`` (the mirror of :func:`lower_covers`, unbounded)."""
    gap = 2 if kind is BlockKind.SET else 1
    return [
        block[:r] + (v + 1,) + block[r + 1 :]
        for r, v in enumerate(block)
        if r + 1 == len(block) or v + gap <= block[r + 1]
    ]


class Family:
    """A family of distinct blocks sharing one size ``m`` and one kind.

    Blocks are stored sorted in colexicographic order so equal families have
    identical serializations.
    """

    __slots__ = ("m", "kind", "blocks", "_counts")

    def __init__(self, m: int, kind: BlockKind | str, blocks: Iterable[Iterable[int]]):
        if m < 1:
            raise ValueError("block size m must be at least 1")
        kind = BlockKind(kind)
        normalized = [validate_block(b, m, kind) for b in blocks]
        ordered = tuple(sorted(normalized, key=colex_key))
        for i in range(len(ordered) - 1):
            if ordered[i] == ordered[i + 1]:
                raise ValueError(f"family blocks must be distinct: {ordered[i]}")
        self.m = m
        self.kind = kind
        self.blocks = ordered

    @classmethod
    def _trusted(cls, m: int, kind: BlockKind, blocks: tuple[Block, ...]) -> "Family":
        """A family of blocks already valid, distinct and in colex order."""
        fam = object.__new__(cls)
        fam.m = m
        fam.kind = kind
        fam.blocks = blocks
        return fam

    @property
    def size(self) -> int:
        """Number of blocks; the family has shape (m^size)."""
        return len(self.blocks)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Family)
            and self.m == other.m
            and self.kind == other.kind
            and self.blocks == other.blocks
        )

    def __hash__(self) -> int:
        return hash((self.m, self.kind, self.blocks))

    def __repr__(self) -> str:
        return f"Family(m={self.m}, kind={self.kind.value!r}, blocks={list(self.blocks)!r})"


class FamilyTuple:
    """A nonempty sequence of families sharing ``m`` and kind.

    Component families may repeat; distinctness of blocks holds only within
    each component.
    """

    __slots__ = ("m", "kind", "families")

    def __init__(self, families: Sequence[Family]):
        fams = tuple(families)
        if not fams:
            raise ValueError("a family tuple needs at least one component")
        m, kind = fams[0].m, fams[0].kind
        for f in fams:
            if f.m != m or f.kind != kind:
                raise ValueError("all component families must share m and kind")
        self.m = m
        self.kind = kind
        self.families = fams

    @classmethod
    def _trusted(cls, m: int, kind: BlockKind, families: tuple[Family, ...]) -> "FamilyTuple":
        """A tuple of one or more families, all of block size m and this kind."""
        t = object.__new__(cls)
        t.m = m
        t.kind = kind
        t.families = families
        return t

    @property
    def shapes(self) -> tuple[int, ...]:
        """Block counts of the components: shapes (m^{n_1}), ..., (m^{n_k})."""
        return tuple(f.size for f in self.families)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FamilyTuple) and self.families == other.families

    def __hash__(self) -> int:
        return hash(self.families)

    def __repr__(self) -> str:
        return f"FamilyTuple({list(self.families)!r})"


def occurrence_counts(obj: Family | FamilyTuple) -> Counter[int]:
    """Total occurrences of each positive integer across all blocks."""
    families = obj.families if isinstance(obj, FamilyTuple) else (obj,)
    blocks = itertools.chain.from_iterable(f.blocks for f in families)
    return Counter(itertools.chain.from_iterable(blocks))


def _vector(fam: Family) -> tuple[int, ...]:
    """The counts of 1, 2, ..., the largest element, kept in the family.

    As long as the largest element: see the size bound in :func:`tuple_type`.
    A family from the closed-family search carries them from the search.  One
    a user built counts them on first use; the slot stays unset until then,
    so a fresh family pickles without it.
    """
    if getattr(fam, "_counts", None) is None:
        counts = occurrence_counts(fam)
        fam._counts = tuple(map(counts.__getitem__, range(1, max(counts, default=0) + 1)))
    return fam._counts


def family_type(fam: Family) -> Partition | None:
    """The partition whose conjugate lists the occurrence counts, if defined."""
    return tuple_type(FamilyTuple._trusted(fam.m, fam.kind, (fam,)))


def _tuple_counts(t: FamilyTuple) -> tuple[int, ...] | None:
    """The tuple's counts of 1, 2, ..., the conjugate of its type, if weakly decreasing."""
    # Every value up to the largest element must occur, so that element (last
    # in colex order) is at most the element count; checked before any vector.
    # One family carries its counts, as a search's families do, and is asked
    # about once per family listed, so it skips the generators of the rest.
    if len(t.families) == 1:
        (fam,) = t.families
        blocks = fam.blocks
        if blocks and blocks[-1][-1] > t.m * len(blocks):
            return None
        counts = _vector(fam)
    else:
        top = max((f.blocks[-1][-1] for f in t.families if f.blocks), default=0)
        if top > t.m * sum(t.shapes):
            return None
        counts = reduce(_add_vectors, map(_vector, t.families))
    return counts if all(map(ge, counts, counts[1:])) else None


def tuple_type(t: FamilyTuple) -> Partition | None:
    """Type of a family tuple: counts add across components.

    Returns ``None`` when the count sequence is not weakly decreasing (not
    every tuple possesses a type).
    """
    counts = _tuple_counts(t)
    # Weakly decreasing and ending at the largest element's count, so positive.
    return None if counts is None else Partition._trusted(counts, sum(counts)).conjugate()


def is_closed(fam: Family) -> bool:
    """Whether the family is a down-set in the majorization order.

    Equivalent to the definition with arbitrary majorized blocks because the
    covering moves are the single decrements.
    """
    blocks = set(fam.blocks)
    return all(
        cover in blocks for b in fam.blocks for cover in lower_covers(b, fam.kind)
    )


def tuple_is_closed(t: FamilyTuple) -> bool:
    """A tuple is closed when every component family is closed."""
    return all(is_closed(f) for f in t.families)


def closure(fam: Family) -> Family:
    """Rewrite blocks downward until the family is an order ideal.

    Each step replaces one block ``A`` containing ``i+1`` by
    ``A - {i+1} + {i}`` when that block is valid and absent from the family,
    always choosing the lexicographically smallest applicable ``(block, i)``
    pair, so the result is deterministic.  The shape is preserved, and the
    type never increases in dominance when it was defined to begin with.
    """
    blocks = set(fam.blocks)
    while True:
        move = None
        for a in sorted(blocks):
            # lower_covers scans positions left to right, i.e. ascending i.
            for b in lower_covers(a, fam.kind):
                if b not in blocks:
                    move = (a, b)
                    break
            if move:
                break
        if move is None:
            return Family(fam.m, fam.kind, blocks)
        blocks.discard(move[0])
        blocks.add(move[1])


def tuple_closure(t: FamilyTuple) -> FamilyTuple:
    """Componentwise closure of a family tuple."""
    return FamilyTuple([closure(f) for f in t.families])


def down_set_family(m: int, kind: BlockKind | str, generators: Iterable[Iterable[int]]) -> Family:
    """The smallest closed family containing the given blocks."""
    kind = BlockKind(kind)
    gens = [validate_block(b, m, kind) for b in generators]
    seen: set[Block] = set()
    stack = list(gens)
    while stack:
        b = stack.pop()
        if b in seen:
            continue
        seen.add(b)
        stack.extend(lower_covers(b, kind))
    return Family(m, kind, seen)


def _colex_bounded(k: int, top: int, kind: BlockKind) -> Iterator[Block]:
    """All k-element blocks over {1, ..., top}, in colexicographic order."""
    strict = kind is BlockKind.SET
    least = list(range(1, k + 1)) if strict else [1] * k
    if k and least[-1] > top:
        return
    block = least[:]
    while True:
        yield tuple(block)
        # The successor grows the lowest entry that stays below the entry
        # above it (or within top) and resets the entries under it.
        for r in range(k):
            if block[r] < (block[r + 1] - strict if r + 1 < k else top):
                block[r] += 1
                block[:r] = least[:r]
                break
        else:
            return


def _ground_top(m: int, n: int, kind: BlockKind) -> int:
    """Largest element of a closed family of n blocks (the ground-set bound)."""
    return m + n - 1 if kind is BlockKind.SET else n


# A level: the closed families of one size of both kinds, in search order.
_Level = dict[BlockKind, tuple[Family, ...]]


def _search(m: int, n: int) -> _Level:
    """The closed families of n >= 1 blocks of both kinds, in search order."""
    # One search lists both kinds: it runs over multiset blocks, and the
    # shift bijection (see the module docstring) carries each node to the
    # set family of the same search order.  Colex order is a linear
    # extension of majorization, so every ideal is produced exactly once by
    # adding its blocks in colex order, each block only after all its lower
    # covers.  A stack entry (depth, siblings, j) is the node path[:depth] +
    # [b] of b = siblings[j]; its frontier, in colex order, is its rest
    # siblings[j + 1 :] (what the parent's frontier holds past b) plus the
    # upper covers b completed, merged in on popping, so never at a leaf.
    # Every branch ends in a family: an ideal of fewer than n blocks with
    # largest element x can add {1,..,1,x+1}.  A block past the ground-set
    # bound has at least n blocks below it, so it is completed only at a
    # leaf and never added.  The count vectors of the path and of its
    # shifted set blocks follow their blocks in and out, and colex order
    # puts the largest element in b.
    SET, MULTI = BlockKind.SET, BlockKind.MULTISET
    found: dict[BlockKind, list[Family]] = {SET: [], MULTI: []}
    stack = [(0, [(1,) * m], 0)]
    # upper covers, each with its lower covers
    above: dict[Block, list[tuple[Block, list[Block]]]] = {}
    shifted: dict[Block, Block] = {}  # multiset block -> set block
    path: list[Block] = []
    set_path: list[Block] = []  # the shifted blocks of path
    have: set[Block] = set()  # the blocks of path
    counts = [0] * (_ground_top(m, n, MULTI) + 1)  # counts[x]: occurrences of x in path
    set_counts = [0] * (_ground_top(m, n, SET) + 1)  # the same for set_path
    lift = range(m)
    colex = itemgetter(*reversed(lift))  # colex_key, or for m = 1 its one element
    while stack:
        depth, siblings, j = stack.pop()
        b = siblings[j]
        gone = path[depth:]
        have.difference_update(gone)
        for block in gone:
            for x in block:
                counts[x] -= 1
        for block in set_path[depth:]:
            for x in block:
                set_counts[x] -= 1
        s = shifted.get(b)
        if s is None:
            s = shifted[b] = tuple(map(add, b, lift))
        path[depth:] = [b]
        set_path[depth:] = [s]
        have.add(b)
        for x in b:
            counts[x] += 1
        for x in s:
            set_counts[x] += 1
        k = depth + 1
        if k == n:
            for kind, blocks, vector in ((MULTI, path, counts), (SET, set_path, set_counts)):
                fam = Family._trusted(m, kind, tuple(blocks))
                fam._counts = tuple(vector[1 : blocks[-1][-1] + 1])
                found[kind].append(fam)
            continue
        frontier = siblings[j + 1 :]
        covers = above.get(b)
        if covers is None:
            covers = above[b] = [(u, lower_covers(u, MULTI)) for u in _upper_covers(b, MULTI)]
        for u, below in covers:
            if have.issuperset(below):
                insort(frontier, u, key=colex)
        for i in reversed(range(len(frontier))):
            stack.append((k, frontier, i))
    return {kind: tuple(listed) for kind, listed in found.items()}


def _cut(deeper: _Level, k: int) -> _Level:
    """Level k >= 1: the distinct k-block prefixes of a deeper level, in order.

    The blocks cut off are colex-largest, so the last block kept holds the
    family's largest element.
    """
    out = {}
    for kind, fams in deeper.items():
        listed = []
        last = None
        for fam in fams:
            blocks = fam.blocks[:k]
            if blocks == last:
                continue
            last = blocks
            counts = list(fam._counts)
            for block in fam.blocks[k:]:
                for x in block:
                    counts[x - 1] -= 1
            cut = Family._trusted(fam.m, kind, blocks)
            cut._counts = tuple(counts[: blocks[-1][-1]])
            listed.append(cut)
        out[kind] = tuple(listed)
    return out


# The levels of each block size m met so far: _LEVELS[m][n] is level n.  A
# level is stored in one assignment once complete, so a search or cut
# stopped partway leaves the memo as it was.
_LEVELS: dict[int, dict[int, _Level]] = {}


def _closed_families(m: int, n: int) -> _Level:
    """Level n of block size m: stored, else cut from the nearest deeper one, else searched."""
    levels = _LEVELS.get(m) or {0: {kind: (Family._trusted(m, kind, ()),) for kind in BlockKind}}
    level = levels.get(n)
    if level is None:
        deeper = min((k for k in levels if k > n), default=None)
        level = _search(m, n) if deeper is None else _cut(levels[deeper], n)
        _LEVELS[m] = {**levels, n: level}
    return level


def enumerate_closed_families(m: int, n: int, kind: BlockKind | str) -> Iterator[Family]:
    """Exactly the closed families of shape (m^n), each once.

    Deterministic order given by the colex-prefix search.
    """
    if m < 1 or n < 0:
        raise ValueError("need m >= 1 and n >= 0")
    yield from _closed_families(m, n)[BlockKind(kind)]


def enumerate_minimal_tuple_types(
    m: int, shapes: Sequence[int], kind: BlockKind | str
) -> dict[Partition, FamilyTuple]:
    """Dominance-minimal types over all tuples with the given block counts.

    Minimal tuples are closed, and closing any tuple weakly lowers its type,
    so only tuples of closed families count.  Occurrence counts add across
    components, so a prefix whose type strictly dominates another prefix's
    type stays strictly above it under every completion: the tuples are
    built one component at a time, keeping after each component only the
    dominance-minimal prefix types.  Returns each minimal type with its
    lexicographically least closed witness tuple, keys sorted in descending
    lexicographic order.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    if not shapes or any(nj < 1 for nj in shapes):
        raise ValueError("each component must contain at least one block")
    return _minimal_types(m, tuple(shapes), BlockKind(kind))


# The fold of every shape prefix met so far, as a trie per (m, kind): the
# node of shapes[:k] maps a next shape nj to (the prefixes kept after
# shapes[:k] + (nj,), the node of that prefix).  Kept prefixes are held as
# {count vector: least witness}, in the order of the witnesses, each vector
# without trailing zeros (the conjugate of its type), each witness the tuple
# of its families.
_PREFIX_FOLDS: dict[tuple[int, BlockKind], dict] = {}


def _fold(m: int, shapes: tuple[int, ...], kind: BlockKind) -> dict[tuple[int, ...], tuple]:
    # Prefixes are held by count vector, the conjugate of their type, so a
    # minimal type is a dominance-maximal vector.  The walk down the trie
    # folds only the components past the longest prefix of shapes already
    # folded, one at a time and without recursion, so reports sharing a
    # prefix fold it once.
    kept: dict[tuple[int, ...], tuple] = {(): ()}
    node = _PREFIX_FOLDS.setdefault((m, kind), {})
    for nj in shapes:
        if nj not in node:
            fams = sorted(_closed_families(m, nj)[kind], key=attrgetter("blocks"))
            node[nj] = (_fold_step(kept, fams), {})
        kept, node = node[nj]
    return kept


def _fold_step(
    kept: dict[tuple[int, ...], tuple], fams: list[Family]
) -> dict[tuple[int, ...], tuple]:
    """The dominance-maximal vectors of kept prefixes extended by one family.

    ``fams`` is sorted by blocks.  Prefix sums add, so each kept vector and
    each family vector is packed once (see :func:`_packer`), and every
    candidate is one integer addition.  A pair (prefix r, family i) is coded
    r*F + i, which orders the pairs as their witnesses, and each candidate
    keeps the least code that reaches it: the least witness of a type
    extends the least prefix of its own prefix vector.

    One family is a translation: adding one vector to every kept prefix
    keeps their antichain, and with F = 1 the codes are the kept order.
    """
    if len(fams) == 1:
        (fam,) = fams
        vector = _vector(fam)
        return {_add_vectors(p, vector): w + (fam,) for p, w in kept.items()}
    prefixes = list(kept)
    vectors = list(map(_vector, fams))
    width = max(map(len, itertools.chain(prefixes, vectors)))
    pack, guards, total_mask = _packer(width, sum(prefixes[0]) + sum(vectors[0]))
    fam_keys = list(map(pack, reversed(vectors)))
    F = len(fams)
    best: dict[int, int] = {}
    # The last code written for a candidate stays, so codes go downward.
    for r in reversed(range(len(prefixes))):
        candidates = map(pack(prefixes[r]).__add__, fam_keys)
        best.update(zip(candidates, range(r * F + F - 1, r * F - 1, -1)))
    witnesses = list(kept.values())
    out = {}
    for code in sorted(map(best.__getitem__, _packed_maxima(best, guards, total_mask))):
        r, i = divmod(code, F)
        out[_add_vectors(prefixes[r], vectors[i])] = witnesses[r] + (fams[i],)
    return out


def _minimal_types(
    m: int, shapes: tuple[int, ...], kind: BlockKind, types: bool = True
) -> dict[Partition, FamilyTuple]:
    """Minimal types of tuples of these shapes (or, ``types`` false, their
    conjugates: the fold's count vectors), each with its least witness, keys
    in descending lexicographic order."""
    # The fold's vectors are weakly decreasing, of weight m * sum(shapes),
    # and its families share m and kind.
    weight = m * sum(shapes)
    found = _fold(m, shapes, kind).items()
    if types:
        found = [(_conjugate_parts(counts), fams) for counts, fams in found]
    return {
        Partition._trusted(parts, weight): FamilyTuple._trusted(m, kind, fams)
        for parts, fams in sorted(found, key=itemgetter(0), reverse=True)
    }


def is_minimal_tuple(t: FamilyTuple) -> bool:
    """Whether no tuple of the same shapes has a strictly dominated type.

    Every type weakly dominates a minimal type of its shapes, so this holds
    exactly when the type is one of them.  Empty components contribute
    nothing.
    """
    counts = _tuple_counts(t)
    if counts is None:
        raise ValueError("tuple has no defined type")
    shapes = tuple(sorted((nj for nj in t.shapes if nj), reverse=True))
    return counts in _fold(t.m, shapes, t.kind)


def colex_initial_segment(m: int, n: int, kind: BlockKind | str) -> Family:
    """The family of the first ``n`` blocks in colexicographic order.

    Colex extends majorization, so initial segments are always closed; they
    realize the lexicographically least type of their shape.  Being closed,
    they lie inside the ground-set bound.
    """
    if m < 1 or n < 0:
        raise ValueError("need m >= 1 and n >= 0")
    kind = BlockKind(kind)
    blocks = _colex_bounded(m, _ground_top(m, n, kind), kind)
    return Family(m, kind, itertools.islice(blocks, n))


def tuple_to_json(t: FamilyTuple) -> dict:
    """JSON form: {"m": 2, "kind": "set", "families": [[[1,2],[1,3]], ...]}."""
    return {
        "m": t.m,
        "kind": t.kind.value,
        "families": [[list(b) for b in f.blocks] for f in t.families],
    }


def tuple_from_json(data: Mapping) -> FamilyTuple:
    """Inverse of :func:`tuple_to_json`; any other structure is a ValueError."""

    def is_list(value, item) -> bool:
        return isinstance(value, (list, tuple)) and all(map(item, value))

    def is_block(value) -> bool:
        return is_list(value, lambda x: type(x) is int)  # not bool

    if not (
        isinstance(data, Mapping)
        and type(data.get("m")) is int
        and isinstance(data.get("kind"), str)
        and is_list(data.get("families"), lambda fam: is_list(fam, is_block))
    ):
        raise ValueError(
            'a family tuple must be a JSON object {"m": int, "kind": "set" or '
            '"multiset", "families": [[[int, ...], ...], ...]}'
        )
    kind = BlockKind(data["kind"])
    return FamilyTuple([Family(data["m"], kind, fam) for fam in data["families"]])
