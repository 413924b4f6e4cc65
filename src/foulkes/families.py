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
"""

from __future__ import annotations

import itertools
from bisect import insort
from collections import Counter
from enum import Enum
from functools import lru_cache, reduce
from operator import ge
from typing import Iterable, Iterator, Mapping, Sequence

from .partitions import Partition, _add_vectors, _extremal_parts

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
    """The counts of 1, 2, ..., the largest element, counted on first use and kept.

    As long as the largest element: see the size bound in :func:`tuple_type`.
    The slot stays unset until then, so a fresh family pickles without it.
    """
    if getattr(fam, "_counts", None) is None:
        counts = occurrence_counts(fam)
        fam._counts = tuple(map(counts.__getitem__, range(1, max(counts, default=0) + 1)))
    return fam._counts


def family_type(fam: Family) -> Partition | None:
    """The partition whose conjugate lists the occurrence counts, if defined."""
    return tuple_type(FamilyTuple((fam,)))


def tuple_type(t: FamilyTuple) -> Partition | None:
    """Type of a family tuple: counts add across components.

    Returns ``None`` when the count sequence is not weakly decreasing (not
    every tuple possesses a type).
    """
    # Every value up to the largest element must occur, so that element (last
    # in colex order) is at most the element count; checked before any vector.
    top = max((f.blocks[-1][-1] for f in t.families if f.blocks), default=0)
    if top > t.m * sum(t.shapes):
        return None
    counts = reduce(_add_vectors, map(_vector, t.families), ())
    if not all(map(ge, counts, counts[1:])):
        return None
    return Partition(counts).conjugate()


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
    if k == 0:
        yield ()
        return
    strict = 1 if kind is BlockKind.SET else 0
    for mx in range(1 + strict * (k - 1), top + 1):
        for rest in _colex_bounded(k - 1, mx - strict, kind):
            yield rest + (mx,)


def _ground_top(m: int, n: int, kind: BlockKind) -> int:
    """Largest element of a closed family of n blocks (the ground-set bound)."""
    return m + n - 1 if kind is BlockKind.SET else n


@lru_cache(maxsize=None)
def _closed_families(m: int, n: int, kind: BlockKind) -> tuple[Family, ...]:
    if n == 0:
        return (Family(m, kind, []),)
    # Colex order is a linear extension of majorization, so every ideal is
    # produced exactly once by adding its blocks in colex order, each block
    # only after all its lower covers.  A stack entry (depth, b, rest) is the
    # node path[:depth] + [b]; its frontier, in colex order, is `rest` (what
    # the parent's frontier holds past b) plus the upper covers b completed,
    # merged in on popping, so never at a leaf.  Every branch ends in a
    # family: an ideal of fewer than n blocks with largest element x can add
    # {1,..,m-1,x+1} (sets) or {1,..,1,x+1} (multisets).  A block past the
    # ground-set bound has at least n blocks below it, so it is completed
    # only at a leaf and never added.
    out: list[Family] = []
    stack: list[tuple[int, Block, list[Block]]] = [(0, next(_colex_bounded(m, m, kind)), [])]
    above: dict[Block, list[tuple[Block, list[Block]]]] = {}  # upper covers, their lower covers
    path: list[Block] = []
    have: set[Block] = set()  # the blocks of path
    while stack:
        depth, b, frontier = stack.pop()
        have.difference_update(path[depth:])
        path[depth:] = [b]
        have.add(b)
        if depth + 1 == n:
            out.append(Family._trusted(m, kind, tuple(path)))
            continue
        if b not in above:
            above[b] = [(u, lower_covers(u, kind)) for u in _upper_covers(b, kind)]
        for u, below in above[b]:
            if have.issuperset(below):
                insort(frontier, u, key=colex_key)
        for j in reversed(range(len(frontier))):
            stack.append((depth + 1, frontier[j], frontier[j + 1 :]))
    return tuple(out)


def enumerate_closed_families(m: int, n: int, kind: BlockKind | str) -> Iterator[Family]:
    """Exactly the closed families of shape (m^n), each once.

    Deterministic order given by the colex-prefix search.
    """
    if m < 1 or n < 0:
        raise ValueError("need m >= 1 and n >= 0")
    yield from _closed_families(m, n, BlockKind(kind))


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
    kind = BlockKind(kind)
    if not shapes or any(nj < 1 for nj in shapes):
        raise ValueError("each component must contain at least one block")
    return dict(_minimal_tuple_types(m, tuple(shapes), kind))


@lru_cache(maxsize=None)
def _minimal_tuple_types(
    m: int, shapes: tuple[int, ...], kind: BlockKind
) -> dict[Partition, FamilyTuple]:
    # Prefixes are held by count vector, the conjugate of their type, so a
    # minimal type is a dominance-maximal vector.  Prefixes and families are
    # visited in key order, so the first prefix met of a vector is its
    # lexicographically least, and the least witness of a type extends the
    # least prefix of its own prefix vector.  The vectors of one step share
    # a weight and stay tuples; only the final types become partitions.
    kept: dict[tuple[int, ...], tuple[Family, ...]] = {(): ()}
    for nj in shapes:
        fams = sorted(_closed_families(m, nj, kind), key=lambda f: f.blocks)
        vectors = list(map(_vector, fams))
        best: dict[tuple[int, ...], tuple[Family, ...]] = {}
        for counts, prefix in sorted(kept.items(), key=lambda item: [f.blocks for f in item[1]]):
            for fam, vec in zip(fams, vectors):
                best.setdefault(_add_vectors(counts, vec), prefix + (fam,))
        kept = {counts: best[counts] for counts in _extremal_parts(best, minimal=False)}
    types = {Partition(counts).conjugate(): prefix for counts, prefix in kept.items()}
    return {ty: FamilyTuple(types[ty]) for ty in sorted(types, reverse=True)}


def is_minimal_tuple(t: FamilyTuple) -> bool:
    """Whether no tuple of the same shapes has a strictly dominated type.

    Every type weakly dominates a minimal type of its shapes, so this holds
    exactly when the type is one of them.  Empty components contribute
    nothing.
    """
    ty = tuple_type(t)
    if ty is None:
        raise ValueError("tuple has no defined type")
    shapes = tuple(sorted((nj for nj in t.shapes if nj), reverse=True))
    if not shapes:
        return True
    return ty in _minimal_tuple_types(t.m, shapes, t.kind)


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
