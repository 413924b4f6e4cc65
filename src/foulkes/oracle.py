"""Independent ground truth: exact Schur expansions of s_nu o s_(m) and s_nu o s_(1^m).

The main engine expands both factors in the power-sum basis and substitutes
p_r o p_s = p_{rs}; the Murnaghan-Nakayama rule turns the power sums into
Schur functions.  It runs on bead masks: a partition is one integer whose set
bits are its beta numbers (first-column hook lengths), so finding the border
strips of a length, their signs and the partition each leaves are a few bit
operations on one word (the abacus of Loehr-Remmel, "A computational and
combinatorial expose of plethystic calculus", 2011).  The rule runs in two
directions.  A full expansion adds strips: it multiplies by one p_r at a time
from s_() up, over the trie of the power-sum terms, and reads every label's
coefficient from the one vector that results.  A single coefficient removes
strips: chi^lam(rho) is a recursion on lam's mask down the suffixes of rho,
memoized in one ``{bead mask: value}`` dict per suffix, so a repeated
partition costs one dict lookup.  That memo is the one store of character
values; a :class:`CharacterTable` is a degree and a file format, whose
``save_to`` writes the memo's values of its degree to a file and whose
``load_or_create`` seeds the memo from one.  All arithmetic is in
integers: the power-sum coefficients are scaled by the order n! m!^n of the
wreath product S_m wr S_n, which makes them integral, and each Schur
coefficient is one exact division by that order.

A second, slower engine (:func:`monomial_expansion`) counts semistandard
fillings by degree-m blocks and peels Schur coefficients off the monomial
counts by dominance triangularity.  It shares no code path with the power-sum
engine and exists to cross-check it at small degree.
"""

from __future__ import annotations

import json
import os
import warnings
from collections import Counter
from enum import Enum
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, groupby
from math import factorial
from operator import lt
from pathlib import Path
from typing import Iterator, Mapping

from .errors import GuardExceededError, InternalConsistencyError
from .partitions import (
    DominanceRelation,
    Partition,
    dimension,
    dominance_compare,
    partitions_of,
)

__all__ = [
    "DEFAULT_GUARD",
    "SINGLE_COEFFICIENT_LIMIT",
    "PlethysmFlavor",
    "SchurExpansion",
    "CharacterTable",
    "character_value",
    "z_order",
    "class_size",
    "expected_dimension",
    "plethysm_expansion",
    "multiplicity",
    "omega_check",
    "monomial_expansion",
]

DEFAULT_GUARD = 16
SINGLE_COEFFICIENT_LIMIT = 24


class PlethysmFlavor(str, Enum):
    ROW = "row"
    COLUMN = "column"


def z_order(rho: Partition) -> int:
    """Centralizer order of a permutation of cycle type ``rho``."""
    z = 1
    for value, count in Counter(rho.parts).items():
        z *= value**count * factorial(count)
    return z


def class_size(rho: Partition) -> int:
    """Size of the conjugacy class of cycle type ``rho``."""
    return factorial(rho.weight) // z_order(rho)


def _beads(parts: tuple[int, ...]) -> int:
    """The bead mask of a partition: bit ``lam_j + (len - 1 - j)`` set for each j.

    Parts must be positive, so bit 0 is clear unless the mask is 0: every
    partition has exactly one mask.
    """
    length = len(parts)
    mask = 0
    for j, p in enumerate(parts):
        mask |= 1 << (p + length - 1 - j)
    return mask


def _unbeads(mask: int) -> tuple[int, ...]:
    """The parts of the partition whose bead mask is ``mask``; inverts :func:`_beads`."""
    parts = []
    while mask:
        top = mask.bit_length() - 1
        mask ^= 1 << top
        parts.append(top - mask.bit_count())
    return tuple(parts)


# The character memo, one node per suffix rho of a cycle type: (rho[0], the
# sign mask of a strip of that length, the node of rho[1:], {bead mask of lam:
# chi^lam(rho)}).  The empty suffix holds only the empty partition, at mask 0.
_EMPTY_SUFFIX: tuple = (0, 0, None, {0: 1})
_CHAR_CACHE: dict[tuple[int, ...], tuple] = {}


def _suffix_node(rho: tuple[int, ...]) -> tuple:
    """The memo node of the weakly decreasing ``rho``, interned with its suffixes."""
    node = _CHAR_CACHE.get(rho)
    if node is None:
        node = _EMPTY_SUFFIX
        for i in range(len(rho) - 1, -1, -1):
            r = rho[i]
            node = _CHAR_CACHE.setdefault(rho[i:], (r, (1 << (r - 1)) - 1, node, {}))
    return node


def _strip_sum(mask: int, node: tuple) -> int:
    """chi^lam(rho) by border-strip removal, for the bead ``mask`` of lam and rho's ``node``.

    The first part r of rho, its largest, is stripped first, which keeps the
    branching small.  A strip of length r moves a bead from b down to the
    empty position c = b - r, so the strips are the set bits of
    ``(mask & ~(mask << r)) >> r`` (at c), and its sign is (-1) to the number
    of beads strictly between c and b.  A bead that lands at 0 joins the run
    of one-bits at the bottom, which are zero parts; shifting them out keeps
    the mask in normal form.  The value of each partition left is read from,
    or stored in, the memo of the child node; the value returned is stored by
    the caller, at rho's node.
    """
    r, between, child, _ = node
    memo = child[3]
    total = 0
    strips = (mask & ~(mask << r)) >> r
    while strips:
        low = strips & -strips
        strips ^= low
        nxt = mask ^ low ^ (low << r)
        if nxt & 1:
            nxt >>= (nxt ^ (nxt + 1)).bit_length() - 1
        term = memo.get(nxt)
        if term is None:
            term = memo[nxt] = _strip_sum(nxt, child)
        # low.bit_length() is c + 1.
        if (mask >> low.bit_length() & between).bit_count() & 1:
            total -= term
        else:
            total += term
    return total


def _character(mask: int, rho: tuple[int, ...]) -> int:
    """chi^lam(rho) for the bead ``mask`` of lam, memoized at rho's node."""
    node = _suffix_node(rho)
    value = node[3].get(mask)
    if value is None:
        value = node[3][mask] = _strip_sum(mask, node)
    return value


def character_value(lam: Partition, rho: Partition) -> int:
    """The irreducible symmetric-group character value chi^lam(rho)."""
    if lam.weight != rho.weight:
        raise ValueError(
            f"character arguments must have equal weight: |{lam}| != |{rho}|"
        )
    return _character(_beads(lam.parts), rho.parts)


_TABLE_FILE = "characters-n{}.json"


class CharacterTable:
    """Character values of one degree on disk: a degree and a file format.

    The values live in the character memo only.  ``values`` is a snapshot,
    built on each access, of the memo's values of this degree, keyed by
    ``(lam.parts, rho.parts)``, and :meth:`save_to` writes it to the file
    ``characters-n<degree>.json`` of a directory, which :meth:`load_or_create`
    reads.  In JSON: ``{"schema": 1, "degree": n, "values": {"<lam>|<rho>":
    int, ...}}`` where partitions are comma-separated part lists.  Loading
    rejects a degree other than the file name's, a value that is not an
    integer, a key not of two partitions of the degree, a wrong value at the
    identity class (the dimension) or at lam = (n) (1), and a value other
    than one already held for its pair.  A file that passes seeds the memo,
    and every later call trusts it.
    """

    SCHEMA = 1

    def __init__(self, degree: int):
        if type(degree) is not int or degree < 0:
            raise ValueError(f"degree must be a nonnegative int, not {degree!r}")
        self.degree = degree

    @property
    def values(self) -> dict[tuple[tuple[int, ...], tuple[int, ...]], int]:
        return {
            (_unbeads(mask), rho): v
            for rho, node in _CHAR_CACHE.items() if sum(rho) == self.degree
            for mask, v in node[3].items()
        }

    def verify_orthogonality(self) -> None:
        """Check column orthogonality exactly; raise on any failure."""
        parts = list(partitions_of(self.degree))
        nfac = factorial(self.degree)
        for i, lam in enumerate(parts):
            for mu in parts[i:]:
                acc = sum(
                    class_size(rho) * character_value(lam, rho) * character_value(mu, rho)
                    for rho in parts
                )
                want = nfac if lam == mu else 0
                if acc != want:
                    raise InternalConsistencyError(
                        f"orthogonality fails at ({lam}), ({mu}): {acc} != {want}"
                    )

    @classmethod
    def load_or_create(cls, degree: int, cache_dir: str | os.PathLike | None) -> "CharacterTable":
        """The table of this degree, its values seeded from ``cache_dir`` if the file there passes.

        A cache file that cannot be read, that fails a check or that holds
        another degree is ignored with a ``RuntimeWarning`` naming it.
        """
        table = cls(degree)
        path = None if cache_dir is None else Path(cache_dir) / _TABLE_FILE.format(degree)
        if path is not None and path.exists():
            try:
                _load(path, degree)
            except (OSError, ValueError, KeyError, TypeError, AttributeError, RecursionError) as exc:
                warnings.warn(
                    f"ignoring the character cache {path}: {type(exc).__name__}: {exc}",
                    RuntimeWarning,
                    stacklevel=2,
                )
        return table

    def save_to(self, cache_dir: str | os.PathLike) -> Path:
        """Write ``values`` to this degree's file in ``cache_dir``; return the file's path."""
        path = Path(cache_dir) / _TABLE_FILE.format(self.degree)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "schema": self.SCHEMA,
            "degree": self.degree,
            "values": {
                "|".join(",".join(map(str, parts)) for parts in key): v
                for key, v in sorted(self.values.items())
            },
        }
        # Write a file of this process next to the target and rename it over
        # the target, so that no reader sees a half-written cache.
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        return path


def _load(path: Path, want: int) -> None:
    """Seed the memo from the degree-``want`` file ``path``, all or nothing, or raise."""
    payload = json.loads(path.read_text(encoding="utf-8"))
    if payload.get("schema") != CharacterTable.SCHEMA:
        raise ValueError(f"unsupported character-table schema in {path}")
    degree = payload["degree"]
    if type(degree) is not int:
        raise ValueError(f"degree {degree!r} in {path} is not an integer")
    if degree != want:
        raise ValueError(f"degree {degree} in {path} is not {want}")
    entries: dict[tuple[tuple[int, ...], int], int] = {}
    for key, v in payload["values"].items():
        lam, rho = (tuple(map(int, p.split(","))) if p else () for p in key.split("|"))
        for ps in (lam, rho):
            if sum(ps) != degree or any(map(lt, ps, ps[1:])) or (ps and ps[-1] < 1):
                raise ValueError(f"entry {key!r} is not two partitions of {degree}")
        if type(v) is not int:
            raise ValueError(f"entry {key!r} holds {v!r}, not an integer")
        # rho = (1^n) gives the dimension; lam = (n) is the trivial character.
        if (len(rho) == degree and v != dimension(Partition(lam))) or (len(lam) <= 1 and v != 1):
            raise ValueError(f"entry {key!r} holds {v}, not the character value")
        mask = _beads(lam)
        if entries.get((rho, mask), _CHAR_CACHE.get(rho, _EMPTY_SUFFIX)[3].get(mask, v)) != v:
            raise ValueError(f"entry {key!r} holds {v}, not the value already held for it")
        entries[rho, mask] = v
    for (rho, mask), v in entries.items():
        _suffix_node(rho)[3].setdefault(mask, v)


class SchurExpansion:
    """An integral linear combination of Schur functions of one degree."""

    __slots__ = ("degree", "coefficients")

    def __init__(self, degree: int, coefficients: Mapping[Partition, int]):
        coeffs: dict[Partition, int] = {}
        for lam in sorted(coefficients, reverse=True):
            mult = int(coefficients[lam])
            if mult == 0:
                continue
            if mult < 0:
                raise ValueError(f"multiplicities must be positive: {lam} -> {mult}")
            if lam.weight != degree:
                raise ValueError(f"label {lam} does not have weight {degree}")
            coeffs[lam] = mult
        self.degree = degree
        self.coefficients = coeffs

    def __getitem__(self, lam: Partition) -> int:
        return self.coefficients.get(lam, 0)

    def __len__(self) -> int:
        return len(self.coefficients)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SchurExpansion)
            and self.degree == other.degree
            and self.coefficients == other.coefficients
        )

    def __repr__(self) -> str:
        body = ", ".join(f"({lam}): {v}" for lam, v in self.coefficients.items())
        return f"SchurExpansion(degree={self.degree}, {{{body}}})"

    def items(self) -> Iterator[tuple[Partition, int]]:
        return iter(self.coefficients.items())

    def support(self) -> tuple[Partition, ...]:
        """Labels with positive multiplicity, in descending lexicographic order."""
        return tuple(self.coefficients)

    def total_dimension(self) -> int:
        return sum(mult * dimension(lam) for lam, mult in self.coefficients.items())

    def conjugated(self) -> "SchurExpansion":
        """Image under the involution sending s_lam to s_{lam'}."""
        return SchurExpansion(
            self.degree, {lam.conjugate(): v for lam, v in self.coefficients.items()}
        )

    def to_json_dict(self) -> dict:
        return {
            "degree": self.degree,
            "coefficients": {str(lab): v for lab, v in self.items()},
        }


def _wreath_order(n: int, m: int) -> int:
    """Order n! m!^n of the wreath product S_m wr S_n."""
    return factorial(n) * factorial(m) ** n


def expected_dimension(nu: Partition, m: int) -> int:
    """Degree of the induced character: (mn)!/(m!^n n!) times dim chi^nu."""
    n = nu.weight
    index, rem = divmod(factorial(m * n), _wreath_order(n, m))
    if rem:
        raise InternalConsistencyError("wreath-product index is not an integer")
    return index * dimension(nu)


@lru_cache(maxsize=None)
def _power_sum_coefficients(
    nu_parts: tuple[int, ...], m: int, flavor: PlethysmFlavor
) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Coefficients of p_tau in the plethysm times n! m!^n, as sorted items.

    s_nu = sum_rho chi^nu(rho)/z_rho p_rho, while s_(m) (ROW) and s_(1^m)
    (COLUMN) expand over sigma with coefficient 1/z_sigma resp.
    sign(sigma)/z_sigma.  Substituting p_r o p_s = p_{rs} turns each choice of
    rho and one sigma per part of rho into the cycle type tau built from the
    stretched parts rho_j * sigma^{(j)}.  Scaled by the wreath order n! m!^n
    every weight is an integer, since z_rho divides n! and z_sigma divides m!.
    The parts of rho are folded in one at a time, merging equal partial types.
    """
    nu = Partition(nu_parts)
    n = nu.weight
    mfac = factorial(m)
    sign = -1 if flavor is PlethysmFlavor.COLUMN else 1
    sigmas = [(s.parts, sign ** (m - len(s)) * (mfac // z_order(s))) for s in partitions_of(m)]
    acc: Counter[tuple[int, ...]] = Counter()
    for rho in partitions_of(n):
        chi = character_value(nu, rho)
        if chi == 0:
            continue
        partial = Counter({(): chi * factorial(n) // z_order(rho) * mfac ** (n - len(rho))})
        for r in rho.parts:
            grown: Counter[tuple[int, ...]] = Counter()
            for tau, w in partial.items():
                for s, ws in sigmas:
                    grown[tuple(sorted(tau + tuple(r * x for x in s), reverse=True))] += w * ws
            partial = grown
        acc.update(partial)
    return tuple(sorted((tau, w) for tau, w in acc.items() if w))


def _times_power_sum(vec: Mapping[int, int], r: int, out: dict[int, int]) -> dict[int, int]:
    """Add the Schur vector ``vec`` ({bead mask: coefficient}) times p_r to ``out``.

    The mirror of the strip removal in :func:`_strip_sum`: r zero
    parts (beads at 0..r-1) make room for every strip of length r, a strip
    moves a bead from b up to the empty position b + r, so the strips are the
    set bits of ``padded & ~(padded >> r)`` (at b), and its sign is (-1) to
    the number of beads strictly between b and b + r.  Zero parts left over
    are shifted out as in the removal.  Returns ``out``.
    """
    between = (1 << (r - 1)) - 1
    for mask, coeff in vec.items():
        padded = (mask << r) | ((1 << r) - 1)
        strips = padded & ~(padded >> r)
        while strips:
            low = strips & -strips
            strips ^= low
            b = low.bit_length() - 1
            nxt = padded ^ low ^ (low << r)
            if nxt & 1:
                nxt >>= (nxt ^ (nxt + 1)).bit_length() - 1
            term = -coeff if ((padded >> (b + 1)) & between).bit_count() & 1 else coeff
            out[nxt] = out.get(nxt, 0) + term
    return out


def _schur_vector(terms, depth: int = 0) -> dict[int, int]:
    """sum w p_{tau[depth:]} over the power-sum ``terms`` (tau, w), in the Schur basis.

    The p_r commute, so a tau may list its parts in any order.  ``terms`` is
    sorted and its taus share their first ``depth`` parts, so those with the
    same part r at ``depth`` are consecutive: their tails are summed first
    and multiplied by p_r once (Horner's rule on the trie of the taus).  A
    tau that ends at ``depth`` adds its weight to s_() at mask 0.  Parts in
    increasing order share the most work: the many small parts form the
    shared prefixes, and the few large ones the tails, whose vectors are small.
    """
    vec: dict[int, int] = {}
    for r, run in groupby(terms, lambda term: term[0][depth] if len(term[0]) > depth else 0):
        if r:
            _times_power_sum(_schur_vector(list(run), depth + 1), r, vec)
        else:
            vec[0] = sum(w for _, w in run)
    return vec


def _quotient(total: int, scale: int, lam: Partition) -> int:
    """<s_lam, plethysm> from ``total`` = scale times it; raises unless a nonnegative integer."""
    value, rem = divmod(total, scale)
    if rem or value < 0:
        raise InternalConsistencyError(
            f"coefficient of ({lam}) is not a nonnegative integer: {total}/{scale}"
        )
    return value


def _check_dimension(expansion: SchurExpansion, nu: Partition, m: int) -> None:
    want = expected_dimension(nu, m)
    got = expansion.total_dimension()
    if got != want:
        raise InternalConsistencyError(
            f"dimension check failed for nu=({nu}), m={m}: {got} != {want}"
        )


def plethysm_expansion(
    nu: Partition,
    m: int,
    flavor: PlethysmFlavor | str = PlethysmFlavor.ROW,
    *,
    guard: int = DEFAULT_GUARD,
) -> SchurExpansion:
    """Exact Schur expansion of s_nu o s_(m) (ROW) or s_nu o s_(1^m) (COLUMN).

    Refuses degrees above ``guard``.  Every coefficient is checked to be a
    nonnegative integer and the full expansion must pass the dimension
    identity; failures raise :class:`InternalConsistencyError`.
    """
    flavor = PlethysmFlavor(flavor)
    if m < 1:
        raise ValueError("inner degree m must be at least 1")
    degree = m * nu.weight
    if degree > guard:
        raise GuardExceededError(
            f"degree {degree} exceeds the guard {guard}; raise the guard to proceed"
        )
    scale = _wreath_order(nu.weight, m)
    terms = sorted((tau[::-1], w) for tau, w in _power_sum_coefficients(nu.parts, m, flavor))
    coeffs: dict[Partition, int] = {}
    # Labels missing from the vector, or at 0 in it, have coefficient 0.
    for mask, total in _schur_vector(terms).items():
        if total:
            lam = Partition(_unbeads(mask))
            coeffs[lam] = _quotient(total, scale, lam)
    expansion = SchurExpansion(degree, coeffs)
    _check_dimension(expansion, nu, m)
    return expansion


def multiplicity(
    nu: Partition,
    m: int,
    lam: Partition,
    flavor: PlethysmFlavor | str = PlethysmFlavor.ROW,
    *,
    guard: int = DEFAULT_GUARD,
    table: CharacterTable | None = None,
) -> int:
    """Single Schur coefficient without expanding the whole degree.

    Permitted past the guard up to degree ``SINGLE_COEFFICIENT_LIMIT`` with a
    runtime warning.  ``table``, if given, is only checked to be of this
    degree: every character value is read from, or stored in, the one memo.
    """
    flavor = PlethysmFlavor(flavor)
    if m < 1:
        raise ValueError("inner degree m must be at least 1")
    degree = m * nu.weight
    if lam.weight != degree:
        raise ValueError(f"label must have weight {degree}, got {lam.weight}")
    if table is not None and table.degree != degree:
        raise ValueError(f"table holds degree {table.degree} only")
    if degree > guard:
        limit = max(guard, SINGLE_COEFFICIENT_LIMIT)
        if degree > limit:
            raise GuardExceededError(f"degree {degree} exceeds the single-coefficient limit {limit}")
        warnings.warn(
            f"single-coefficient mode at degree {degree} beyond the guard {guard}; "
            "this may take a while",
            RuntimeWarning,
            stacklevel=2,
        )
    terms = _power_sum_coefficients(nu.parts, m, flavor)
    mask = _beads(lam.parts)
    total = sum(w * _character(mask, tau) for tau, w in terms)
    return _quotient(total, _wreath_order(nu.weight, m), lam)


def omega_check(nu: Partition, m: int, *, guard: int = DEFAULT_GUARD) -> bool:
    """Verify the omega-involution identity on labels.

    Conjugating every label of s_nu o s_(m) must give s_{nu'} o s_(1^m) when
    ``m`` is odd and s_nu o s_(1^m) when ``m`` is even.
    """
    row = plethysm_expansion(nu, m, PlethysmFlavor.ROW, guard=guard)
    partner = nu.conjugate() if m % 2 == 1 else nu
    col = plethysm_expansion(partner, m, PlethysmFlavor.COLUMN, guard=guard)
    return row.conjugated() == col


# ---------------------------------------------------------------------------
# Monomial-expansion cross-oracle.


def _block_alphabet(m: int, flavor: PlethysmFlavor, gamma: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The m-element sets (COLUMN) or multisets (ROW) over 1..len(gamma) that fit in gamma."""
    blocks = combinations if flavor is PlethysmFlavor.COLUMN else combinations_with_replacement
    out = []
    for b in blocks(range(1, len(gamma) + 1), m):
        counts = Counter(b)
        if all(counts[v] <= gamma[v - 1] for v in counts):
            out.append(b)
    return out


def _plethystic_tableau_count(
    nu: tuple[int, ...], m: int, flavor: PlethysmFlavor, gamma: tuple[int, ...]
) -> int:
    """Number of semistandard fillings of shape nu by degree-m blocks with
    total variable content gamma.

    The block alphabet is totally ordered by its list order; any total
    order yields the same monomial coefficient because Schur polynomials
    are symmetric in the alphabet.
    """
    if not nu:
        return 1 if not gamma else 0
    alphabet = _block_alphabet(m, flavor, gamma)
    if not alphabet:
        return 0
    elem_lists = [tuple(Counter(b).items()) for b in alphabet]
    cells: list[tuple[int, int]] = []  # (left neighbor index, upper neighbor index)
    index_of: dict[tuple[int, int], int] = {}
    for i, row in enumerate(nu):
        for j in range(row):
            left = index_of.get((i, j - 1), -1)
            up = index_of.get((i - 1, j), -1)
            index_of[(i, j)] = len(cells)
            cells.append((left, up))
    budget = list(gamma)
    entries = [0] * len(cells)
    n_letters = len(alphabet)

    def fill(pos: int) -> int:
        if pos == len(cells):
            return 1
        left, up = cells[pos]
        start = 0
        if left >= 0:
            start = entries[left]
        if up >= 0:
            start = max(start, entries[up] + 1)
        total = 0
        for e in range(start, n_letters):
            ok = True
            for v, c in elem_lists[e]:
                if budget[v - 1] < c:
                    ok = False
                    break
            if not ok:
                continue
            for v, c in elem_lists[e]:
                budget[v - 1] -= c
            entries[pos] = e
            total += fill(pos + 1)
            for v, c in elem_lists[e]:
                budget[v - 1] += c
        return total

    return fill(0)


def _horizontal_strip_predecessors(shape: tuple[int, ...], size: int) -> Iterator[tuple[int, ...]]:
    """Partitions mu inside shape with shape/mu a horizontal strip of the size."""
    rows = len(shape)
    buf: list[int] = []

    def rec(i: int, remaining: int) -> Iterator[tuple[int, ...]]:
        if i == rows:
            if remaining == 0:
                yield tuple(p for p in buf if p)
            return
        lo = shape[i + 1] if i + 1 < rows else 0
        hi = shape[i] if i == 0 else min(shape[i], buf[-1])
        for mu_i in range(hi, lo - 1, -1):
            removed = shape[i] - mu_i
            if removed > remaining:
                break
            buf.append(mu_i)
            yield from rec(i + 1, remaining - removed)
            buf.pop()

    yield from rec(0, size)


@lru_cache(maxsize=None)
def _kostka(shape: tuple[int, ...], content: tuple[int, ...]) -> int:
    """Number of semistandard tableaux of the shape with the given content."""
    if not content:
        return 1 if not shape else 0
    total = 0
    for smaller in _horizontal_strip_predecessors(shape, content[-1]):
        total += _kostka(smaller, content[:-1])
    return total


def monomial_expansion(
    nu: Partition, m: int, flavor: PlethysmFlavor | str = PlethysmFlavor.ROW
) -> SchurExpansion:
    """Brute-force Schur expansion via monomial coefficients.

    Counts plethystic fillings to get the coefficient of x^gamma for each
    partition gamma, then peels off Schur coefficients in descending
    lexicographic order using Kostka triangularity with respect to dominance.
    Independent of the character-theoretic engine; intended for small degree.
    """
    flavor = PlethysmFlavor(flavor)
    if m < 1:
        raise ValueError("inner degree m must be at least 1")
    degree = m * nu.weight
    mono: dict[Partition, int] = {}
    for gamma in partitions_of(degree):
        cnt = _plethystic_tableau_count(nu.parts, m, flavor, gamma.parts)
        if cnt:
            mono[gamma] = cnt
    coeffs: dict[Partition, int] = {}
    for lam in partitions_of(degree):
        c = mono.get(lam, 0)
        for kappa, ck in coeffs.items():
            if dominance_compare(kappa, lam) is DominanceRelation.STRICTLY_ABOVE:
                c -= ck * _kostka(kappa.parts, lam.parts)
        if c < 0:
            raise InternalConsistencyError(
                f"monomial peel produced a negative coefficient at ({lam})"
            )
        if c:
            coeffs[lam] = c
    return SchurExpansion(degree, coeffs)
