"""Independent ground truth: exact Schur expansions of s_nu o s_(m) and s_nu o s_(1^m).

Partitions are bead masks: one integer whose set bits are the beta numbers,
so the border strips of a length, their signs and what each leaves are a few
bit operations (the abacus of Loehr-Remmel, "A computational and
combinatorial expose of plethystic calculus", 2011).  A full expansion adds
strips: it multiplies by one p_r at a time over the trie of the plethysm's
power-sum terms, whose weights are scaled by the wreath order n! m!^n to be
integers, and divides each coefficient of the one vector that results by
that order.  A single coefficient removes strips and sums over the classes
rho of S_n only, n = |nu|: s_nu o h_m = sum_rho chi^nu(rho)/z_rho prod_j
h_m[p_{rho_j}] (e_m for s_(1^m)), and h_m[p_r] (e_m[p_r]) adds a horizontal
(vertical) strip of m ribbons of length r.  So it recurses on lam's mask
down the suffixes of rho, memoized per (suffix, m, flavor), and divides by
n!.  At m = 1, h_1[p_r] = p_r and the strips are single border strips, so a
character value chi^lam(rho) = <s_lam, p_rho> is the memo's value at
(rho, 1, ROW); those nodes are the one store of character values, which a
:class:`CharacterTable` saves to a file of one degree and loads from it.  The
monomial cross-oracle is in :mod:`foulkes.monomial`.
"""

from __future__ import annotations

import json
import os
import warnings
from collections import Counter
from enum import Enum
from functools import lru_cache
from itertools import groupby
from math import factorial
from operator import lt
from pathlib import Path
from typing import Iterator, Mapping

from .errors import GuardExceededError, InternalConsistencyError
from .partitions import Partition, dimension, partitions_of

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


def character_value(lam: Partition, rho: Partition) -> int:
    """The irreducible symmetric-group character value chi^lam(rho) = <s_lam, p_rho>.

    Border-strip removal: the ribbon recursion at m = 1, read from and stored
    at rho's node (rho, 1, ROW) of the ribbon memo.
    """
    if lam.weight != rho.weight:
        raise ValueError(
            f"character arguments must have equal weight: |{lam}| != |{rho}|"
        )
    node = _ribbon_node(rho.parts, 1, PlethysmFlavor.ROW)
    return _ribbon_value(_beads(lam.parts), node, 1, False, rho.weight)


_TABLE_FILE = "characters-n{}.json"


class CharacterTable:
    """Character values of one degree on disk: a degree and a file format.

    The values live in the ribbon memo only, at its nodes (rho, 1, ROW).
    ``values`` is a snapshot, built on each access, of those nodes' values of
    this degree, keyed by ``(lam.parts, rho.parts)``, and :meth:`save_to`
    writes it to the file ``characters-n<degree>.json`` of a directory, which
    :meth:`load_or_create` reads.  In JSON: ``{"schema": 1, "degree": n,
    "values": {"<lam>|<rho>": int, ...}}`` where partitions are
    comma-separated part lists.  Loading rejects a degree other than the
    file name's, a value that is not an integer, a key not of two partitions
    of the degree, a wrong value at the identity class (the dimension) or at
    lam = (n) (1), and a value other than one already held for its pair.  A
    file that passes seeds the memo, and every later call trusts it.
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
            for (rho, m, flavor), node in _RIBBON_CACHE.items()
            if m == 1 and flavor is PlethysmFlavor.ROW and sum(rho) == self.degree
            for mask, v in node[2].items()
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
    def load_or_create(cls, degree: int, cache_dir: str | os.PathLike) -> "CharacterTable":
        """The table of this degree, its values seeded from ``cache_dir`` if the file there passes.

        A cache file that cannot be read, that fails a check or that holds
        another degree is ignored with a ``RuntimeWarning`` naming it.
        """
        table = cls(degree)
        path = Path(cache_dir) / _TABLE_FILE.format(degree)
        if path.exists():
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
        held = _RIBBON_CACHE.get((rho, 1, PlethysmFlavor.ROW), _EMPTY_PRODUCT)[2]
        if entries.get((rho, mask), held.get(mask, v)) != v:
            raise ValueError(f"entry {key!r} holds {v}, not the value already held for it")
        entries[rho, mask] = v
    for (rho, mask), v in entries.items():
        _ribbon_node(rho, 1, PlethysmFlavor.ROW)[2].setdefault(mask, v)


class SchurExpansion:
    """An integral linear combination of Schur functions of one degree."""

    __slots__ = ("degree", "coefficients")

    def __init__(self, degree: int, coefficients: Mapping[Partition, int]):
        coeffs: dict[Partition, int] = {}
        for lam in sorted(coefficients, reverse=True):
            mult = coefficients[lam]
            if type(mult) is not int:
                raise ValueError(f"multiplicity of {lam} must be an int, not {mult!r}")
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
    The parts of rho are folded in one at a time, merging equal partial types
    in plain dicts; the stretched parts r * sigma of every sigma are built
    once per part length r and shared by every rho and partial type.
    """
    nu = Partition(nu_parts)
    n = nu.weight
    mfac = factorial(m)
    sign = -1 if flavor is PlethysmFlavor.COLUMN else 1
    sigmas = [(s.parts, sign ** (m - len(s)) * (mfac // z_order(s))) for s in partitions_of(m)]
    stretched: dict[int, list[tuple[tuple[int, ...], int]]] = {}
    acc: dict[tuple[int, ...], int] = {}
    for rho in partitions_of(n):
        chi = character_value(nu, rho)
        if chi == 0:
            continue
        partial = {(): chi * factorial(n) // z_order(rho) * mfac ** (n - len(rho))}
        for r in rho.parts:
            scaled = stretched.get(r)
            if scaled is None:
                scaled = stretched[r] = [(tuple(r * x for x in s), ws) for s, ws in sigmas]
            grown: dict[tuple[int, ...], int] = {}
            for tau, w in partial.items():
                for s, ws in scaled:
                    key = tuple(sorted(tau + s, reverse=True))
                    grown[key] = grown.get(key, 0) + w * ws
            partial = grown
        for tau, w in partial.items():
            acc[tau] = acc.get(tau, 0) + w
    return tuple(sorted((tau, w) for tau, w in acc.items() if w))


def _times_power_sum(vec: Mapping[int, int], r: int, out: dict[int, int]) -> dict[int, int]:
    """Add the Schur vector ``vec`` ({bead mask: coefficient}) times p_r to ``out``.

    The mirror of the strip removal in :func:`_ribbon_strips` at m = 1: r zero
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


# The ribbon memo, one node per (suffix rho of a cycle type, m, flavor):
# (rho[0], the node of rho[1:], {bead mask of lam: <s_lam, prod_j f[p_{rho_j}]>}),
# where f is h_m (ROW) or e_m (COLUMN).  The empty suffix holds only the
# empty partition, at mask 0.
_EMPTY_PRODUCT: tuple = (0, None, {0: 1})
_RIBBON_CACHE: dict[tuple[tuple[int, ...], int, PlethysmFlavor], tuple] = {}


def _ribbon_node(rho: tuple[int, ...], m: int, flavor: PlethysmFlavor) -> tuple:
    """The ribbon-memo node of the weakly decreasing ``rho``, interned with its suffixes."""
    node = _RIBBON_CACHE.get((rho, m, flavor))
    if node is None:
        node = _EMPTY_PRODUCT
        for i in range(len(rho) - 1, -1, -1):
            node = _RIBBON_CACHE.setdefault((rho[i:], m, flavor), (rho[i], node, {}))
    return node


def _ribbon_strips(mask: int, r: int, m: int, column: bool) -> list[tuple[int, int]]:
    """(bead mask left, sign) for each strip of m ribbons of length r of ``mask``.

    The terms of the adjoint of multiplying by h_m[p_r] (ROW) or e_m[p_r]
    (COLUMN), a horizontal or vertical strip of r-ribbons (Lascoux-Leclerc-
    Thibon, J. Math. Phys. 38, 1997).  On r runners (positions mod r) beads
    move down, from the lowest up, by whole slots of r positions, m slots in
    all, each into a free position: under ROW strictly above the original
    position of the next lower bead on its runner and at or above 0, under
    COLUMN one slot at most.  The sign is (-1) to the beads strictly between
    the old and new position of each move, on the mask as it stands then
    (for COLUMN too: e_m[p_r] = (-1)^((r-1)m) omega(h_m[p_r]), and
    conjugating a ribbon flips its sign (r-1) times).  At m = 1 this is
    border-strip removal, whose values are character values.  A bead that
    lands at 0 joins the run of one-bits at the bottom, which are zero parts;
    shifting them out keeps the mask left in normal form.
    """
    moves = []  # (bead, its position, the slots it may move), lowest first
    capacity = 0
    rest = mask
    while rest:
        low = rest & -rest
        rest ^= low
        b = low.bit_length() - 1
        if column:
            room = int(b >= r)
        else:
            room, c = 0, b - r
            while c >= 0 and not mask >> c & 1:
                room += 1
                c -= r
        if room:
            moves.append((low, b, room))
            capacity += room
    # A partial strip is kept only while the beads above can still take the
    # slots it has left.
    states = [(mask, m, 0)] if m <= capacity else []  # (mask, slots left, sign parity)
    out = []
    for low, b, room in moves:
        capacity -= room
        grown = []
        for cur, left, odd in states:
            if left <= capacity:
                grown.append((cur, left, odd))
            c = b
            for d in range(1, (room if room < left else left) + 1):
                c -= r
                if cur >> c & 1:
                    break
                nxt = cur ^ low ^ (1 << c)
                parity = odd ^ ((cur >> (c + 1)) & ((1 << (b - c - 1)) - 1)).bit_count() & 1
                if d == left:
                    if nxt & 1:
                        nxt >>= (nxt ^ (nxt + 1)).bit_length() - 1
                    out.append((nxt, -1 if parity else 1))
                elif left - d <= capacity:
                    grown.append((nxt, left - d, parity))
        states = grown
    return out


def _ribbon_sum(mask: int, node: tuple, m: int, column: bool, weight: int) -> int:
    """<s_lam, prod_j f[p_{rho_j}]> for the bead ``mask`` of lam and rho's ``node``.

    ``weight`` is |rho|.  The first part r of rho, its largest, is stripped
    first.  The value of each partition mu left is read from, or stored in,
    the memo of the child node, whose suffix weighs |rho| - r; the value
    returned is stored by :func:`_ribbon_value`, at rho's node.

    A mu past the child's bound has value 0 and is skipped, neither searched
    nor stored: under ROW a mu with more than |rho| - r parts, under COLUMN
    one whose first part is above |rho| - r.  The bound holds because a ROW
    strip of r-ribbons removes at most r rows: bit 0 of the mask is clear
    before it, and a move lands strictly above the original position of the
    next lower bead on its runner, so afterwards positions 0 and r are never
    both occupied and at most r zero parts are shifted out.  The strips down
    to the empty partition thus remove at most |rho| - r rows from mu.  By
    omega every constituent of e_m[p_r] has at most r columns, so by
    Littlewood-Richardson a COLUMN strip lowers the first part by at most r.
    At m = 1 nothing is skipped: no partition has more parts, or a larger
    first part, than its weight.
    """
    r, child, _ = node
    memo = child[2]
    weight -= r
    total = 0
    for nxt, sign in _ribbon_strips(mask, r, m, column):
        if (nxt.bit_length() - nxt.bit_count() if column else nxt.bit_count()) > weight:
            continue
        term = memo.get(nxt)
        if term is None:
            term = memo[nxt] = _ribbon_sum(nxt, child, m, column, weight)
        total += sign * term
    return total


def _ribbon_value(mask: int, node: tuple, m: int, column: bool, weight: int) -> int:
    """The value of ``mask`` at ``node``: read, or found by :func:`_ribbon_sum` and stored.

    ``weight`` is the weight of the node's suffix rho.
    """
    values = node[2]
    value = values.get(mask)
    if value is None:
        value = values[mask] = _ribbon_sum(mask, node, m, column, weight)
    return value


def _check_guard(guard: int) -> None:
    if guard < 0:
        raise ValueError(f"guard must be nonnegative, got {guard}")


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
    identity; failures raise :class:`InternalConsistencyError`.  A negative
    guard raises ``ValueError``.
    """
    flavor = PlethysmFlavor(flavor)
    _check_guard(guard)
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

    The sum runs over the classes rho of S_|nu| with chi^nu(rho) != 0, at
    most p(|nu|) terms: w_rho = chi^nu(rho) |nu|!/z_rho times <s_lam, prod_j
    f[p_{rho_j}]> with f = h_m (ROW) or e_m (COLUMN), which removes one strip
    of m ribbons per part of rho, largest first, and is memoized per (suffix
    of rho, m, flavor).  A strip of m r-ribbons removes at most r rows
    (ROW) or r columns (COLUMN), so a partition left at a suffix of weight k
    with more than k rows (ROW) or a first part above k (COLUMN) cannot reach
    the empty partition: it is skipped, neither searched nor stored (the
    abacus argument is in :func:`_ribbon_sum`).  At m = 1 both flavors are
    the character values, read from and stored at the (rho, 1, ROW) nodes.
    The total is divided exactly by |nu|!; a remainder or a negative
    quotient raises :class:`InternalConsistencyError`.

    Permitted past the guard up to degree ``SINGLE_COEFFICIENT_LIMIT`` with a
    runtime warning.  ``table``, if given, is only checked to be of this
    degree; no character value of this degree is read.  A negative guard
    raises ``ValueError``.
    """
    flavor = PlethysmFlavor(flavor)
    _check_guard(guard)
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
    if m == 1:
        # e_1[p_r] = h_1[p_r] = p_r: the character values at (rho, 1, ROW).
        flavor = PlethysmFlavor.ROW
    mask = _beads(lam.parts)
    column = flavor is PlethysmFlavor.COLUMN
    n = nu.weight
    total = 0
    # s_nu o s_(1) = s_nu, so its weights are chi^nu(rho) n!/z_rho.
    for rho, w in _power_sum_coefficients(nu.parts, 1, PlethysmFlavor.ROW):
        total += w * _ribbon_value(mask, _ribbon_node(rho, m, flavor), m, column, n)
    return _quotient(total, factorial(n), lam)


def omega_check(nu: Partition, m: int, *, guard: int = DEFAULT_GUARD) -> bool:
    """Verify the omega-involution identity on labels.

    Conjugating every label of s_nu o s_(m) must give s_{nu'} o s_(1^m) when
    ``m`` is odd and s_nu o s_(1^m) when ``m`` is even.
    """
    row = plethysm_expansion(nu, m, PlethysmFlavor.ROW, guard=guard)
    partner = nu.conjugate() if m % 2 == 1 else nu
    col = plethysm_expansion(partner, m, PlethysmFlavor.COLUMN, guard=guard)
    return row.conjugated() == col
