"""Independent ground truth: exact Schur expansions of s_nu o s_(m) and s_nu o s_(1^m).

Partitions are bead masks: one integer whose set bits are the beta numbers,
so the strips of ribbons of a length, their signs and what each leaves or
makes are a few bit operations (the abacus of Loehr-Remmel, "A computational
and combinatorial expose of plethystic calculus", 2011).  Both paths sum
over the classes rho of S_n only, n = |nu|, with the integer weights
chi^nu(rho) n!/z_rho: s_nu o h_m = sum_rho chi^nu(rho)/z_rho prod_j
h_m[p_{rho_j}], and h_m[p_r] adds a horizontal strip of m ribbons of length
r.  A full expansion adds strips: it multiplies by one h_m[p_r] at a time
over the trie of the classes and divides each coefficient of the one vector
that results by n!.  A single coefficient removes strips: one memoized
recursion, :func:`_ribbon_value`, takes lam's mask down the suffixes of rho,
reading, computing and storing every value at its own (suffix, m) node, and
the sum is divided by n!.  One walk lists the strips of both directions.
The column flavor is s_nu o s_(1^m) = omega(s_kappa o s_(m)), kappa = nu for
even m and nu' for odd m (Macdonald, I.8): the row answers of kappa with
every label conjugated.  At m = 1, h_1[p_r] = p_r and the strips are single
border strips, so a character value chi^lam(rho) = <s_lam, p_rho> is the
memo's value at (rho, 1); those nodes are the one store of character values,
which a :class:`CharacterTable` saves to a file of one degree and loads from
it.  The monomial cross-oracle that checks this one is in
``tests/monomial.py``.
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
from .partitions import Partition, dimension, kappa_partition, partitions_of

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
    at rho's node (rho, 1) of the ribbon memo.
    """
    if lam.weight != rho.weight:
        raise ValueError(
            f"character arguments must have equal weight: |{lam}| != |{rho}|"
        )
    node = _ribbon_node(rho.parts, 1)
    return _ribbon_value(_beads(lam.parts), node, 1, rho.weight)


_TABLE_FILE = "characters-n{}.json"


class CharacterTable:
    """Character values of one degree on disk: a degree and a file format.

    The values live in the ribbon memo only, at its nodes (rho, 1).
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
            for (rho, m), node in _RIBBON_CACHE.items()
            if m == 1 and sum(rho) == self.degree
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
        held = _RIBBON_CACHE.get((rho, 1), _EMPTY_PRODUCT)[2]
        if entries.get((rho, mask), held.get(mask, v)) != v:
            raise ValueError(f"entry {key!r} holds {v}, not the value already held for it")
        entries[rho, mask] = v
    for (rho, mask), v in entries.items():
        _ribbon_node(rho, 1)[2].setdefault(mask, v)


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


def expected_dimension(nu: Partition, m: int) -> int:
    """Degree of the induced character: (mn)!/(m!^n n!) times dim chi^nu."""
    n = nu.weight
    index, rem = divmod(factorial(m * n), factorial(n) * factorial(m) ** n)
    if rem:
        raise InternalConsistencyError("wreath-product index is not an integer")
    return index * dimension(nu)


@lru_cache(maxsize=None)
def _power_sum_coefficients(nu_parts: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The class weights (rho, chi^nu(rho) n!/z_rho) of s_nu, n = |nu|, as sorted items.

    s_nu = sum_rho chi^nu(rho)/z_rho p_rho, and z_rho divides n!, so each
    weight is an integer.  Classes with chi^nu(rho) = 0 are left out.
    """
    nu = Partition(nu_parts)
    nfac = factorial(nu.weight)
    weights = []
    for rho in partitions_of(nu.weight):
        chi = character_value(nu, rho)
        if chi:
            weights.append((rho.parts, chi * nfac // z_order(rho)))
    return tuple(sorted(weights))


def _schur_vector(terms, m: int, depth: int = 0) -> dict[int, int]:
    """sum w prod_j h_m[p_{rho_j}] over ``terms`` (rho, w), j >= ``depth``, in the Schur basis.

    The vector is {bead mask: coefficient}.  The h_m[p_r] commute, so a rho
    may list its parts in any order.  ``terms`` is sorted and its rhos share
    their first ``depth`` parts, so those with the same part r at ``depth``
    are consecutive: their tails are summed first and multiplied by h_m[p_r]
    once, by :func:`_ribbon_strips_up` (Horner's rule on the trie of the
    classes).  A rho that ends at ``depth`` adds its weight to s_() at mask
    0.  Parts in increasing order share the most work: the many small parts
    form the shared prefixes, and the few large ones the tails, whose
    vectors are small.
    """
    vec: dict[int, int] = {}
    for r, run in groupby(terms, lambda term: term[0][depth] if len(term[0]) > depth else 0):
        if r:
            for mask, coeff in _schur_vector(list(run), m, depth + 1).items():
                if coeff:
                    for nxt, sign in _ribbon_strips_up(mask, r, m):
                        vec[nxt] = vec.get(nxt, 0) + sign * coeff
        else:
            vec[0] = sum(w for _, w in run)
    return vec


# The ribbon memo, one node per (suffix rho of a cycle type, m):
# (rho[0], the node of rho[1:], {bead mask of lam: <s_lam, prod_j h_m[p_{rho_j}]>}).
# The empty suffix holds only the empty partition, at mask 0.
_EMPTY_PRODUCT: tuple = (0, None, {0: 1})
_RIBBON_CACHE: dict[tuple[tuple[int, ...], int], tuple] = {}


def _ribbon_node(rho: tuple[int, ...], m: int) -> tuple:
    """The ribbon-memo node of the weakly decreasing ``rho``, interned with its suffixes."""
    node = _RIBBON_CACHE.get((rho, m))
    if node is None:
        node = _EMPTY_PRODUCT
        for i in range(len(rho) - 1, -1, -1):
            node = _RIBBON_CACHE.setdefault((rho[i:], m), (rho[i], node, {}))
    return node


def _ribbon_strips(mask: int, r: int, m: int) -> list[tuple[int, int]]:
    """(bead mask left, sign) for each strip of m ribbons of length r of ``mask``.

    The terms of the adjoint of multiplying by h_m[p_r], a horizontal strip
    of r-ribbons (Lascoux-Leclerc-Thibon, J. Math. Phys. 38, 1997).  On r
    runners (positions mod r) beads move down by whole slots of r positions,
    m slots in all, each into a free position strictly above the original
    position of the next lower bead on its runner and at or above 0.  The
    sign is (-1) to the beads crossed, so at r = 1 it is +1.  The moves
    start at the beads at r or above with the slot below free, one move per
    run of beads on a runner, from its lowest bead.  At m = 1 this is
    border-strip removal, whose values are character values.
    """
    return _strip_walk(mask, mask & ~mask << r, -r, m)


def _ribbon_strips_up(mask: int, r: int, m: int) -> list[tuple[int, int]]:
    """(bead mask, sign) for each strip of m ribbons of length r added to ``mask``.

    The adjoint of :func:`_ribbon_strips`, pair for pair and sign for sign:
    the terms of multiplying by h_m[p_r].  The mask is padded with r zero
    parts, as many rows as the strip can add; then beads move up by whole
    slots of r, m slots in all, each into a free position strictly below
    the original position of the next higher bead on its runner.  The moves
    start at the beads with the slot above free, one move per run, from its
    top bead.  Sign (+1 at r = 1) and shift are those of the removal.
    """
    padded = (mask << r) | ((1 << r) - 1)
    return _strip_walk(padded, padded & ~(padded >> r), r, m)


def _strip_walk(mask: int, starts: int, step: int, m: int) -> list[tuple[int, int]]:
    """(bead mask, sign) for each way to make m slot moves of ``step`` positions in all.

    A move starts at each bit of ``starts``, and its bead jumps d <= m
    slots over free positions.  The slots stay open whatever the other
    moves do, so a state is dropped once the moves after it cannot take the
    slots it has left, and every state kept finishes.  The sign is (-1) to
    the beads strictly inside the slots passed, on the mask as it stands
    then; beads of one runner never pass each other, so the order of the
    moves (highest first, fewer tries) does not change it, and at
    |step| = 1 a slot has no inside: unit-ribbon strips have sign +1.  Zero
    parts, one-bits at the bottom, are shifted out.
    """
    moves = []  # (bit, its position, the slots it may move)
    capacity = 0
    while starts:
        low = starts & -starts
        starts ^= low
        b = low.bit_length() - 1
        room, c = 1, b + 2 * step
        while room < m and c >= 0 and not mask >> c & 1:
            room += 1
            c += step
        moves.append((low, b, room))
        capacity += room
    span = (1 << abs(step) - 1) - 1  # a slot's inside, r - 1 positions
    shift = min(step, 0) + 1
    states = [(mask, m, 0)] if m <= capacity else []  # (mask, slots left, sign parity)
    out = []
    for low, b, room in moves[::-1]:
        capacity -= room
        grown = []
        for cur, left, odd in states:
            if left <= capacity:
                grown.append((cur, left, odd))
            c = b
            for d in range(1, (room if room < left else left) + 1):
                if span:
                    odd ^= (cur >> c + shift & span).bit_count() & 1
                c += step
                nxt = cur ^ low ^ (1 << c)
                if d == left:
                    if nxt & 1:
                        nxt >>= (nxt ^ (nxt + 1)).bit_length() - 1
                    out.append((nxt, -1 if odd else 1))
                elif left - d <= capacity:
                    grown.append((nxt, left - d, odd))
        states = grown
    return out


def _ribbon_value(mask: int, node: tuple, m: int, weight: int) -> int:
    """<s_lam, prod_j h_m[p_{rho_j}]> for the bead ``mask`` of lam at rho's ``node``.

    ``weight`` is |rho|.  A value held at the node is returned; otherwise
    the first part r of rho, its largest, is stripped, the value of each
    partition mu left is taken at the child node, whose suffix weighs
    |rho| - r, and the signed sum is stored at rho's node.

    A mu with more than |rho| - r parts has value 0 and is skipped, neither
    searched nor stored.  The bound holds because a strip of r-ribbons
    removes at most r rows: bit 0 of the mask is clear before it, and a
    move lands strictly above the original position of the next lower bead
    on its runner, so afterwards positions 0 and r are never both occupied
    and at most r zero parts are shifted out.  The strips down to the empty
    partition thus remove at most |rho| - r rows from mu.  At m = 1 nothing
    is skipped: no partition has more parts than its weight.
    """
    values = node[2]
    value = values.get(mask)
    if value is None:
        r, child, _ = node
        weight -= r
        value = 0
        for nxt, sign in _ribbon_strips(mask, r, m):
            if nxt.bit_count() <= weight:
                value += sign * _ribbon_value(nxt, child, m, weight)
        values[mask] = value
    return value


def _degree(
    nu: Partition, m: int, flavor: PlethysmFlavor | str, guard: int
) -> tuple[PlethysmFlavor, int]:
    """The flavor and the degree m|nu|, for a degree at most ``guard``.

    The one guard rule of the oracle: a bad flavor, a negative guard, an m
    below 1 or a degree above the guard raises, in that order.
    """
    flavor = PlethysmFlavor(flavor)
    if guard < 0:
        raise ValueError(f"guard must be nonnegative, got {guard}")
    if m < 1:
        raise ValueError("inner degree m must be at least 1")
    degree = m * nu.weight
    if degree > guard:
        raise GuardExceededError(
            f"degree {degree} exceeds the guard {guard}; raise the guard to proceed"
        )
    return flavor, degree


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
    guard raises ``ValueError``.  At m = 1 the expansion is s_nu itself,
    returned without the strip walk.  COLUMN is the ROW expansion of kappa
    (nu for even m, nu' for odd m) with every label conjugated, by
    s_nu o s_(1^m) = omega(s_kappa o s_(m)); dim kappa = dim nu, so the
    dimension check is that of nu.
    """
    flavor, degree = _degree(nu, m, flavor, guard)
    if flavor is PlethysmFlavor.COLUMN:
        return plethysm_expansion(kappa_partition(m, nu), m, guard=guard).conjugated()
    coeffs: dict[Partition, int] = {}
    if m == 1:  # s_nu o s_(1) = s_nu
        coeffs[nu] = 1
    else:
        scale = factorial(nu.weight)
        terms = sorted((rho[::-1], w) for rho, w in _power_sum_coefficients(nu.parts))
        # Labels missing from the vector, or at 0 in it, have coefficient 0.
        for mask, total in _schur_vector(terms, m).items():
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
    guard: int = SINGLE_COEFFICIENT_LIMIT,
    table: CharacterTable | None = None,
) -> int:
    """Single Schur coefficient without expanding the whole degree.

    The sum runs over the classes rho of S_|nu| with chi^nu(rho) != 0, at
    most p(|nu|) terms: w_rho = chi^nu(rho) |nu|!/z_rho times <s_lam, prod_j
    h_m[p_{rho_j}]>, which removes one strip of m ribbons per part of rho,
    largest first, and is memoized per (suffix of rho, m) by
    :func:`_ribbon_value`, which skips every partition past the row bound
    of its suffix and gives the argument for it.  A label with more than
    |nu| rows is 0 at once.  At m = 1 the values are the character values,
    read from and stored at the (rho, 1) nodes.  COLUMN is 0 at once for a
    label whose first part is above |nu|, and otherwise the ROW coefficient
    of lam' in s_kappa o s_(m) (kappa = nu for even m, nu' for odd m).
    The total is divided exactly by |nu|!; a remainder or a negative
    quotient raises :class:`InternalConsistencyError`.

    Refuses degrees above ``guard`` as :func:`plethysm_expansion` does; the
    guard defaults to ``SINGLE_COEFFICIENT_LIMIT`` here, not ``DEFAULT_GUARD``.
    ``table``, if given, is only checked to be of this degree; no character
    value of this degree is read.  A negative guard raises ``ValueError``.
    """
    flavor, degree = _degree(nu, m, flavor, guard)
    if lam.weight != degree:
        raise ValueError(f"label must have weight {degree}, got {lam.weight}")
    if table is not None and table.degree != degree:
        raise ValueError(f"table holds degree {table.degree} only")
    column = flavor is PlethysmFlavor.COLUMN
    n = nu.weight
    if (max(lam.parts, default=0) if column else len(lam.parts)) > n:
        return 0
    if column:  # s_nu o s_(1^m) = omega(s_kappa o s_(m))
        nu, lam = kappa_partition(m, nu), lam.conjugate()
    mask = _beads(lam.parts)
    total = 0
    for rho, w in _power_sum_coefficients(nu.parts):
        total += w * _ribbon_value(mask, _ribbon_node(rho, m), m, n)
    return _quotient(total, factorial(n), lam)
