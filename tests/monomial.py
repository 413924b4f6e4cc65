"""Monomial-expansion cross-oracle: Schur expansions by counting tableaux.

:func:`monomial_expansion` counts semistandard fillings by degree-m blocks
and peels Schur coefficients off the monomial counts by dominance
triangularity; its Kostka numbers are the same count at m = 1, whose
fillings are the semistandard tableaux.  It shares no code path with the
power-sum engine of :mod:`foulkes.oracle` and exists to cross-check it at
small degree.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, combinations_with_replacement

from foulkes.errors import InternalConsistencyError
from foulkes.oracle import PlethysmFlavor, SchurExpansion
from foulkes.partitions import DominanceRelation, Partition, dominance_compare, partitions_of

__all__ = ["monomial_expansion"]


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
    alphabet = [tuple(Counter(b).items()) for b in _block_alphabet(m, flavor, gamma)]
    last = [-1] * len(gamma)  # last[v - 1]: the last letter holding variable v
    for e, letter in enumerate(alphabet):
        for v, _ in letter:
            last[v - 1] = e
    # Cells in reading order: (left neighbor, upper neighbor, the row's first
    # cell if a row follows and this is not it), -1 for none.
    cells: list[tuple[int, int, int]] = []
    for i, row in enumerate(nu):
        top = len(cells)
        for j in range(row):
            left = top + j - 1 if j else -1
            up = top - nu[i - 1] + j if i else -1
            first = top if j and i + 1 < len(nu) else -1
            cells.append((left, up, first))
    budget = list(gamma)
    entries = [0] * len(cells) + [-1]  # entries[-1] stands for no neighbor

    def fill(pos: int) -> int:
        if pos == len(cells):
            return 1
        left, up, first = cells[pos]
        start = max(entries[left], entries[up] + 1)
        # Every cell left takes a letter at or past `low` (the rest of this row
        # at or past `start`, later rows past this row's first entry), so a
        # variable with budget left and no letter there ends the branch.
        low = min(start, entries[first] + 1) if first >= 0 else start
        for v, b in enumerate(budget):
            if b and last[v] < low:
                return 0
        total = 0
        for e in range(start, len(alphabet)):
            for v, c in alphabet[e]:
                if budget[v - 1] < c:
                    break
            else:
                for v, c in alphabet[e]:
                    budget[v - 1] -= c
                entries[pos] = e
                total += fill(pos + 1)
                for v, c in alphabet[e]:
                    budget[v - 1] += c
        return total

    return fill(0)


def monomial_expansion(
    nu: Partition, m: int, flavor: PlethysmFlavor | str = PlethysmFlavor.ROW
) -> SchurExpansion:
    """Brute-force Schur expansion via monomial coefficients.

    Counts plethystic fillings to get the coefficient of x^gamma for each
    partition gamma, then peels off Schur coefficients in descending
    lexicographic order using Kostka triangularity with respect to dominance;
    the Kostka number K_{kappa,lam} is the same count at m = 1.  Independent
    of the character-theoretic engine; intended for small degree.
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
                c -= ck * _plethystic_tableau_count(kappa.parts, 1, PlethysmFlavor.ROW, lam.parts)
        if c < 0:
            raise InternalConsistencyError(
                f"monomial peel produced a negative coefficient at ({lam})"
            )
        if c:
            coeffs[lam] = c
    return SchurExpansion(degree, coeffs)
