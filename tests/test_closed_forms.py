"""The plethysm oracle against classical closed forms, past the default guard.

Each test cites the theorem it checks.  The theorems give exact answers at
any degree, independent of the strip walks, so the oracle is judged here up
to degree 100.  In this package's terms, h_n[h_m] is s_(n) o s_(m) (row
flavor) and h_n[e_m] is s_(n) o s_(1^m) (column flavor); e_n is s_(1^n).
"""

from __future__ import annotations

from foulkes.oracle import PlethysmFlavor, SchurExpansion, multiplicity, plethysm_expansion
from foulkes.partitions import Partition, distinct_part_partitions_of, partitions_of
from foulkes.special import theta_decomposition

ROW, COLUMN = PlethysmFlavor.ROW, PlethysmFlavor.COLUMN


def expand(nu: tuple[int, ...], m: int, flavor: PlethysmFlavor = ROW) -> SchurExpansion:
    nu = Partition(nu)
    return plethysm_expansion(nu, m, flavor, guard=m * nu.weight)


def multiplicity_free(degree: int, labels) -> SchurExpansion:
    return SchurExpansion(degree, dict.fromkeys(labels, 1))


def frobenius(arms: list[int], legs: list[int]) -> Partition:
    """The partition (arms | legs) in Frobenius notation: row i has
    arms[i] + i + 1 boxes and column j has legs[j] + j + 1 (0-based)."""
    rows = [a + i + 1 for i, a in enumerate(arms)]
    cols = [b + j + 1 for j, b in enumerate(legs)]
    rows += [sum(c > i for c in cols) for i in range(len(rows), max(cols, default=0))]
    return Partition(rows)


class TestThrall:
    """Thrall, Amer. J. Math. 64 (1942): h_2[h_m] is the sum of s_(2m-k, k)
    over even k <= m, and e_2[h_m] the same sum over odd k."""

    def test_two_fold_plethysms_up_to_degree_100(self):
        for m in range(1, 51):
            for nu, parity in (((2,), 0), ((1, 1), 1)):
                want = (Partition(p for p in (2 * m - k, k) if p) for k in range(parity, m + 1, 2))
                assert expand(nu, m) == multiplicity_free(2 * m, want), (nu, m)


class TestLittlewood:
    """Littlewood; Macdonald, Symmetric Functions and Hall Polynomials,
    2nd ed., ch. I.8, Ex. 6.  Each of the four plethysms of h_n or e_n with
    h_2 or e_2 is multiplicity-free, on the labels named in each test."""

    def test_h_n_of_h_2_has_the_even_parts(self):
        for n in range(1, 13):
            want = (lam for lam in partitions_of(2 * n) if all(p % 2 == 0 for p in lam))
            assert expand((n,), 2) == multiplicity_free(2 * n, want), n

    def test_h_n_of_e_2_has_the_even_columns(self):
        for n in range(1, 13):
            want = (
                lam for lam in partitions_of(2 * n) if all(p % 2 == 0 for p in lam.conjugate())
            )
            assert expand((n,), 2, COLUMN) == multiplicity_free(2 * n, want), n

    def test_e_n_of_h_2_is_theta(self):
        # lam = (a_1+1, ..., a_r+1 | a_1, ..., a_r) with a_1 > ... > a_r >= 0:
        # the parts alpha_i = a_i + 1 are distinct and sum to n.
        for n in range(1, 15):
            alphas = [list(alpha) for alpha in distinct_part_partitions_of(n)]
            want = (frobenius(alpha, [a - 1 for a in alpha]) for alpha in alphas)
            got = expand((1,) * n, 2)
            assert got == theta_decomposition(n) == multiplicity_free(2 * n, want), n

    def test_e_n_of_e_2(self):
        # lam = (a_1-1, ..., a_r-1 | a_1, ..., a_r) with a_1 > ... > a_r >= 1
        # summing to n.
        for n in range(1, 15):
            alphas = [list(alpha) for alpha in distinct_part_partitions_of(n)]
            want = (frobenius([a - 1 for a in alpha], alpha) for alpha in alphas)
            assert expand((1,) * n, 2, COLUMN) == multiplicity_free(2 * n, want), n


def test_dent_siemons_foulkes_conjecture_for_n_3():
    # Dent and Siemons, J. Algebra 226 (2000): h_3[h_m] <= h_m[h_3]
    # coefficientwise for m >= 3.
    for m in (4, 6, 8, 10):
        small, large = expand((3,), m), expand((m,), 3)
        assert all(c <= large[lam] for lam, c in small.items()), m


def _box_partitions(k: int, rows: int, width: int) -> int:
    """Partitions of k with at most ``rows`` parts, each at most ``width``."""
    if k == 0:
        return 1
    if rows == 0 or k < 0:
        return 0
    return sum(_box_partitions(k - p, rows - 1, p) for p in range(1, min(k, width) + 1))


def test_hermite_reciprocity_on_two_row_labels():
    # Hermite reciprocity: <s_(mn-k,k), h_n[h_m]> = <s_(mn-k,k), h_m[h_n]>.
    # The two sides are different plethysms, so unrelated strip sums.  Both
    # equal the Cayley-Sylvester count p(k) - p(k-1), p(k) the partitions of
    # k in an n x m box.
    for n, m in ((3, 8), (4, 9), (5, 8), (6, 8), (4, 12), (3, 16), (6, 10)):
        degree = m * n
        for k in range(degree // 2 + 1):
            lam = Partition(p for p in (degree - k, k) if p)
            a = multiplicity(Partition((n,)), m, lam, guard=degree)
            b = multiplicity(Partition((m,)), n, lam, guard=degree)
            want = _box_partitions(k, n, m) - _box_partitions(k - 1, n, m)
            assert a == b == want, (n, m, k)


def test_full_expansion_equals_single_coefficients():
    # Two kernels: the expansion adds strips over the class trie, a single
    # coefficient removes them from its label.  s_(3,3) o s_(6), degree 36.
    nu = Partition((3, 3))
    expansion = expand(nu.parts, 6)
    assert len(expansion) == 2273
    for lam, c in expansion.items():
        assert multiplicity(nu, 6, lam, guard=36) == c, lam
