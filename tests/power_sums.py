"""The plethysm's power-sum terms, the reference the oracle's class sums are checked against.

s_nu o s_(m) (ROW) or s_nu o s_(1^m) (COLUMN) = sum_tau c_tau p_tau: s_nu =
sum_rho chi^nu(rho)/z_rho p_rho, s_(m) and s_(1^m) expand over sigma with
coefficient 1/z_sigma resp. sign(sigma)/z_sigma, and p_r o p_s = p_{rs}, so each
choice of rho and one sigma per part of rho gives the cycle type tau built
from the stretched parts rho_j * sigma^{(j)}.  The oracle sums over the
classes rho only and adds strips of ribbons; these sums over tau read
nothing of that.
"""

from fractions import Fraction
from itertools import product
from math import factorial

from foulkes.oracle import PlethysmFlavor, character_value, z_order
from foulkes.partitions import Partition, partitions_of


def rational_power_sum_coefficients(nu, m, flavor):
    """{tau: c_tau} in Fractions, one sigma per part of rho, with no merging of partial types."""
    sigmas = [s.parts for s in partitions_of(m)]
    weights = []
    for s in partitions_of(m):
        w = Fraction(1, z_order(s))
        if flavor is PlethysmFlavor.COLUMN and (m - len(s)) % 2 == 1:
            w = -w
        weights.append(w)
    acc = {}
    for rho in partitions_of(nu.weight):
        chi = character_value(nu, rho)
        if chi == 0:
            continue
        for combo in product(range(len(sigmas)), repeat=len(rho)):
            w = Fraction(chi, z_order(rho))
            tau = []
            for r, i in zip(rho.parts, combo):
                w *= weights[i]
                tau.extend(r * x for x in sigmas[i])
            key = tuple(sorted(tau, reverse=True))
            acc[key] = acc.get(key, Fraction(0)) + w
    return {tau: c for tau, c in acc.items() if c}


def power_sum_terms(nu_parts, m, flavor):
    """(tau, c_tau n! m!^n) as sorted items: the integer fold over the parts of each rho.

    Scaled by the wreath order n! m!^n every weight is an integer, since
    z_rho divides n! and z_sigma divides m!.  The parts of rho are folded in
    one at a time, merging equal partial types; the stretched parts r *
    sigma of every sigma are built once per part length r.
    """
    nu = Partition(nu_parts)
    n = nu.weight
    mfac = factorial(m)
    sign = -1 if flavor is PlethysmFlavor.COLUMN else 1
    sigmas = [(s.parts, sign ** (m - len(s)) * (mfac // z_order(s))) for s in partitions_of(m)]
    stretched = {}
    acc = {}
    for rho in partitions_of(n):
        chi = character_value(nu, rho)
        if chi == 0:
            continue
        partial = {(): chi * factorial(n) // z_order(rho) * mfac ** (n - len(rho))}
        for r in rho.parts:
            if r not in stretched:
                stretched[r] = [(tuple(r * x for x in s), ws) for s, ws in sigmas]
            grown = {}
            for tau, w in partial.items():
                for s, ws in stretched[r]:
                    key = tuple(sorted(tau + s, reverse=True))
                    grown[key] = grown.get(key, 0) + w * ws
            partial = grown
        for tau, w in partial.items():
            acc[tau] = acc.get(tau, 0) + w
    return tuple(sorted((tau, w) for tau, w in acc.items() if w))


def by_characters(nu, m, lam, flavor):
    """<s_lam, plethysm> as sum c_tau chi^lam(tau) over the power-sum terms, divided exactly."""
    total = sum(
        w * character_value(lam, Partition(tau))
        for tau, w in power_sum_terms(nu.parts, m, flavor)
    )
    value, rem = divmod(total, factorial(nu.weight) * factorial(m) ** nu.weight)
    assert rem == 0
    return value
