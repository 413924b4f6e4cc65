"""The three workloads: seeded request lists, how one request runs, and the
correctness gate each answer must pass.

``rules``      in-process library session of constituent reports and family
               listings (families, partitions and constituents; no oracle).
``verify-cli`` README commands plus seeded ``verify`` and ``expand`` commands,
               each its own ``python -m foulkes.cli`` process, sharing one
               fresh character cache directory per session.
``coeff``      in-process single coefficients at degrees 20-24, one in-memory
               ``CharacterTable`` per degree.

Requests are plain JSON-able dicts made from the seed alone; the library only
ever sees the inputs they spell out.  Why each workload and each size was
chosen is written down in NOTES.md.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from math import factorial

WORKLOADS = ("rules", "verify-cli", "coeff")
DEFAULT_SEED = 0

# ---------------------------------------------------------------------------
# Partition helpers of the benchmark's own, so the gate does not trust the
# code it checks.  Partitions are tuples of parts.


def conjugate(p):
    return tuple(sum(1 for x in p if x > j) for j in range(p[0])) if p else ()


def dominates(a, b):
    """Whether a dominates b (equal weights): every prefix sum of a is >= b's."""
    sa = sb = 0
    for i in range(max(len(a), len(b))):
        sa += a[i] if i < len(a) else 0
        sb += b[i] if i < len(b) else 0
        if sa < sb:
            return False
    return True


def minimal(items):
    items = set(items)
    return {p for p in items if not any(q != p and dominates(p, q) for q in items)}


def maximal(items):
    items = set(items)
    return {p for p in items if not any(q != p and dominates(q, p) for q in items)}


def is_antichain(items):
    return all(a == b or not dominates(a, b) for a in items for b in items)


def hook_dimension(p):
    conj = conjugate(p)
    prod = 1
    for i, row in enumerate(p):
        for j in range(row):
            prod *= row - j + conj[j] - i - 1
    return factorial(sum(p)) // prod


def all_partitions(n, top=None):
    top = n if top is None else top
    if n == 0:
        return [()]
    return [(k,) + rest for k in range(min(n, top), 0, -1) for rest in all_partitions(n - k, k)]


def digest(answer) -> str:
    text = json.dumps(answer, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _rng(workload, seed):
    return random.Random(f"{workload}:{seed}")


def _oriented(rng, parts):
    """The shape or its conjugate.  At odd m the four reports of nu and of nu'
    run the same enumerations, so the choice changes answers, not cost."""
    return list(parts) if rng.random() < 0.5 else list(conjugate(tuple(parts)))


# ---------------------------------------------------------------------------
# rules

# Multi-component shapes at m=3 in three cost tiers (all four reports of one
# shape, cold, on a 2-core x86 box: light 3-35 ms, medium 50-75 ms, heavy
# 160-230 ms).  The seed draws from each tier without replacement; the
# whole medium tier is used, so the median request falls inside it.
_LIGHT = [(5, 5), (6, 6), (6, 5), (5, 5, 5), (7, 5), (6, 5, 5), (7, 6), (7, 7), (8, 5)]
_MEDIUM = [(6, 6, 5), (8, 6), (6, 6, 6), (7, 5, 5), (9, 5)]
_HEAVY = [(7, 6, 5), (8, 5, 5), (7, 6, 6), (7, 7, 5), (9, 7), (9, 5, 5)]
# Single-row or single-column nu: one component of n blocks, where ideal
# enumeration dominates.  At even m only the column has a non-trivial answer.
_SINGLE = [(3, 14), (3, 15), (4, 11), (5, 10)]
# Listings (m, n): per-family minimality tests dominate.  The pair gets one
# set and one multiset listing, in seeded order, to keep the cost steady; the
# others take either kind.  n stays below the single-row slots, so no listing
# shares its ideals with a report.
_LISTING_PAIR = ((3, 11), (4, 9))
_LISTING_FREE = [(2, 14), (3, 10), (5, 8)]


def rules_requests(seed):
    rng = _rng("rules", seed)
    reqs = []
    for tier, k in ((_LIGHT, 6), (_MEDIUM, 5), (_HEAVY, 3)):
        for parts in rng.sample(tier, k):
            reqs.append({"op": "report", "m": 3, "nu": _oriented(rng, parts)})
    for m, n in _SINGLE:
        nu = _oriented(rng, (n,)) if m % 2 else [1] * n
        reqs.append({"op": "report", "m": m, "nu": nu})
    for (m, n), kind in zip(_LISTING_PAIR, rng.sample(["set", "multiset"], 2)):
        reqs.append({"op": "listing", "m": m, "n": n, "kind": kind})
    for m, n in _LISTING_FREE:
        reqs.append({"op": "listing", "m": m, "n": n, "kind": rng.choice(["set", "multiset"])})
    # Small cases at degree <= 12, which the gate checks against the oracle.
    for m, weight in ((2, 6), (3, 4), (4, 3)):
        reqs.append({"op": "report", "m": m, "nu": list(rng.choice(all_partitions(weight)))})
    reqs.append({"op": "listing", "m": 3, "n": 4, "kind": rng.choice(["set", "multiset"])})
    rng.shuffle(reqs)
    return reqs


_REPORTS = ("min-phi", "max-phi", "min-psi", "max-psi")


def run_rules(req):
    import foulkes.constituents as constituents
    import foulkes.families as families

    if req["op"] == "report":
        nu = constituents.Partition(req["nu"])
        m = req["m"]
        return [
            constituents.minimal_constituents_phi(m, nu),
            constituents.maximal_constituents_phi(m, nu),
            constituents.minimal_constituents_psi(m, nu),
            constituents.maximal_constituents_psi(m, nu),
        ]
    rows = []
    for fam in families.enumerate_closed_families(req["m"], req["n"], req["kind"]):
        ty = families.family_type(fam)
        rows.append((fam, ty, families.is_minimal_tuple(families.FamilyTuple([fam]))))
    return rows


def rules_answer(req, result):
    """JSON form of a rules answer: labels and witnesses, or listing rows."""
    from foulkes.families import tuple_to_json

    if req["op"] == "report":
        return {
            name: [[list(lab.parts), tuple_to_json(rep.witnesses[lab])] for lab in rep.labels]
            for name, rep in zip(_REPORTS, result)
        }
    return [
        [[list(b) for b in fam.blocks], list(ty.parts) if ty else None, flag]
        for fam, ty, flag in result
    ]


def _own_type(blocks):
    counts = {}
    for b in blocks:
        for x in b:
            counts[x] = counts.get(x, 0) + 1
    seq = [counts.get(i, 0) for i in range(1, max(counts, default=0) + 1)]
    return conjugate(tuple(seq))


def _oracle_extremes(nu, m):
    """Dominance-minimal and -maximal support of both plethysms."""
    from foulkes import Partition, plethysm_expansion

    out = {}
    for flavor, tag in (("row", "phi"), ("column", "psi")):
        support = [lab.parts for lab in plethysm_expansion(Partition(nu), m, flavor).support()]
        out["min-" + tag] = minimal(support)
        out["max-" + tag] = maximal(support)
    return out


def check_rules(req, answer):
    from foulkes import CharacterSpec, Partition, certificate_from_closed_tuple, tuple_from_json

    problems = []
    m = req["m"]
    if req["op"] == "report":
        nu = tuple(req["nu"])
        partner = nu if m % 2 == 0 else conjugate(nu)
        for name in _REPORTS:
            labels = [tuple(lab) for lab, _ in answer[name]]
            if labels != sorted(labels, reverse=True) or not is_antichain(labels):
                problems.append(f"{name}: labels are not a sorted dominance antichain")
            for lab, witness in answer[name]:
                t = tuple_from_json(witness)
                if name == "max-psi":
                    spec = CharacterSpec(m, Partition(partner), "phi")
                    got = certificate_from_closed_tuple(spec, t).conjugate()
                else:
                    spec = CharacterSpec(m, Partition(nu), name[4:])
                    got = certificate_from_closed_tuple(spec, t)
                if list(got.parts) != lab:
                    problems.append(f"{name}: witness of {lab} certifies {list(got.parts)}")
        if m * sum(nu) <= 12:
            for name, want in _oracle_extremes(nu, m).items():
                if {tuple(lab) for lab, _ in answer[name]} != want:
                    problems.append(f"{name}: differs from the oracle")
        return problems
    types = []
    for blocks, ty, _flag in answer:
        own = _own_type(blocks)
        types.append(own)
        if ty is None or tuple(ty) != own:
            problems.append(f"listing: type {ty} of {blocks} should be {list(own)}")
    least = minimal(types)
    if any(flag != (own in least) for (_, _, flag), own in zip(answer, types)):
        problems.append("listing: minimality flags differ from the minimal types")
    if m * req["n"] <= 12:
        n = req["n"]
        if req["kind"] == "set":
            want = _oracle_extremes((1,) * n if m % 2 == 0 else (n,), m)["min-phi"]
        else:
            want = {conjugate(p) for p in _oracle_extremes((1,) * n, m)["max-phi"]}
        if {own for (_, _, flag), own in zip(answer, types) if flag} != want:
            problems.append("listing: minimal types differ from the oracle")
    return problems


# ---------------------------------------------------------------------------
# coeff

# (m, nu choices, labels) slots: four at degree 24 and one at degree 20.
# The cheap degree-20 slot has twice the labels, so that the median request
# falls in the middle of the cheaper half of the degree-24 labels (m=3, 4),
# not on the edge between two slot groups.  The seed picks the flavor of
# each slot, nu only where the choices cost the same, and the labels, one
# from each twelfth (twenty-fourth) of the middle band of label shapes.
_COEFF_SLOTS = [
    (3, [(3, 3, 2)], 12),
    (4, [(3, 3), (4, 2), (3, 2, 1)], 12),
    (6, [(2, 2)], 12),
    (8, [(2, 1)], 12),
    (5, [(2, 2)], 24),
]


def _middle_band(p):
    """Labels with 4 to 8 parts and first part at most 10.

    The cost of one coefficient depends strongly on the label's shape (a
    one-row or a hook label is cheap, a balanced one dear), so labels drawn
    from all partitions made the median latency move by 14% from seed to
    seed.  Inside this band, where most constituents of these plethysms lie,
    it moves by about 5%."""
    return 4 <= len(p) <= 8 and p[0] <= 10


def _strata(items, k):
    """Split a list into k contiguous runs of near-equal length.

    Drawing one label from each run of the lexicographic order keeps the mix
    of label shapes, and so the cost of a session, nearly the same on every
    seed."""
    return [items[len(items) * i // k: len(items) * (i + 1) // k] for i in range(k)]


def coeff_requests(seed):
    rng = _rng("coeff", seed)
    reqs = []
    for m, choices, count in _COEFF_SLOTS:
        nu = list(rng.choice(choices))
        flavor = rng.choice(["row", "column"])
        labels = [p for p in all_partitions(m * sum(nu)) if _middle_band(p)]
        for stratum in _strata(labels, count):
            reqs.append({"nu": nu, "m": m, "flavor": flavor, "lam": list(rng.choice(stratum))})
    return reqs


class CoeffSession:
    """One in-memory character table per degree, shared by the session."""

    def __init__(self):
        self.tables = {}

    def run(self, req):
        import foulkes.oracle as oracle

        lam = oracle.Partition(req["lam"])
        table = self.tables.get(lam.weight)
        if table is None:
            table = self.tables[lam.weight] = oracle.CharacterTable(lam.weight)
        return oracle.multiplicity(
            oracle.Partition(req["nu"]), req["m"], lam, req["flavor"], table=table
        )


def check_coeff(req, value, extremes_cache):
    """Omega involution and the rules' interval for one coefficient."""
    import warnings

    from foulkes import Partition, constituents, multiplicity

    problems = []
    if not isinstance(value, int) or value < 0:
        return [f"coefficient {value!r} is not a nonnegative integer"]
    nu, m, lam = tuple(req["nu"]), req["m"], tuple(req["lam"])
    partner = nu if m % 2 == 0 else conjugate(nu)
    other = "column" if req["flavor"] == "row" else "row"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        twin = multiplicity(Partition(partner), m, Partition(conjugate(lam)), other)
    if twin != value:
        problems.append(f"omega partner gives {twin}, not {value}")
    key = (nu, m, req["flavor"])
    if key not in extremes_cache:
        tag = "phi" if req["flavor"] == "row" else "psi"
        lo = getattr(constituents, f"minimal_constituents_{tag}")(m, Partition(nu)).labels
        hi = getattr(constituents, f"maximal_constituents_{tag}")(m, Partition(nu)).labels
        extremes_cache[key] = ([p.parts for p in lo], [p.parts for p in hi])
    lo, hi = extremes_cache[key]
    if value and not (any(dominates(lam, a) for a in lo) and any(dominates(b, lam) for b in hi)):
        problems.append("nonzero coefficient outside the rules' extremal interval")
    if (lam in lo or lam in hi) and not value:
        problems.append("an extremal constituent of the rules has coefficient 0")
    return problems


# ---------------------------------------------------------------------------
# verify-cli

README_COMMANDS = [
    ["min-constituents", "--m", "2", "--nu", "2,1,1", "--character", "phi"],
    ["max-constituents", "--m", "2", "--nu", "2,1,1", "--format", "json", "--no-witness"],
    ["expand", "--m", "2", "--nu", "2,1,1", "--flavor", "row", "--format", "json"],
    ["verify", "--m", "2", "--nu", "2,1,1"],
    ["verify", "--m", "2", "--n", "4", "--seed-sweep"],
    ["agaoka", "--m", "2", "--n", "4", "--kind", "set"],
    ["theta", "--n", "5"],
    ["families", "--m", "2", "--n", "4", "--kind", "multiset"],
    [
        "certificate", "--m", "3", "--nu", "4,4", "--tuple",
        '{"m":3,"kind":"set","families":[[[1,2,3],[1,2,4],[1,3,4],[2,3,4]],'
        '[[1,2,3],[1,2,4],[1,3,4],[2,3,4]]]}',
    ],
]

# The seeded commands come in pairs: one expand and one verify of two
# different nu at the same degree, so the second reads the character table
# the first one wrote.  Four pairs at degree 12, three at 14 and one at 16:
# of the 25 commands the nine README ones are the cheapest (about 0.15 s of
# wall time, mostly start-up), so the median falls in the middle of the eight
# degree-12 commands, and with three sessions the tail (the 11th largest of
# 75 samples) falls inside the degree-14 samples, below the six degree-16
# ones, not on the edge between two cost groups.  At every degree the nu are
# those whose CLI commands cost about the same (within about 15% on a 2-core
# x86 box), so the seed moves answers more than cost.  At degree 12 that is
# m=2 without (3,2,1), which is about a quarter cheaper (m=3 and m=4 cost
# up to a quarter more).
_DEGREE_12 = [(2, nu) for nu in all_partitions(6) if nu != (3, 2, 1)]
_DEGREE_14 = [(2, nu) for nu in [(6, 1), (5, 2), (5, 1, 1), (4, 3), (4, 1, 1, 1), (3, 3, 1)]]
_DEGREE_16 = [
    (2, nu) for nu in [(5, 1, 1, 1), (4, 4), (4, 3, 1), (4, 2, 2), (4, 1, 1, 1, 1), (3, 3, 1, 1),
                       (3, 1, 1, 1, 1, 1)]
]
_CLI_PAIRS = [_DEGREE_12] * 4 + [_DEGREE_14] * 3 + [_DEGREE_16]


def _fmt(parts):
    return ",".join(map(str, parts))


def cli_requests(seed):
    rng = _rng("verify-cli", seed)
    seeded = []
    for options in _CLI_PAIRS:
        m = rng.choice(options)[0]
        first, second = rng.sample([nu for k, nu in options if k == m], 2)
        expand = ["expand", "--m", str(m), "--nu", _fmt(first),
                  "--flavor", rng.choice(["row", "column"]), "--format", "json"]
        verify = ["verify", "--m", str(m), "--nu", _fmt(second), "--format", "json"]
        seeded.append([expand, verify])
    reqs = [{"argv": argv, "readme": True} for argv in README_COMMANDS]
    reqs += [{"argv": argv, "readme": False} for pair in seeded for argv in pair]
    return reqs


def cli_command(req, traced, here):
    if traced:
        return [sys.executable, os.path.join(here, "clitrace.py"), *req["argv"]]
    return [sys.executable, "-m", "foulkes.cli", *req["argv"]]


def run_cli(cmd, env):
    proc = subprocess.run(cmd, env=env, capture_output=True, timeout=120)
    return {"code": proc.returncode, "stdout": proc.stdout.decode()}


def check_cli(req, answer, readme_digests):
    problems = []
    if answer["code"] != 0:
        return [f"exit code {answer['code']}"]
    argv = req["argv"]
    if req["readme"]:
        want = readme_digests.get(" ".join(argv))
        if want is not None and digest(answer) != want:
            problems.append("README output differs from the recorded output")
        if argv[0] == "verify" and not answer["stdout"].rstrip().endswith("verdict: AGREE"):
            problems.append("README verify does not agree")
        return problems
    payload = json.loads(answer["stdout"])
    if argv[0] == "verify":
        if payload.get("agree") is not True or not all(c["agree"] for c in payload["cases"]):
            problems.append('verify is not "agree": true')
        return problems
    m = int(argv[argv.index("--m") + 1])
    nu = tuple(int(x) for x in argv[argv.index("--nu") + 1].split(","))
    n = sum(nu)
    want = factorial(m * n) // (factorial(m) ** n * factorial(n)) * hook_dimension(nu)
    got = 0
    for label, mult in payload["coefficients"].items():
        lam = tuple(int(x) for x in label.split(","))
        if sum(lam) != m * n or not isinstance(mult, int) or mult < 1:
            problems.append(f"bad coefficient {label}: {mult}")
        got += mult * hook_dimension(lam)
    if got != want:
        problems.append(f"expansion has dimension {got}, not {want}")
    return problems


REQUESTS = {"rules": rules_requests, "verify-cli": cli_requests, "coeff": coeff_requests}
