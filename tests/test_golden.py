"""Golden transcripts: every command in README.md, replayed byte for byte.

The README's library example is run as well, and its first print checked,
and the rule engine's reports and listings are checked against recorded
digests (see ``RULE_DIGESTS``).  The closed families of each size, searched
or cut from a deeper size stored before, must list what a fresh search lists.

Each README command is run with its ``--format`` option dropped, once as
text and once with ``--format json``.  ``golden/readme_commands.json`` holds
the argv, exit code and stdout of every run.  After an intended change of
output, re-record with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shlex
from pathlib import Path

import pytest

from foulkes import (
    BlockKind,
    FamilyTuple,
    Partition,
    clear_caches,
    enumerate_closed_families,
    families,
    maximal_constituents_phi,
    maximal_constituents_psi,
    minimal_constituents_phi,
    minimal_constituents_psi,
    partitions_of,
)
from foulkes.cli import main
from foulkes.families import is_minimal_tuple, tuple_to_json

HERE = Path(__file__).resolve().parent
README = HERE.parent / "README.md"
GOLDEN = HERE / "golden" / "readme_commands.json"


def readme_commands() -> list[list[str]]:
    """argv of each ``foulkes`` command in the README's command-line block."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        words = shlex.split(line, comments=True)
        if words and words[0] == "foulkes":
            commands.append(words[1:])
    return commands


def transcript_argvs() -> list[list[str]]:
    argvs = []
    for argv in readme_commands():
        if "--format" in argv:
            i = argv.index("--format")
            argv = argv[:i] + argv[i + 2 :]
        for variant in (argv, argv + ["--format", "json"]):
            if variant not in argvs:
                argvs.append(variant)
    return argvs


def replay(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue()}


def _recorded() -> list[dict]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_every_readme_command_is_recorded():
    assert [t["argv"] for t in _recorded()] == transcript_argvs()


@pytest.mark.parametrize("argv", transcript_argvs(), ids=" ".join)
def test_transcript_replays_byte_for_byte(argv):
    recorded = {tuple(t["argv"]): t for t in _recorded()}
    assert replay(argv) == recorded[tuple(argv)]


def test_readme_library_example_runs():
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    blocks = section.split("\n## ", 1)[0].split("```python\n")[1:]
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(blocks[0].split("```", 1)[0], {})
    assert out.getvalue().splitlines()[0] == "['4,2,1,1', '3,3,2']"


REPORTS = (
    minimal_constituents_phi,
    maximal_constituents_phi,
    minimal_constituents_psi,
    maximal_constituents_psi,
)

# sha256 (first 16 hex digits) of the canonical JSON of every answer below,
# each keyed by its request.  After an intended change of output, copy the
# new digests from the failing assertion.
RULE_DIGESTS = {
    "reports": (4036, "ecc7437d3dfd8f93"),
    "listings": (110, "feebaf645dad91b6"),
}


def _digest(answers: dict) -> str:
    text = json.dumps(sorted(answers.items()), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def rule_digests() -> dict[str, tuple[int, str]]:
    """Digests of the four reports (labels and least witnesses) of every
    (m <= 4, nu) with m|nu| <= 16, and of every closed-family listing for
    m <= 5 and n <= 10 in both kinds (blocks, the count vector the search
    carries, and the one-component ``is_minimal_tuple`` flag), asked from
    empty memos in one seeded shuffled order."""
    requests = [
        ("report", report.__name__, m, nu.parts)
        for m in range(1, 5)
        for n in range(1, 16 // m + 1)
        for nu in partitions_of(n)
        for report in REPORTS
    ]
    requests += [
        ("listing", kind, m, n)
        for m in range(1, 6)
        for n in range(11)
        for kind in ("set", "multiset")
    ]
    random.Random(16).shuffle(requests)
    clear_caches()
    answers: dict[str, dict] = {"reports": {}, "listings": {}}
    reports = {report.__name__: report for report in REPORTS}
    for request in requests:
        what, name, m, arg = request
        if what == "report":
            rep = reports[name](m, Partition(arg))
            answer = [[list(lab.parts), tuple_to_json(rep.witnesses[lab])] for lab in rep.labels]
        else:
            answer = [
                [
                    [list(b) for b in fam.blocks],
                    getattr(fam, "_counts", None),
                    is_minimal_tuple(FamilyTuple([fam])),
                ]
                for fam in enumerate_closed_families(m, arg, name)
            ]
        answers[what + "s"][json.dumps(request)] = answer
    return {key: (len(found), _digest(found)) for key, found in answers.items()}


def test_rule_reports_and_listings_match_their_digests():
    assert rule_digests() == RULE_DIGESTS


def _listing(m: int, n: int) -> dict:
    """Blocks and carried count vectors of the closed families of (m^n), both kinds."""
    return {
        kind: [(fam.blocks, getattr(fam, "_counts", None)) for fam in fams]
        for kind, fams in families._closed_families(m, n).items()
    }


def _record(monkeypatch) -> tuple[list, list]:
    """The (m, n) of every closed-family search and the (deeper size, k) of
    every level cut from now on."""
    searched, cut = [], []
    search, cutter = families._search, families._cut

    def counted_search(m, n):
        searched.append((m, n))
        return search(m, n)

    def counted_cut(deeper, k):
        cut.append((deeper[BlockKind.MULTISET][0].size, k))
        return cutter(deeper, k)

    monkeypatch.setattr(families, "_search", counted_search)
    monkeypatch.setattr(families, "_cut", counted_cut)
    return searched, cut


@pytest.mark.parametrize("order", ["shuffled", "ascending", "descending"])
def test_grown_searches_list_what_fresh_searches_list(order, monkeypatch):
    # Ascending, every request is a fresh search; descending, every request
    # is cut from the size above it.
    requests = [(m, n) for m in range(1, 6) for n in range(13)]
    if order == "shuffled":
        random.Random(40).shuffle(requests)
    elif order == "descending":
        requests.reverse()
    searched, cut = _record(monkeypatch)
    clear_caches()
    grown = {request: _listing(*request) for request in requests}
    if order == "ascending":
        assert searched == [(m, n) for m, n in requests if n] and not cut
    elif order == "descending":
        assert searched == [(m, 12) for m in range(5, 0, -1)]
        assert cut == [(n + 1, n) for m, n in requests if 0 < n < 12]
    for request in requests:
        clear_caches()
        assert _listing(*request) == grown[request], request


# Closed families of n = 0, 1, 2, ... blocks (ROADMAP item 20).
LEVEL_SIZES = {
    3: [
        1, 1, 1, 2, 3, 4, 6, 9, 12, 17, 24, 32, 44, 60, 80, 107, 143, 188, 248, 326, 425, 553, 718
    ],
    4: [1, 1, 1, 2, 3, 5, 7, 11, 16, 24, 35, 50, 72, 103, 146, 206, 289],
}


def _level_sizes(m: int, n: int, monkeypatch) -> list[int]:
    """Sizes of levels 0, ..., n from one search to n, each smaller level cut
    from the level above."""
    clear_caches()
    searched, cut = _record(monkeypatch)
    list(enumerate_closed_families(m, n, "set"))
    assert sorted(families._LEVELS[m]) == [0, n]  # one search stored only n
    sizes = [len(list(enumerate_closed_families(m, k, "multiset"))) for k in range(n, -1, -1)]
    assert searched == [(m, n)]  # and never searched again
    assert cut == [(k + 1, k) for k in range(n - 1, 0, -1)]
    return sizes[::-1]


@pytest.mark.parametrize("m", sorted(LEVEL_SIZES))
def test_one_search_passes_every_smaller_level(m, monkeypatch):
    assert _level_sizes(m, len(LEVEL_SIZES[m]) - 1, monkeypatch) == LEVEL_SIZES[m]


def test_pairs_of_blocks_have_q_of_n_closed_families(monkeypatch):
    # At m = 2 a closed family is a shifted diagram, so there are q(n) of
    # them: partitions of n into distinct parts, the coefficients of
    # prod(1 + x^k).
    q = [1] + [0] * 50
    for k in range(1, 51):
        for n in range(50, k - 1, -1):
            q[n] += q[n - k]
    assert q[50] == 3658
    assert _level_sizes(2, 50, monkeypatch) == q


def test_a_deeper_request_keeps_the_families_built(monkeypatch):
    clear_caches()
    built = {n: families._closed_families(3, n) for n in (8, 5)}
    searched, cut = _record(monkeypatch)
    families._closed_families(3, 12)
    assert searched == [(3, 12)]  # a larger size is a fresh search
    for n, level in built.items():
        assert families._closed_families(3, n) is level
    for n in (10, 6, 4):
        families._closed_families(3, n)
    assert cut == [(12, 10), (8, 6), (5, 4)]  # each from the nearest deeper level
    assert sorted(families._LEVELS[3]) == [0, 4, 5, 6, 8, 10, 12]


@pytest.mark.parametrize(
    "before, n",
    [((), 12), ((5,), 12), ((12,), 7)],
    ids=["first-search", "second-search", "cut"],
)
def test_a_search_or_cut_stopped_partway_leaves_the_memo_as_it_was(before, n, monkeypatch):
    # Aim 3: a family built partway through (say a MemoryError or an
    # interrupt) stops the level, and the memo keeps only whole levels.
    clear_caches()
    fresh = _listing(3, n)
    clear_caches()
    for k in before:
        families._closed_families(3, k)
    kept = {m: dict(levels) for m, levels in families._LEVELS.items()}
    trusted = families.Family._trusted
    made = []

    def failing(cls, m, kind, blocks):
        made.append(blocks)
        if len(made) == 10:
            raise MemoryError("stopped partway")
        return trusted(m, kind, blocks)

    with monkeypatch.context() as patched:
        patched.setattr(families.Family, "_trusted", classmethod(failing))
        with pytest.raises(MemoryError):
            families._closed_families(3, n)
    assert len(made) == 10
    assert families._LEVELS.keys() == kept.keys()
    for m, levels in kept.items():
        assert families._LEVELS[m].keys() == levels.keys()
        assert all(families._LEVELS[m][k] is level for k, level in levels.items())
    assert _listing(3, n) == fresh


if __name__ == "__main__":
    transcripts = [replay(argv) for argv in transcript_argvs()]
    GOLDEN.write_text(json.dumps(transcripts, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(transcripts)} transcripts in {GOLDEN}")
