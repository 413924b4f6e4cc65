"""Golden transcripts: every command in README.md, replayed byte for byte.

The README's library example is run as well, and its first print checked,
and the rule engine's reports and listings are checked against recorded
digests (see ``RULE_DIGESTS``).

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
    FamilyTuple,
    Partition,
    clear_caches,
    enumerate_closed_families,
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


if __name__ == "__main__":
    transcripts = [replay(argv) for argv in transcript_argvs()]
    GOLDEN.write_text(json.dumps(transcripts, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(transcripts)} transcripts in {GOLDEN}")
