"""Golden transcripts: every command in README.md, replayed byte for byte.

The README's library example is run as well, and its first print checked.

Each README command is run with its ``--format`` option dropped, once as
text and once with ``--format json``.  ``golden/readme_commands.json`` holds
the argv, exit code and stdout of every run.  After an intended change of
output, re-record with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import shlex
from pathlib import Path

import pytest

from foulkes.cli import main

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


if __name__ == "__main__":
    transcripts = [replay(argv) for argv in transcript_argvs()]
    GOLDEN.write_text(json.dumps(transcripts, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(transcripts)} transcripts in {GOLDEN}")
