import contextlib
import errno
import io
import json
import os
import subprocess
import sys

import pytest

from foulkes import cli, families
from foulkes.cli import (
    EXIT_GUARD,
    EXIT_INTERRUPTED,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_OUTPUT,
    EXIT_PIPE,
    EXIT_USAGE,
    main,
)
from foulkes.families import Family, FamilyTuple, is_minimal_tuple


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def outcome(capsys, argv):
    """Like ``run``, but argparse's ``SystemExit`` gives its code as the status."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def child_env():
    """The environment now, less PYTHONUNBUFFERED: output a process fails to
    flush before it exits is then lost, as it is for a user."""
    return {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}


def run_process(*argv, prelude=None):
    """The CLI in its own process, so that stderr is exactly what a user sees.

    With ``prelude``, the process runs that code and then ``foulkes.cli.run``
    with ``argv``, as the ``foulkes`` script does; else ``python -m foulkes.cli``.
    """
    if prelude is None:
        cmd = [sys.executable, "-m", "foulkes.cli", *argv]
    else:
        script = f"{prelude}\nfrom foulkes.cli import run\nrun()\n"
        cmd = [sys.executable, "-c", script, *argv]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(), timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


class TestConstituentCommands:
    def test_min_constituents_text(self, capsys):
        code, out, _ = run(
            capsys, "min-constituents", "--m", "2", "--nu", "2,1,1", "--character", "phi"
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[1].strip().startswith("4,2,1,1")
        assert lines[2].strip().startswith("3,3,2")
        assert "{1,2},{1,3},{1,4} | {1,2}" in lines[1]

    def test_min_constituents_json(self, capsys):
        code, out, _ = run(
            capsys,
            "min-constituents",
            "--m", "2", "--nu", "2,1,1", "--format", "json",
        )
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["schema"] == 1
        assert data["labels"] == [[4, 2, 1, 1], [3, 3, 2]]
        assert data["witnesses"]["4,2,1,1"] == {
            "m": 2,
            "kind": "set",
            "families": [[[1, 2], [1, 3], [1, 4]], [[1, 2]]],
        }

    def test_no_witness(self, capsys):
        code, out, _ = run(
            capsys,
            "max-constituents",
            "--m", "2", "--nu", "2,1,1", "--format", "json", "--no-witness",
        )
        data = json.loads(out)
        assert code == EXIT_OK
        assert data["labels"] == [[6, 1, 1], [5, 3]]
        assert "witnesses" not in data

    def test_psi_flavor(self, capsys):
        code, out, _ = run(
            capsys,
            "min-constituents",
            "--m", "2", "--nu", "1,1", "--character", "psi", "--format", "json",
        )
        assert code == EXIT_OK
        assert json.loads(out)["labels"] == [[2, 1, 1]]


class TestExpand:
    def test_json_schema(self, capsys):
        code, out, _ = run(
            capsys, "expand", "--m", "2", "--nu", "2,1,1", "--format", "json"
        )
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["degree"] == 8
        assert data["coefficients"]["4,2,1,1"] == 1
        assert data["coefficients"]["6,1,1"] == 1

    def test_guard_exit_code(self, capsys):
        code, _, err = run(capsys, "expand", "--m", "3", "--nu", "3,2,1")
        assert code == EXIT_GUARD
        assert "guard" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("expand", "--m", "2", "--nu", "2,1", "--guard", "-1"), "must be nonnegative, got -1"),
            (("verify", "--m", "2", "--nu", "2,1", "--guard", "-1"), "must be nonnegative, got -1"),
            (
                ("verify", "--m", "2", "--seed-sweep", "--n", "3", "--guard", "-5"),
                "must be nonnegative, got -5",
            ),
            (("expand", "--m", "2", "--nu", "2", "--guard", "abc"), "invalid int value: 'abc'"),
        ],
        ids=["expand", "verify", "seed-sweep", "not-an-int"],
    )
    def test_negative_guard_is_usage_error(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith(f": error: argument --guard: {message}\n")

    def test_guard_override(self, capsys):
        code, out, _ = run(
            capsys,
            "expand",
            "--m", "3", "--nu", "3,2,1", "--guard", "18", "--format", "json",
        )
        assert code == EXIT_OK
        assert json.loads(out)["degree"] == 18


class TestNoCharacterCache:
    """expand and verify compute character values in memory and write no file."""

    def test_cache_option_is_unrecognized(self, tmp_path):
        code, out, err = run_process(
            "expand", "--m", "2", "--nu", "2,1", "--cache", str(tmp_path)
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "error: unrecognized arguments: --cache" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("expand", "--m", "2", "--nu", "2,1", "--format", "json"),
            ("verify", "--m", "2", "--n", "3", "--seed-sweep"),
        ],
        ids=["expand", "verify"],
    )
    def test_cache_variable_is_inert(self, tmp_path, monkeypatch, argv):
        monkeypatch.delenv("FOULKES_CACHE_DIR", raising=False)
        plain = run_process(*argv)
        monkeypatch.setenv("FOULKES_CACHE_DIR", str(tmp_path))
        code, out, _ = run_process(*argv)
        assert plain[0] == code == EXIT_OK
        assert out == plain[1]
        assert list(tmp_path.iterdir()) == []


class TestRefusals:
    def test_deep_search_is_refused_without_traceback(self, tmp_path):
        # Deeper than every supported interpreter's JSON nesting limit (the C
        # scanner of 3.13 parses 10**4 levels); too long for an inline argv.
        nested = tmp_path / "nested.json"
        nested.write_text("[" * 10**6 + "]" * 10**6)
        code, out, err = run_process(
            "certificate", "--m", "2", "--nu", "2", "--tuple-file", str(nested)
        )
        assert code == EXIT_GUARD
        assert out == ""
        assert err.startswith("error: ") and "too large" in err
        assert "Traceback" not in err

    def test_oversized_part_is_refused_without_traceback(self):
        # A part past the platform's index size cannot be the length of a list.
        code, out, err = run_process(
            "min-constituents", "--m", "2", "--nu", "99999999999999999999"
        )
        assert code == EXIT_GUARD
        assert out == ""
        assert err.startswith("error: ") and "input refused as too large" in err
        assert "Traceback" not in err

    def test_deep_shape_tuple_is_answered(self):
        # 1500 one-block components, each folded in one step of a loop.
        code, out, err = run_process(
            "min-constituents", "--m", "3", "--nu", ",".join(["1"] * 1500), "--no-witness"
        )
        assert code == EXIT_OK, err
        assert [line.strip() for line in out.splitlines()[1:]] == [",".join(["3"] * 1500)]

    @pytest.mark.parametrize(
        "tuple_json",
        [
            "[1]",
            '{"m":2}',
            '{"m":2,"kind":"set","families":5}',
            '{"m":2,"kind":"set","families":[[5]]}',
            '{"m":2,"kind":"set","families":[[[true,2]]]}',
        ],
        ids=[
            "not-an-object",
            "missing-keys",
            "families-not-a-list",
            "block-not-a-list",
            "boolean-element",
        ],
    )
    def test_malformed_tuple_is_usage_error(self, tuple_json):
        code, out, err = run_process(
            "certificate", "--m", "2", "--nu", "2", "--tuple", tuple_json
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ") and '"families"' in err
        assert "Traceback" not in err


class TestVerify:
    def test_agree(self, capsys):
        code, out, _ = run(capsys, "verify", "--m", "2", "--nu", "2,1,1")
        assert code == EXIT_OK
        assert "verdict: AGREE" in out

    def test_seed_sweep(self, capsys):
        code, out, _ = run(capsys, "verify", "--m", "2", "--n", "3", "--seed-sweep")
        assert code == EXIT_OK
        assert out.count("min-phi: AGREE") == 3  # p(3) = 3 partitions

    def test_sweep_requires_n(self, capsys):
        code, _, err = run(capsys, "verify", "--m", "2", "--seed-sweep")
        assert code == EXIT_USAGE
        assert "requires --n" in err

    def test_n_without_sweep_is_usage_error(self, capsys):
        code, out, err = run(capsys, "verify", "--m", "2", "--nu", "2,1", "--n", "3")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ") and "--n" in err

    def test_nu_with_sweep_is_usage_error(self, capsys):
        code, out, err = run(
            capsys, "verify", "--m", "2", "--seed-sweep", "--n", "2", "--nu", "5,1"
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ") and "--nu" in err

    def test_sweep_past_the_guard_is_refused_before_enumerating(self, capsys, monkeypatch):
        import foulkes.cli as cli

        drawn = []
        real = cli.partitions_of

        def counting(n):
            for nu in real(n):
                drawn.append(nu)
                yield nu

        monkeypatch.setattr(cli, "partitions_of", counting)
        code, out, err = run(capsys, "verify", "--m", "2", "--seed-sweep", "--n", "9")
        assert code == EXIT_GUARD
        assert out == "" and "guard" in err
        assert len(drawn) <= 1  # (9) is drawn first, and degree 18 is past the guard

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_sweep_of_no_partitions_is_usage_error(self, capsys, n):
        code, out, err = run(capsys, "verify", "--m", "2", "--seed-sweep", "--n", n)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: --seed-sweep needs --n of at least 1, got {n}\n"

    def test_json_payload(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--m", "2", "--nu", "2", "--format", "json"
        )
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["agree"] is True
        assert {c["name"] for c in data["cases"][0]["checks"]} == {
            "min-phi",
            "max-phi",
            "min-psi",
        }

    def test_mismatch_exit_code(self, capsys, monkeypatch):
        # force a disagreement in the report verify reads, to exercise the
        # dedicated exit code
        import foulkes.constituents as constituents
        from foulkes.constituents import CharacterFlavor, ConstituentReport, Extremum

        real = constituents._report

        def broken(m, nu, flavor, extremum):
            rep = real(m, nu, flavor, extremum)
            if (flavor, extremum) != (CharacterFlavor.PHI, Extremum.MINIMAL):
                return rep
            return ConstituentReport(rep.spec, rep.extremum, (), {})

        monkeypatch.setattr(constituents, "_report", broken)
        code, out, _ = run(capsys, "verify", "--m", "2", "--nu", "2,1")
        assert code == EXIT_MISMATCH
        assert "MISMATCH" in out
        assert "min-phi: MISMATCH [] oracle=[" in out


class TestOtherCommands:
    def test_agaoka(self, capsys):
        code, out, _ = run(
            capsys, "agaoka", "--m", "2", "--n", "4", "--kind", "set", "--format", "json"
        )
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["assembled"] == [4, 3, 1]
        assert data["indices"] == [3, 1]

    def test_theta(self, capsys):
        code, out, _ = run(capsys, "theta", "--n", "4", "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["coefficients"] == {"5,1,1,1": 1, "4,3,1": 1}

    def test_families_marks_minimal(self, capsys):
        code, out, _ = run(
            capsys, "families", "--m", "2", "--n", "4", "--kind", "set", "--format", "json"
        )
        assert code == EXIT_OK
        data = json.loads(out)
        types = {tuple(f["type"]) for f in data["families"]}
        assert (4, 3, 1) in types
        assert any(f["minimal"] for f in data["families"])
        # the listing marks a family from its own types; the library decides
        # each one-component tuple on its own
        for kind in ("set", "multiset"):
            for m in range(1, 5):
                for n in range(9):
                    code, out, _ = run(
                        capsys, "families", "--m", str(m), "--n", str(n), "--kind", kind,
                        "--format", "json",
                    )
                    assert code == EXIT_OK
                    for row in json.loads(out)["families"]:
                        fam = Family(m, kind, row["blocks"])
                        assert row["minimal"] == is_minimal_tuple(FamilyTuple([fam])), (m, n)

    def test_families_builds_each_type_once(self, capsys, monkeypatch):
        # One type per listed family: the minimal flag reads the family's
        # count vector, not a second type.
        calls = []
        tuple_type = families.tuple_type

        def counted(t):
            calls.append(t)
            return tuple_type(t)

        monkeypatch.setattr(families, "tuple_type", counted)
        for kind in ("set", "multiset"):
            calls.clear()
            code, out, _ = run(
                capsys, "families", "--m", "3", "--n", "5", "--kind", kind, "--format", "json"
            )
            assert code == EXIT_OK
            listed = json.loads(out)["families"]
            assert len(listed) > 1 and any(row["minimal"] for row in listed)
            assert len(calls) == len(listed), kind

    def test_families_empty_shape_is_minimal(self, capsys):
        # the one family of shape (m^0) is the empty family, a minimal tuple
        code, out, _ = run(capsys, "families", "--m", "2", "--n", "0", "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["families"] == [{"blocks": [], "type": [], "minimal": True}]

    def test_families_of_a_long_shape(self):
        # 2000 blocks deep: the search keeps its nodes on a list, not the call stack
        code, out, err = run_process("families", "--m", "1", "--n", "2000")
        assert code == EXIT_OK and err == ""
        lines = out.splitlines()
        assert lines[0] == "closed families of shape (1^2000) kind=set: 1"
        assert len(lines) == 2 and lines[1].endswith("type=2000  [minimal]")

    @pytest.mark.parametrize(
        "argv, blocks",
        [
            (("families", "--m", "1200", "--n", "1"), [list(range(1, 1201))]),
            (
                ("families", "--m", "3000", "--n", "2", "--kind", "multiset"),
                [[1] * 3000, [1] * 2999 + [2]],
            ),
        ],
    )
    def test_families_of_a_wide_block(self, argv, blocks):
        # 1200 and 3000 elements a block: the least block is written whole,
        # not found by a recursion one call deep per element
        code, out, err = run_process(*argv, "--format", "json")
        assert code == EXIT_OK and err == ""
        families = json.loads(out)["families"]
        assert [f["blocks"] for f in families] == [blocks]
        assert families[0]["minimal"]

    def test_constituents_of_a_wide_block(self):
        code, out, err = run_process(
            "min-constituents", "--m", "1200", "--nu", "1", "--format", "json"
        )
        assert code == EXIT_OK and err == ""
        data = json.loads(out)
        assert data["labels"] == [[1200]]
        assert data["witnesses"]["1200"]["families"] == [[list(range(1, 1201))]]

    def test_certificate_inline(self, capsys):
        tuple_json = json.dumps(
            {
                "m": 3,
                "kind": "set",
                "families": [
                    [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]],
                    [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]],
                ],
            }
        )
        code, out, _ = run(
            capsys,
            "certificate",
            "--m", "3", "--nu", "4,4", "--tuple", tuple_json, "--format", "json",
        )
        assert code == EXIT_OK
        assert json.loads(out)["label"] == [4, 4, 4, 4, 4, 4]

    def test_certificate_file(self, capsys, tmp_path):
        path = tmp_path / "tuple.json"
        path.write_text(
            json.dumps({"m": 2, "kind": "set", "families": [[[1, 2], [1, 3]], [[1, 2]]]})
        )
        code, out, _ = run(
            capsys,
            "certificate",
            "--m", "2", "--nu", "2,1", "--tuple-file", str(path), "--format", "json",
        )
        assert code == EXIT_OK
        assert json.loads(out)["label"] == [3, 2, 1]

    def test_certificate_of_psi_from_a_set_tuple(self, capsys):
        # psi_nu is the sign twist of phi_kappa: the label is the conjugate
        # of the tuple's type, here the self-conjugate (4,2,1,1), and the
        # column expansion lists it.
        code, out, _ = run(
            capsys,
            "certificate",
            "--m", "2", "--nu", "2,1,1", "--character", "psi",
            "--tuple", '{"m":2,"kind":"set","families":[[[1,2],[1,3],[1,4]],[[1,2]]]}',
        )
        assert code == EXIT_OK
        assert out.splitlines()[-1] == "  constituent with multiplicity >= 1: 4,2,1,1"
        code, out, _ = run(capsys, "expand", "--m", "2", "--nu", "2,1,1", "--flavor", "column")
        assert code == EXIT_OK and "  4,2,1,1: 1" in out.splitlines()

    def test_certificate_of_a_huge_element_is_not_closed(self, capsys):
        code, out, err = run(
            capsys,
            "certificate",
            "--m", "2", "--nu", "1",
            "--tuple", '{"m":2,"kind":"set","families":[[[1,99999999999999999999]]]}',
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: certificate requires a closed tuple\n"

    def test_certificate_refuses_both_tuple_options(self, capsys, tmp_path):
        path = tmp_path / "tuple.json"
        path.write_text(json.dumps({"m": 2, "kind": "set", "families": [[[1, 2]]]}))
        code, out, err = run(
            capsys,
            "certificate",
            "--m", "2", "--nu", "1",
            "--tuple", '{"m":2,"kind":"set","families":[[[1,2]]]}',
            "--tuple-file", str(path),
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ") and "--tuple " in err and "--tuple-file" in err

    def test_certificate_shape_mismatch_is_usage_error(self, capsys):
        code, _, err = run(
            capsys,
            "certificate",
            "--m", "2", "--nu", "2,1,1",
            "--tuple", '{"m":2,"kind":"set","families":[[[1,2]]]}',
        )
        assert code == EXIT_USAGE
        assert "shapes" in err

    @pytest.mark.parametrize("name, reason", [
        ("missing.json", "[Errno 2] No such file or directory"),
        ("", "[Errno 21] Is a directory"),
    ], ids=["missing", "directory"])
    def test_an_unreadable_tuple_file_is_usage_error(self, capsys, tmp_path, name, reason):
        path = str(tmp_path / name) if name else str(tmp_path)
        code, out, err = run(capsys, "certificate", "--m", "2", "--nu", "1", "--tuple-file", path)
        assert (code, out, err) == (EXIT_USAGE, "", f"error: {reason}: {path!r}\n")


class FullStream:
    """A stdout on which every write fails as on a full disk."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def flush(self):
        pass


class TestExitPath:
    """``python -m foulkes.cli`` and the ``foulkes`` script exit through ``cli.run``,
    which skips the interpreter's teardown: what main printed, its status and
    the exit handlers must all come through."""

    @pytest.mark.parametrize("fmt, size", [("text", 347_944), ("json", 2_384_092)])
    def test_a_long_listing_comes_out_whole(self, capsys, fmt, size):
        argv = ("families", "--m", "2", "--n", "40", "--kind", "set", "--format", fmt)
        code, out, err = run_process(*argv)
        assert (code, err) == (EXIT_OK, "")
        assert len(out.encode()) == size
        assert (code, out, err) == run(capsys, *argv)

    @pytest.mark.parametrize(
        "argv, code, usage",
        [
            (("expand", "--m", "2", "--nu", "2,1", "--guard", "-1"), EXIT_USAGE, True),
            (("expand", "--m", "2", "--nu", "1,2"), EXIT_USAGE, False),
            (("expand", "--m", "3", "--nu", "3,2,1"), EXIT_GUARD, False),
            (("expand", "--m", "2"), EXIT_USAGE, True),
        ],
        ids=["bad-guard", "bad-partition", "guard-exceeded", "missing-nu"],
    )
    def test_exit_codes_pass_through(self, capsys, monkeypatch, argv, code, usage):
        # argparse's usage errors (usage, then one error line) end through run
        # as main's own errors do: the status, stdout and stderr of main in process.
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal
        got, out, err = run_process(*argv)
        assert (got, out) == (code, "")
        assert err.startswith("usage: foulkes expand ") == usage
        assert err.count("error: ") == 1 and "Traceback" not in err
        assert (got, out, err) == outcome(capsys, argv)

    @pytest.mark.parametrize("argv", [("--help",), ("expand", "-h")], ids=["help", "expand-h"])
    def test_help_is_what_main_prints_with_status_0(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as info:
            main(list(argv))
        out = capsys.readouterr()
        assert (info.value.code, out.err) == (EXIT_OK, "")
        assert out.out.startswith("usage: foulkes")
        assert run_process(*argv) == (EXIT_OK, out.out, "")

    def test_exit_handlers_run(self):
        prelude = "import atexit\natexit.register(print, 'handler ran')"
        code, out, err = run_process("theta", "--n", "3", prelude=prelude)
        assert (code, err) == (EXIT_OK, "")
        assert out.splitlines()[0] == "theta n=3 degree=6"
        assert out.splitlines()[-1] == "handler ran"

    def test_a_closed_pipe_is_reported_once(self):
        # A print in the command meets the closed pipe: no usage error, and
        # the status a SIGPIPE death gives, as `foulkes ... | head` expects.
        proc = subprocess.Popen(
            [sys.executable, "-m", "foulkes.cli", "families", "--m", "2", "--n", "40"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(),
        )
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=120) == EXIT_PIPE
        assert err == ""

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [("theta", "--n", "3"), ("--help",)], ids=["theta", "help"])
    def test_a_failed_last_flush_takes_the_normal_exit(self, argv, unbuffered):
        # The output fits the buffer and the pipe is closed before it is
        # flushed: run's last flush meets the closed pipe, and the exit is
        # the one a print meeting it takes, quiet and with status 141.
        # Unbuffered, the first write meets it; argparse's help is no
        # different.
        env = child_env()
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "foulkes.cli", *argv],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (EXIT_PIPE, b"")

    def test_an_output_error_is_not_a_usage_error(self, monkeypatch):
        # main reports no failed write; run does, once, with status 120.
        monkeypatch.setattr(sys, "stdout", FullStream())
        with pytest.raises(OSError) as info:
            main(["theta", "--n", "3"])
        assert info.value.errno == errno.ENOSPC

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full here")
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "argv",
        [("theta", "--n", "3"), ("--help",), ("expand", "--help")],
        ids=["theta", "help", "expand-help"],
    )
    def test_a_full_disk_is_one_line_and_status_120(self, argv, unbuffered):
        # Buffered, the last flush meets the full disk; unbuffered, the first
        # print, or argparse's write of the help, does.  Either way: one line
        # on stderr, no traceback, 120.
        env = child_env()
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        with open("/dev/full", "wb") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "foulkes.cli", *argv],
                stdout=full, stderr=subprocess.PIPE, env=env, timeout=120, text=True,
            )
            # With stderr full too, a usage error's line cannot be written
            # either, and the status alone tells.
            both = subprocess.run(
                [sys.executable, "-m", "foulkes.cli", "expand", "--m", "2", "--nu", "1,2"],
                stdout=full, stderr=full, env=env, timeout=120,
            )
        line = f"error: cannot write output: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
        assert (proc.returncode, proc.stderr) == (EXIT_OUTPUT, line)
        assert both.returncode == EXIT_OUTPUT

    def test_ctrl_c_is_one_line_and_status_130(self):
        prelude = (
            "import foulkes.special\n"
            "def interrupt(n):\n"
            "    raise KeyboardInterrupt\n"
            "foulkes.special.theta_decomposition = interrupt"
        )
        code, out, err = run_process("theta", "--n", "3", prelude=prelude)
        assert (code, out, err) == (EXIT_INTERRUPTED, "", "error: interrupted\n")


COMMANDS = [
    "min-constituents", "max-constituents", "expand", "verify",
    "agaoka", "theta", "families", "certificate",
]


# argv, and the one command whose arguments main builds for it (None: every command).
PARSER_CASES = [((name, "--help"), name) for name in COMMANDS] + [
    ((), None),
    (("--help",), None),
    (("not-a-command",), None),
    (("--format", "json", "verify"), None),  # "json" is the command argparse reads
    (("--format=json", "verify", "--m", "2", "--nu", "2"), "verify"),
    (("expand", "--nu", "2,1"), "expand"),
    (("expand", "--m", "2", "--nu", "2,1", "--flavor", "diagonal"), "expand"),
    (("verify", "--m", "2", "--seed-sweep"), "verify"),
    (("verify", "--m", "x", "--nu", "2"), "verify"),
    (("theta", "--n", "3", "extra"), "theta"),
    (("families", "--m", "2", "--n", "3", "--format", "json"), "families"),
]


def subparsers(parser):
    """The subcommands of ``parser``: name -> parser, in order."""
    (action,) = (a for a in parser._actions if a.dest == "command")
    return action.choices


def with_arguments(parser):
    """The subcommands of ``parser`` that have more arguments than --help, in order."""
    return [name for name, p in subparsers(parser).items() if p._actions[1:]]


class TestParserPerCommand:
    """main builds the arguments of the named command only; what a user sees
    must be what the full parser, ``build_parser()``, gives."""

    def test_the_full_parser_has_every_command(self):
        assert with_arguments(cli.build_parser()) == COMMANDS

    @pytest.mark.parametrize(
        "argv, named", PARSER_CASES, ids=[" ".join(argv) or "no-command" for argv, _ in PARSER_CASES]
    )
    def test_output_and_exit_code_are_the_full_parsers(self, capsys, monkeypatch, argv, named):
        built = []
        real = cli.build_parser

        def recording(argv=None):
            parser = real(argv)
            built.append(parser)
            return parser

        monkeypatch.setattr(cli, "build_parser", recording)
        got = outcome(capsys, argv)
        monkeypatch.setattr(cli, "build_parser", lambda argv=None: real())
        assert got == outcome(capsys, argv)
        assert with_arguments(built[0]) == ([named] if named else COMMANDS)


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["not-a-command"])
        assert exc.value.code == EXIT_USAGE

    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["expand", "--nu", "2,1"])
        assert exc.value.code == EXIT_USAGE

    def test_bad_partition_text(self, capsys):
        code, _, err = run(capsys, "expand", "--m", "2", "--nu", "1,2")
        assert code == EXIT_USAGE
        assert "weakly decreasing" in err

    @pytest.mark.parametrize("text, part", [("2,,1", ""), ("a", "a"), ("2.5", "2.5"), ("1e3", "1e3")])
    def test_non_integer_part_names_partition_and_part(self, capsys, text, part):
        code, out, err = run(capsys, "expand", "--m", "2", "--nu", text)
        assert code == EXIT_USAGE and out == ""
        assert err == f"error: partition {text!r} has a part that is not an integer: {part!r}\n"

    def test_empty_nu_rejected_for_constituents(self, capsys):
        code, _, err = run(capsys, "min-constituents", "--m", "2", "--nu", "")
        assert code == EXIT_USAGE
        assert "nonempty" in err

    def test_bad_tuple_json(self, capsys):
        code, _, _ = run(
            capsys, "certificate", "--m", "2", "--nu", "2", "--tuple", "{not json"
        )
        assert code == EXIT_USAGE


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("min-constituents", "--m", "2", "--nu", "2,1,1", "--format", "json"),
            ("max-constituents", "--m", "2", "--nu", "2,1,1"),
            ("expand", "--m", "2", "--nu", "2,1", "--format", "json"),
            ("verify", "--m", "2", "--n", "3", "--seed-sweep", "--format", "json"),
            ("families", "--m", "2", "--n", "4", "--kind", "multiset"),
            ("theta", "--n", "5", "--format", "json"),
        ],
    )
    def test_byte_identical_reruns(self, capsys, argv):
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second


def fuzzed_argv(st, missing_file):
    """A command, or a junk token, then options in any order with small values.
    Each option of the command comes seven times in eight, one of any command
    once in eight, and an invalid choice or partition is one value in eight."""

    def mostly(usual, rare):
        """``usual`` seven draws in eight, else ``rare``."""
        return st.sampled_from([usual] * 7 + [rare]).flatmap(lambda chosen: chosen)

    def choices(*valid, invalid):
        return mostly(st.sampled_from(valid), st.just(invalid))

    ints = st.integers(-2, 6).map(str)
    valid_parts = st.lists(st.integers(1, 5), max_size=4).map(lambda p: sorted(p, reverse=True))
    partitions = mostly(valid_parts, st.lists(st.integers(-1, 5), max_size=4)).map(
        lambda p: ",".join(map(str, p))
    )
    tuples = st.one_of(
        st.fixed_dictionaries({
            "m": st.integers(-1, 3),
            "kind": choices("set", "multiset", invalid="bag"),
            "families": st.lists(st.lists(st.lists(st.integers(-1, 4), max_size=3), max_size=3), max_size=2),
        }).map(json.dumps),
        st.sampled_from(["{not json", "[]", "null", '{"m": 2}', '{"m": true, "kind": "set", "families": []}']),
    )
    values = {  # None: a flag without a value
        "--m": ints,
        "--n": ints,
        "--nu": partitions,
        "--guard": choices("0", "8", "16", invalid="-1"),
        "--kind": choices("set", "multiset", invalid="bag"),
        "--flavor": choices("row", "column", invalid="diagonal"),
        "--character": choices("phi", "psi", invalid="chi"),
        "--format": choices("text", "json", invalid="yaml"),
        "--tuple": tuples,
        "--tuple-file": st.just(missing_file),
        "--seed-sweep": None,
        "--no-witness": None,
    }

    def option(flag):
        if values[flag] is None:
            return st.just((flag,))
        return values[flag].map(lambda value: (flag, value))

    flags = {
        name: [a.option_strings[0] for a in p._actions[1:]]
        for name, p in subparsers(cli.build_parser()).items()
    }
    flags["not-a-command"] = list(values)
    nothing = st.just(())
    anything = st.sampled_from(list(values)).flatmap(option)

    def argv_of(head):
        own = [mostly(option(flag), nothing) for flag in flags[head]]
        return st.tuples(*own, mostly(nothing, anything)).flatmap(
            st.permutations
        ).map(lambda opts: [head, *(arg for opt in opts for arg in opt)])

    return st.sampled_from(list(flags)).flatmap(argv_of)


class TestExitContract:
    def test_every_argv_ends_in_a_documented_status(self, tmp_path):
        # main returns 0, 1 or 2, or argparse raises SystemExit(0 or 1); no
        # other exception escapes and nothing prints a traceback.
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hypothesis.settings(max_examples=300, derandomize=True, deadline=2000, database=None)
        @hypothesis.given(fuzzed_argv(st, str(tmp_path / "missing.json")))
        def check(argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    status = main(argv)
                except SystemExit as exc:
                    status = ("exit", exc.code)
            assert status in {EXIT_OK, EXIT_USAGE, EXIT_GUARD, ("exit", EXIT_OK), ("exit", EXIT_USAGE)}
            assert "Traceback" not in err.getvalue()

        check()
