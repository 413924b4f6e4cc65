import json
import subprocess
import sys

import pytest

from foulkes.cli import (
    EXIT_GUARD,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_USAGE,
    main,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_process(*argv):
    """The CLI in its own process, so that stderr is exactly what a user sees."""
    proc = subprocess.run(
        [sys.executable, "-m", "foulkes.cli", *argv],
        capture_output=True, text=True, timeout=120,
    )
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

    def test_guard_override(self, capsys):
        code, out, _ = run(
            capsys,
            "expand",
            "--m", "3", "--nu", "3,2,1", "--guard", "18", "--format", "json",
        )
        assert code == EXIT_OK
        assert json.loads(out)["degree"] == 18

    def test_cache_file_created(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "expand", "--m", "2", "--nu", "2", "--cache", str(tmp_path)
        )
        assert code == EXIT_OK
        assert (tmp_path / "characters-n4.json").exists()

    def test_warm_cache_is_not_rewritten(self, capsys, tmp_path, monkeypatch):
        from foulkes.oracle import CharacterTable

        argv = ("expand", "--m", "2", "--nu", "2,1", "--cache", str(tmp_path))
        first = run(capsys, *argv)
        path = tmp_path / "characters-n6.json"
        stamp = path.stat().st_mtime_ns

        def refuse(self, cache_dir):
            raise AssertionError("a run that added no value rewrote the cache")

        monkeypatch.setattr(CharacterTable, "save_to", refuse)
        assert run(capsys, *argv) == first
        assert path.stat().st_mtime_ns == stamp

    def test_cache_env_var(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("FOULKES_CACHE_DIR", str(tmp_path))
        code, _, _ = run(capsys, "expand", "--m", "2", "--nu", "1,1")
        assert code == EXIT_OK
        assert (tmp_path / "characters-n4.json").exists()


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

    def test_garbage_cache_file_is_reported_and_ignored(self, tmp_path):
        argv = ("expand", "--m", "2", "--nu", "2,1", "--format", "json")
        empty, garbled = tmp_path / "empty", tmp_path / "garbled"
        garbled.mkdir()
        (garbled / "characters-n6.json").write_text("{not json")
        want = run_process(*argv, "--cache", str(empty))
        code, out, err = run_process(*argv, "--cache", str(garbled))
        assert want[0] == code == EXIT_OK
        assert out == want[1]
        assert "characters-n6.json" in err and "Warning" in err
        assert "Traceback" not in err
        assert (garbled / "characters-n6.json").read_text() == (
            empty / "characters-n6.json"
        ).read_text()

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

    def test_seed_sweep_with_cache(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("FOULKES_CACHE_DIR", raising=False)
        argv = ["verify", "--m", "2", "--n", "3", "--seed-sweep"]
        code, plain, _ = run(capsys, *argv)
        assert code == EXIT_OK
        code, cached, _ = run(capsys, *argv, "--cache", str(tmp_path))
        assert code == EXIT_OK
        assert cached == plain
        assert [p.name for p in tmp_path.iterdir()] == ["characters-n6.json"]

    def test_mismatch_exit_code(self, capsys, monkeypatch):
        # force a disagreement to exercise the dedicated exit code
        import foulkes.cli as cli
        from foulkes.constituents import ConstituentReport

        real = cli.minimal_constituents_phi

        def broken(m, nu):
            rep = real(m, nu)
            return ConstituentReport(rep.spec, rep.extremum, (), {})

        monkeypatch.setattr(cli, "minimal_constituents_phi", broken)
        code, out, _ = run(capsys, "verify", "--m", "2", "--nu", "2,1")
        assert code == EXIT_MISMATCH
        assert "MISMATCH" in out


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

    def test_families_of_a_long_shape(self):
        # 2000 blocks deep: the search keeps its nodes on a list, not the call stack
        code, out, err = run_process("families", "--m", "1", "--n", "2000")
        assert code == EXIT_OK and err == ""
        lines = out.splitlines()
        assert lines[0] == "closed families of shape (1^2000) kind=set: 1"
        assert len(lines) == 2 and lines[1].endswith("type=2000  [minimal]")

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

    def test_certificate_shape_mismatch_is_usage_error(self, capsys):
        code, _, err = run(
            capsys,
            "certificate",
            "--m", "2", "--nu", "2,1,1",
            "--tuple", '{"m":2,"kind":"set","families":[[[1,2]]]}',
        )
        assert code == EXIT_USAGE
        assert "shapes" in err


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
