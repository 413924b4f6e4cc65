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
from foulkes.families import Family, FamilyTuple, is_minimal_tuple


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

    @pytest.mark.parametrize(
        "n, message",
        [("0", "nu must be a nonempty partition"), ("-1", "cannot partition a negative integer")],
    )
    def test_sweep_of_no_partitions_is_usage_error(self, capsys, n, message):
        code, out, err = run(capsys, "verify", "--m", "2", "--seed-sweep", "--n", n)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: {message}\n"

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
