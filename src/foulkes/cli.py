"""Command-line interface.

Subcommands: min-constituents, max-constituents, expand, verify, agaoka,
theta, families, certificate.  Output is deterministic: identical inputs
produce byte-identical text or JSON (schema version 1, labels in descending
lexicographic order).  Options must be spelled in full: a prefix such as
``--fl`` for ``--flavor`` is a usage error (exit 1).

Exit codes: 0 ok, 1 usage error, 2 degree guard exceeded or input refused as
too large, 3 verify mismatch, 4 internal consistency failure, 130 interrupted
(Ctrl-C), 120 output could not be written, 141 output pipe closed by its
reader.  The process ends through ``run`` whatever the outcome, argparse's
``--help`` and usage errors included, so 120 and 141 cover their text too.
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import sys
from typing import NoReturn, Sequence

from .constituents import (
    CharacterFlavor,
    CharacterSpec,
    Extremum,
    _report,
    certificate_from_closed_tuple,
    verify,
)
from .errors import GuardExceededError, InternalConsistencyError
from .families import (
    BlockKind,
    Family,
    FamilyTuple,
    enumerate_closed_families,
    family_type,
    is_minimal_tuple,
    tuple_from_json,
    tuple_to_json,
)
from .oracle import (
    DEFAULT_GUARD,
    PlethysmFlavor,
    plethysm_expansion,
)
from .partitions import parse_partition, partitions_of

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_GUARD = 2
EXIT_MISMATCH = 3
EXIT_INTERNAL = 4
EXIT_OUTPUT = 120  # CPython's status when the flush at exit fails
EXIT_INTERRUPTED = 130  # 128 + SIGINT
EXIT_PIPE = 141  # 128 + SIGPIPE

SCHEMA = 1


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage failures exit with status 1, whose failed
    writes of help or usage text raise, for ``run`` to report, instead of
    being dropped, and which takes only full option names, as do the
    subparsers ``add_parser`` makes with it: a prefix is a usage error."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)

    def _print_message(self, message, file=None):
        if message:
            try:
                (file or sys.stderr).write(message)
            except AttributeError:  # no stream at all, as argparse allows
                pass


def _guard(text: str) -> int:
    """The --guard value: a nonnegative int, else a usage error (exit 1)."""
    try:
        guard = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if guard < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {guard}")
    return guard


def _emit(args, payload: dict, text_lines: list[str], code: int = EXIT_OK) -> int:
    """Print the payload under the schema envelope, or the text lines; return ``code``."""
    if args.format == "json":
        print(json.dumps({"schema": SCHEMA, "command": args.command, **payload}, indent=2))
    else:
        for line in text_lines:
            print(line)
    return code


def _emit_expansion(args, fields: dict, header: str, expansion) -> int:
    """Emit a Schur expansion: one ``label: multiplicity`` line per constituent."""
    lines = [f"{header} degree={expansion.degree}"]
    lines.extend(f"  {lab}: {mult}" for lab, mult in expansion.items())
    return _emit(args, {**fields, **expansion.to_json_dict()}, lines)


def _label_list(labels) -> list[list[int]]:
    return [list(lab.parts) for lab in labels]


def _render_family(fam: Family) -> str:
    return ",".join("{" + ",".join(map(str, b)) + "}" for b in fam.blocks)


def _render_tuple(t: FamilyTuple) -> str:
    return " | ".join(map(_render_family, t.families))


def _cmd_constituents(args) -> int:
    nu = parse_partition(args.nu)
    flavor = CharacterFlavor(args.character)
    extremum = Extremum.MINIMAL if args.command == "min-constituents" else Extremum.MAXIMAL
    report = _report(args.m, nu, flavor, extremum)
    payload = {
        "character": flavor.value,
        "m": args.m,
        "nu": list(nu.parts),
        "degree": report.spec.degree,
        "labels": _label_list(report.labels),
    }
    lines = [
        f"{args.command} character={flavor.value} m={args.m} nu={nu} degree={report.spec.degree}"
    ]
    if args.no_witness:
        lines.extend(f"  {lab}" for lab in report.labels)
    else:
        payload["witnesses"] = {
            str(lab): tuple_to_json(report.witnesses[lab]) for lab in report.labels
        }
        lines.extend(
            f"  {lab}  witness: {_render_tuple(report.witnesses[lab])}"
            for lab in report.labels
        )
    return _emit(args, payload, lines)


def _cmd_expand(args) -> int:
    nu = parse_partition(args.nu)
    flavor = PlethysmFlavor(args.flavor)
    expansion = plethysm_expansion(nu, args.m, flavor, guard=args.guard)
    fields = {"m": args.m, "nu": list(nu.parts), "flavor": flavor.value}
    header = f"expand flavor={flavor.value} m={args.m} nu={nu}"
    return _emit_expansion(args, fields, header, expansion)


def _cmd_verify(args) -> int:
    if args.seed_sweep:
        if args.n is None:
            raise ValueError("--seed-sweep requires --n")
        if args.nu is not None:
            raise ValueError("--seed-sweep verifies every nu of weight --n; drop --nu")
        if args.n < 1:
            raise ValueError(f"--seed-sweep needs --n of at least 1, got {args.n}")
        nus = partitions_of(args.n)  # lazy: the guard refuses (n) before the rest is built
    else:
        if args.nu is None:
            raise ValueError("verify needs --nu (or --seed-sweep with --n)")
        if args.n is not None:
            raise ValueError("--n is read only with --seed-sweep; drop --n or --nu")
        nus = [parse_partition(args.nu)]
    cases = []
    for nu in nus:
        checks = [
            {
                "name": name,
                "theorem": _label_list(sorted(rule, reverse=True)),
                "oracle": _label_list(sorted(oracle, reverse=True)),
                "agree": rule == oracle,
            }
            for name, rule, oracle in verify(args.m, nu, guard=args.guard)
        ]
        cases.append(
            {
                "nu": list(nu.parts),
                "degree": args.m * nu.weight,
                "checks": checks,
                "agree": all(c["agree"] for c in checks),
            }
        )
    agree = all(case["agree"] for case in cases)
    payload = {"m": args.m, "cases": cases, "agree": agree}
    lines = []
    for case in cases:
        nu_text = ",".join(map(str, case["nu"]))
        for check in case["checks"]:
            verdict = "AGREE" if check["agree"] else "MISMATCH"
            shown = " ; ".join(",".join(map(str, lab)) for lab in check["theorem"])
            line = f"nu={nu_text} {check['name']}: {verdict} [{shown}]"
            if not check["agree"]:
                oracle_shown = " ; ".join(",".join(map(str, lab)) for lab in check["oracle"])
                line += f" oracle=[{oracle_shown}]"
            lines.append(line)
    lines.append(f"verdict: {'AGREE' if agree else 'MISMATCH'}")
    return _emit(args, payload, lines, EXIT_OK if agree else EXIT_MISMATCH)


def _cmd_agaoka(args) -> int:
    # ``special`` is imported here and in _cmd_theta, the only commands that use it.
    from .special import agaoka_lex_least

    data = agaoka_lex_least(args.m, args.n, BlockKind(args.kind))
    payload = {
        "m": args.m,
        "n": args.n,
        "kind": data.kind.value,
        "indices": list(data.indices),
        "residuals": list(data.residuals),
        "widths": list(data.widths),
        "assembled": list(data.assembled.parts),
    }
    lines = [
        f"agaoka kind={data.kind.value} m={args.m} n={args.n}",
        f"  indices={list(data.indices)} residuals={list(data.residuals)} widths={list(data.widths)}",
        f"  lex-least type: {data.assembled}",
    ]
    return _emit(args, payload, lines)


def _cmd_theta(args) -> int:
    from .special import theta_decomposition

    expansion = theta_decomposition(args.n)
    return _emit_expansion(args, {"n": args.n}, f"theta n={args.n}", expansion)


def _cmd_families(args) -> int:
    kind = BlockKind(args.kind)
    rows = [
        (fam, family_type(fam), is_minimal_tuple(FamilyTuple([fam])))
        for fam in enumerate_closed_families(args.m, args.n, kind)
    ]
    payload = {
        "m": args.m,
        "n": args.n,
        "kind": kind.value,
        "families": [
            {
                "blocks": [list(b) for b in fam.blocks],
                "type": list(ty.parts),
                "minimal": is_min,
            }
            for fam, ty, is_min in rows
        ],
    }
    lines = [f"closed families of shape ({args.m}^{args.n}) kind={kind.value}: {len(rows)}"]
    for fam, ty, is_min in rows:
        mark = "  [minimal]" if is_min else ""
        lines.append(f"  {_render_family(fam)}  type={ty}{mark}")
    return _emit(args, payload, lines)


def _cmd_certificate(args) -> int:
    if args.tuple is not None and args.tuple_file is not None:
        raise ValueError("--tuple and --tuple-file both give the tuple; pass only one")
    if args.tuple_file:
        try:
            with open(args.tuple_file, encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:  # a bad path is a usage error, unlike a failed write
            raise ValueError(str(exc)) from None
    elif args.tuple:
        data = json.loads(args.tuple)
    else:
        raise ValueError("certificate needs --tuple JSON or --tuple-file PATH")
    t = tuple_from_json(data)
    nu = parse_partition(args.nu)
    spec = CharacterSpec(args.m, nu, CharacterFlavor(args.character))
    label = certificate_from_closed_tuple(spec, t)
    payload = {
        "character": spec.flavor.value,
        "m": args.m,
        "nu": list(nu.parts),
        "kind": t.kind.value,
        "label": list(label.parts),
    }
    lines = [
        f"certificate character={spec.flavor.value} m={args.m} nu={nu}",
        f"  constituent with multiplicity >= 1: {label}",
    ]
    return _emit(args, payload, lines)


# Options shared by several commands: (flag, add_argument keywords).
_M = ("--m", {"type": int, "required": True})
_N = ("--n", {"type": int, "required": True})
_NU = ("--nu", {"required": True})
_GUARD = ("--guard", {"type": _guard, "default": DEFAULT_GUARD})
_KIND = ("--kind", {"choices": ("set", "multiset"), "default": "set"})
_CHARACTER = ("--character", {"choices": ("phi", "psi"), "default": "phi"})
_CONSTITUENTS = (
    _M,
    ("--nu", {"required": True, "help": "partition, e.g. 2,1,1"}),
    _CHARACTER,
    ("--no-witness", {"action": "store_true"}),
)

# command -> (help text, handler, options), in the order --help lists them.
_COMMANDS = {
    "min-constituents": ("minimal constituent labels", _cmd_constituents, _CONSTITUENTS),
    "max-constituents": ("maximal constituent labels", _cmd_constituents, _CONSTITUENTS),
    "expand": ("exact Schur expansion (oracle)", _cmd_expand, (
        _M, _NU, ("--flavor", {"choices": ("row", "column"), "default": "row"}), _GUARD,
    )),
    "verify": ("theorem engines vs oracle", _cmd_verify, (
        _M,
        ("--nu", {}),
        ("--n", {"type": int, "help": "weight of nu for --seed-sweep"}),
        ("--seed-sweep", {"action": "store_true", "help": "verify every nu of weight --n"}),
        _GUARD,
    )),
    "agaoka": ("lex-least single-family type", _cmd_agaoka, (_M, _N, _KIND)),
    "theta": ("decomposition of s_(1^n) o s_(2)", _cmd_theta, (_N,)),
    "families": ("closed families of one shape", _cmd_families, (_M, _N, _KIND)),
    "certificate": ("closed-tuple certificate", _cmd_certificate, (
        _M, _NU, _CHARACTER,
        ("--tuple", {"help": 'family tuple JSON, e.g. {"m":2,"kind":"set","families":[...]}'}),
        ("--tuple-file", {}),
    )),
}


def build_parser(argv: Sequence[str] | None = None) -> _Parser:
    """The argument parser; with ``argv``, only the command it names gets its arguments.

    ``_COMMANDS`` has one row per command: its help text, its handler and
    its options, each a ``(flag, add_argument keywords)`` pair that names
    an option several commands share once.  Every command is registered
    with its help text, so the top-level help and the choice check are
    those of the full parser.  A command given its arguments gets
    ``--format``, its row's options in order, its handler as ``func`` and
    its parser as ``parser``.  argparse hands argv to the subparser of the
    first token not starting with ``-`` (an earlier positional token would
    be an invalid choice), so arguments are added to that command alone
    when it is one, and to every command otherwise.
    """
    parser = _Parser(prog="foulkes", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    named = next((a for a in argv or () if not a.startswith("-")), None)
    for name, (help_text, handler, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name == named or named not in _COMMANDS:
            p.add_argument("--format", choices=("text", "json"), default="text")
            for flag, keywords in options:
                p.add_argument(flag, **keywords)
            p.set_defaults(func=handler, parser=p)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv)
    args, extras = parser.parse_known_args(argv)
    if extras:
        # An argument the command does not take gets the command's usage, as
        # its other usage errors do; with anything before the command, the
        # top level reports them all, as parse_args would.
        (args.parser if argv[0] == args.command else parser).error(
            f"unrecognized arguments: {' '.join(extras)}"
        )
    try:
        return args.func(args)
    except GuardExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (RecursionError, MemoryError, OverflowError) as exc:
        print(f"error: input refused as too large ({type(exc).__name__})", file=sys.stderr)
        return EXIT_GUARD
    except InternalConsistencyError as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> NoReturn:
    """Exit with ``main``'s status, skipping the interpreter's teardown.

    The entry point of ``python -m foulkes.cli`` and the ``foulkes`` script.
    A normal exit frees every module and object first, which costs a short
    command a good share of its process time; here the exit handlers run and
    stdout and stderr are flushed, and then the process ends at once.  The
    command holds no other open file or thread.  If the reader of stdout has
    closed the pipe, whether a print or the last flush finds it, the rest of
    the output goes to the null device and the status is 141, as for a
    process that SIGPIPE ends, with nothing on stderr.  Any other failed
    write (say the disk is full) does the same but prints one line on stderr
    and exits with 120, CPython's status for a failed flush at exit, so that
    buffered and unbuffered output agree.  Ctrl-C prints one line and exits
    with 130.  argparse's own exits (``--help``, usage errors) raise
    ``SystemExit`` in ``main``; its code is the status, and they end here
    too.
    """
    try:
        try:
            status = main()
        except SystemExit as exc:
            status = exc.code
        except KeyboardInterrupt:
            print("error: interrupted", file=sys.stderr)
            status = EXIT_INTERRUPTED
        atexit._run_exitfuncs()  # also unregisters them, so none runs twice
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError as exc:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            status = EXIT_PIPE
        else:
            try:
                print(f"error: cannot write output: {exc}", file=sys.stderr, flush=True)
            except OSError:
                pass  # stderr fails too: the status alone tells
            status = EXIT_OUTPUT
        atexit._run_exitfuncs()
    os._exit(status)


if __name__ == "__main__":
    run()
