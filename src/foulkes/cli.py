"""Command-line interface.

Subcommands: min-constituents, max-constituents, expand, verify, agaoka,
theta, families, certificate.  Output is deterministic: identical inputs
produce byte-identical text or JSON (schema version 1, labels in descending
lexicographic order).

Exit codes: 0 ok, 1 usage error, 2 degree guard exceeded or input refused as
too large, 3 verify mismatch, 4 internal consistency failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

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
    tuple_from_json,
    tuple_to_json,
)
from .oracle import (
    DEFAULT_GUARD,
    PlethysmFlavor,
    plethysm_expansion,
)
from .partitions import dominance_minimal_elements, parse_partition, partitions_of

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_GUARD = 2
EXIT_MISMATCH = 3
EXIT_INTERNAL = 4

SCHEMA = 1


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage failures exit with status 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _emit(args, command: str, payload: dict, text_lines: list[str], code: int = EXIT_OK) -> int:
    """Print the payload under the schema envelope, or the text lines; return ``code``."""
    if args.format == "json":
        print(json.dumps({"schema": SCHEMA, "command": command, **payload}, indent=2))
    else:
        for line in text_lines:
            print(line)
    return code


def _emit_expansion(args, command: str, fields: dict, header: str, expansion) -> int:
    """Emit a Schur expansion: one ``label: multiplicity`` line per constituent."""
    lines = [f"{header} degree={expansion.degree}"]
    lines.extend(f"  {lab}: {mult}" for lab, mult in expansion.items())
    return _emit(args, command, {**fields, **expansion.to_json_dict()}, lines)


def _label_list(labels) -> list[list[int]]:
    return [list(lab.parts) for lab in labels]


def _render_family(fam: Family) -> str:
    return ",".join("{" + ",".join(map(str, b)) + "}" for b in fam.blocks)


def _render_tuple(t: FamilyTuple) -> str:
    return " | ".join(map(_render_family, t.families))


def _cmd_constituents(args, extremum: str) -> int:
    nu = parse_partition(args.nu)
    flavor = CharacterFlavor(args.character)
    report = _report(args.m, nu, flavor, Extremum(extremum))
    command = f"{extremum[:3]}-constituents"
    payload = {
        "character": flavor.value,
        "m": args.m,
        "nu": list(nu.parts),
        "degree": report.spec.degree,
        "labels": _label_list(report.labels),
    }
    lines = [
        f"{command} character={flavor.value} m={args.m} nu={nu} degree={report.spec.degree}"
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
    return _emit(args, command, payload, lines)


def _cmd_expand(args) -> int:
    nu = parse_partition(args.nu)
    flavor = PlethysmFlavor(args.flavor)
    expansion = plethysm_expansion(nu, args.m, flavor, guard=args.guard)
    fields = {"m": args.m, "nu": list(nu.parts), "flavor": flavor.value}
    header = f"expand flavor={flavor.value} m={args.m} nu={nu}"
    return _emit_expansion(args, "expand", fields, header, expansion)


def _cmd_verify(args) -> int:
    if args.seed_sweep:
        if args.n is None:
            raise ValueError("--seed-sweep requires --n")
        if args.nu is not None:
            raise ValueError("--seed-sweep verifies every nu of weight --n; drop --nu")
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
    return _emit(args, "verify", payload, lines, EXIT_OK if agree else EXIT_MISMATCH)


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
    return _emit(args, "agaoka", payload, lines)


def _cmd_theta(args) -> int:
    from .special import theta_decomposition

    expansion = theta_decomposition(args.n)
    return _emit_expansion(args, "theta", {"n": args.n}, f"theta n={args.n}", expansion)


def _cmd_families(args) -> int:
    kind = BlockKind(args.kind)
    fams = list(enumerate_closed_families(args.m, args.n, kind))
    # A closed family always has a type, and a one-component tuple is minimal
    # exactly when its type is dominance-minimal among all closed families of
    # its shape, which this listing holds.
    types = list(map(family_type, fams))
    minimal = dominance_minimal_elements(types)
    payload = {
        "m": args.m,
        "n": args.n,
        "kind": kind.value,
        "families": [
            {
                "blocks": [list(b) for b in fam.blocks],
                "type": list(ty.parts),
                "minimal": ty in minimal,
            }
            for fam, ty in zip(fams, types)
        ],
    }
    lines = [f"closed families of shape ({args.m}^{args.n}) kind={kind.value}: {len(fams)}"]
    for fam, ty in zip(fams, types):
        mark = "  [minimal]" if ty in minimal else ""
        lines.append(f"  {_render_family(fam)}  type={ty}{mark}")
    return _emit(args, "families", payload, lines)


def _cmd_certificate(args) -> int:
    if args.tuple is not None and args.tuple_file is not None:
        raise ValueError("--tuple and --tuple-file both give the tuple; pass only one")
    if args.tuple_file:
        with open(args.tuple_file, encoding="utf-8") as fh:
            data = json.load(fh)
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
    return _emit(args, "certificate", payload, lines)


def build_parser() -> _Parser:
    parser = _Parser(prog="foulkes", description=__doc__.splitlines()[0])
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    for extremum in ("minimal", "maximal"):
        name = f"{extremum[:3]}-constituents"
        p = sub.add_parser(name, parents=[common], help=f"{extremum} constituent labels")
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--nu", required=True, help="partition, e.g. 2,1,1")
        p.add_argument("--character", choices=("phi", "psi"), default="phi")
        p.add_argument("--no-witness", action="store_true")
        p.set_defaults(func=lambda a, e=extremum: _cmd_constituents(a, e))

    p = sub.add_parser("expand", parents=[common], help="exact Schur expansion (oracle)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--flavor", choices=("row", "column"), default="row")
    p.add_argument("--guard", type=int, default=DEFAULT_GUARD)
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("verify", parents=[common], help="theorem engines vs oracle")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--nu")
    p.add_argument("--n", type=int, help="weight of nu for --seed-sweep")
    p.add_argument("--seed-sweep", action="store_true", help="verify every nu of weight --n")
    p.add_argument("--guard", type=int, default=DEFAULT_GUARD)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("agaoka", parents=[common], help="lex-least single-family type")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kind", choices=("set", "multiset"), default="set")
    p.set_defaults(func=_cmd_agaoka)

    p = sub.add_parser("theta", parents=[common], help="decomposition of s_(1^n) o s_(2)")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_theta)

    p = sub.add_parser("families", parents=[common], help="closed families of one shape")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kind", choices=("set", "multiset"), default="set")
    p.set_defaults(func=_cmd_families)

    p = sub.add_parser("certificate", parents=[common], help="closed-tuple certificate")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--character", choices=("phi", "psi"), default="phi")
    p.add_argument("--tuple", help='family tuple JSON, e.g. {"m":2,"kind":"set","families":[...]}')
    p.add_argument("--tuple-file")
    p.set_defaults(func=_cmd_certificate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
