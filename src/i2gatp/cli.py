"""Command-line front end: pack, unpack, strip, validate, info, convert, check.

Exit codes are stable: 0 ok, 1 validation failed, 2 I/O or format error
(or any unexpected error, reported in one line), 3 usage error, 4 conjecture
falsified.  ``-`` selects stdin/stdout where a file path is expected.  The
environment variable I2GATP_EPS overrides the default check tolerance when
--eps is not given.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections import Counter
from pathlib import Path, PurePosixPath

from .container import (
    Entry,
    pack,
    problem_from_entries,
    read_container_entries,
    strip_to_i2g,
    suggested_filename,
    unpack,
    validate_container,
    validate_entries,
)
from .dsl import emit_dsl, emit_prover_input, parse_dsl, predicate_text
from .errors import DslSyntaxError, I2gatpError
from .model import ConstraintKind, GeoKind, Problem
from .numeric import CheckReport, Tolerance, Verdict, check_conjecture

EXIT_OK = 0
EXIT_VALIDATION_FAILED = 1
EXIT_IO_OR_FORMAT = 2
EXIT_USAGE = 3
EXIT_FALSIFIED = 4

NOT_A_PROOF = "note: randomized numeric check over finitely many sampled instances; not a proof"

JSON_SCHEMA_VERSION = 1


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: A003 - argparse API
        raise _UsageError(message)


def _read_bytes(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    return Path(path).read_bytes()


def _write_output(path: str, data: bytes) -> None:
    """Write a command's output to ``path``, then print the path; ``-``
    writes the bytes alone to stdout."""

    if path == "-":
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
        return
    Path(path).write_bytes(data)
    print(path)


def _entries_from_dir(root: Path) -> list[Entry]:
    entries: list[Entry] = []
    for current, dirnames, filenames in os.walk(root):
        rel = Path(current).relative_to(root)
        for name in dirnames + filenames:  # a link could lead a read out of the tree
            if os.path.islink(link := os.path.join(current, name)):
                raise OSError(f"{link} is a symbolic link")
        for d in sorted(dirnames):
            entries.append((str(PurePosixPath(rel / d)) + "/", None))
        for f in sorted(filenames):
            entries.append((str(PurePosixPath(rel / f)), (Path(current) / f).read_bytes()))
    return sorted(entries, key=lambda e: e[0])


def _print_violations(violations) -> None:
    for v in violations:
        # a name read from a directory keeps each byte that is not UTF-8 as
        # a lone surrogate, which a strict stream cannot encode
        print(f"{v.code} {v.path} {v.message}".encode("utf-8", "backslashreplace").decode("utf-8"))


def _cmd_pack(args) -> int:
    root = Path(args.input)
    if not root.is_dir():
        print(f"error: {args.input} is not a directory", file=sys.stderr)
        return EXIT_IO_OR_FORMAT
    entries = _entries_from_dir(root)
    violations = validate_entries(entries)
    if violations:
        _print_violations(violations)
        return EXIT_VALIDATION_FAILED
    problem = problem_from_entries(entries)
    out = args.out
    # the name only names the output file; one that is given is checked
    if args.name is not None or out is None:
        if args.name is None and problem.info is None:
            print("error: input has no information.xml; pass --name or --out", file=sys.stderr)
            return EXIT_IO_OR_FORMAT
        try:
            filename = suggested_filename(problem, args.name)
        except ValueError as exc:
            raise _UsageError(str(exc)) from None
        out = out or filename
    _write_output(out, pack(problem))
    return EXIT_OK


def _cmd_unpack(args) -> int:
    entries = read_container_entries(_read_bytes(args.archive))
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    resolved_root = outdir.resolve()
    # every target is checked before the first write, so a refused unpack
    # writes nothing
    targets = [(outdir / name).resolve() for name, _data in entries]
    for (name, _data), target in zip(entries, targets):
        if not target.is_relative_to(resolved_root):
            print(f"error: entry {name!r} escapes the output directory", file=sys.stderr)
            return EXIT_IO_OR_FORMAT
    for (_name, data), target in zip(entries, targets):
        if data is None:
            target.mkdir(parents=True, exist_ok=True)
        else:
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(data)
    print(str(outdir))
    return EXIT_OK


def _cmd_strip(args) -> int:
    _write_output(args.out, strip_to_i2g(_read_bytes(args.archive)))
    return EXIT_OK


def _cmd_validate(args) -> int:
    path = Path(args.path) if args.path != "-" else None
    if path is not None and path.is_dir():
        violations = validate_entries(_entries_from_dir(path), i2g=args.i2g)
    else:
        violations = validate_container(_read_bytes(args.path), i2g=args.i2g)
    if violations:
        _print_violations(violations)
        return EXIT_VALIDATION_FAILED
    return EXIT_OK


def _count_kinds(problem: Problem) -> str:
    counts = Counter(e.kind for e in problem.construction.elements)
    by_kind = ", ".join(f"{counts[kind]} {kind.value}s" for kind in GeoKind)
    return f"{len(problem.construction.elements)} ({by_kind})"


def _cmd_info(args) -> int:
    problem = unpack(_read_bytes(args.archive))
    name = problem.info.name if problem.info is not None else "(unnamed)"
    print(f"name: {name}")
    print(f"elements: {_count_kinds(problem)}")
    free = len(problem.construction.free_point_ids())
    opaque = sum(1 for c in problem.construction.constraints if c.kind is ConstraintKind.OPAQUE)
    print(f"constraints: {len(problem.construction.constraints)} ({free} free, {opaque} opaque)")
    if problem.conjecture is None:
        print("conjecture: none")
    else:
        c = problem.conjecture
        print(
            f"conjecture: {len(c.hypothesis)} hypotheses, {len(c.ndg)} ndg, "
            f"{len(c.conclusion)} conclusions"
        )
    if not problem.proofs:
        print("proofs: none")
    else:
        print("proofs:")
        for a in problem.proofs:
            print(f"  {a.prover} {a.version} {a.method} {a.status.value}")
    return EXIT_OK


def _dsl_text(data: bytes) -> str:
    """DSL source bytes as text; DslSyntaxError at the line of the first
    byte that is not UTF-8."""

    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise DslSyntaxError(line, f"not UTF-8: {exc.reason} at byte 0x{data[exc.start]:02x}") from None


def _load_problem(data: bytes, path: str) -> Problem:
    if path.endswith(".gcl") or not data.startswith(b"PK"):
        return parse_dsl(_dsl_text(data))
    return unpack(data)


def _cmd_convert(args) -> int:
    data = _read_bytes(args.input)
    if args.src_format == "dsl":
        problem = parse_dsl(_dsl_text(data))
    else:
        problem = unpack(data)
    if args.dst_format == "dsl":
        out = emit_dsl(problem).encode("utf-8")
    elif args.dst_format == "i2gatp":
        out = pack(problem)
    else:
        out = emit_prover_input(problem).encode("utf-8")
    _write_output(args.out, out)
    return EXIT_OK


def _report_json(report: CheckReport) -> dict:
    witness = None
    if report.witness is not None:
        witness = {
            "assignment": {fid: [x, y] for fid, (x, y) in report.witness.assignment},
            "predicate": predicate_text(report.witness.predicate),
        }
    return {
        "schema_version": JSON_SCHEMA_VERSION,
        "note": NOT_A_PROOF.removeprefix("note: "),
        "verdict": report.verdict.value,
        "samples_total": report.samples_total,
        "samples_degenerate": report.samples_degenerate,
        "samples_hypothesis_failed": report.samples_hypothesis_failed,
        "samples_checked": report.samples_checked,
        "witness": witness,
    }


def _cmd_check(args) -> int:
    problem = _load_problem(_read_bytes(args.input), args.input)
    # float, Tolerance and check_conjecture own the rules on these arguments;
    # nothing else in a check of a parsed problem raises ValueError
    try:
        eps = args.eps if args.eps is not None else float(os.environ.get("I2GATP_EPS", "1e-9"))
        report = check_conjecture(problem, args.trials, seed=args.seed, tol=Tolerance(eps_rel=eps))
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    if args.json:
        print(json.dumps(_report_json(report), sort_keys=True))
    else:
        print(NOT_A_PROOF)
        print(f"verdict: {report.verdict.value}")
        print(
            f"samples: {report.samples_total} total, {report.samples_checked} checked, "
            f"{report.samples_hypothesis_failed} hypothesis-failed, {report.samples_degenerate} degenerate"
        )
        if report.witness is not None:
            print(f"failing predicate: {predicate_text(report.witness.predicate)}")
            for fid, (x, y) in report.witness.assignment:
                print(f"  {fid} = ({x!r}, {y!r})")
    return EXIT_FALSIFIED if report.verdict is Verdict.FALSIFIED else EXIT_OK


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process and shared by every call."""

    parser = _Parser(prog="i2gatp", description="i2gatp container and conversion toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pack", help="pack a directory mirroring the container layout")
    p.add_argument("input")
    p.add_argument("--out", default=None)
    p.add_argument("--name", default=None, help="problem name of the file problem<NAME>.zip, if not the one in information.xml")
    p.set_defaults(func=_cmd_pack)

    p = sub.add_parser("unpack", help="extract a container safely")
    p.add_argument("archive")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_unpack)

    p = sub.add_parser("strip", help="extract the backwards-compatible i2g container")
    p.add_argument("archive")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_strip)

    p = sub.add_parser("validate", help="print all violations of a container or directory")
    p.add_argument("path")
    p.add_argument("--i2g", action="store_true", help="validate against the stripped i2g layout")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("info", help="summarize a container")
    p.add_argument("archive")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("convert", help="convert between dsl, i2gatp and prover input")
    p.add_argument("input")
    p.add_argument("--from", dest="src_format", required=True, choices=("dsl", "i2gatp"))
    p.add_argument("--to", dest="dst_format", required=True, choices=("dsl", "i2gatp", "proverinput"))
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("check", help="randomized numeric check of the conjecture")
    p.add_argument("input", help="container archive or .gcl file")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (I2gatpError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO_OR_FORMAT
    except Exception as exc:  # no traceback reaches the user; repr keeps it one line
        print(f"error: unexpected {exc!r}", file=sys.stderr)
        return EXIT_IO_OR_FORMAT
