"""Command-line pipeline: ingest, validate, detect, vocab, export.

Exit codes follow CI conventions: 0 success, 1 the graph has
validation ERRORs, 2 usage, I/O, or parse failure. WARN and INFO
findings never fail a run. A located error names its file, as
``error: <path>:<line>:<column>: <message>`` (CSV: no column).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .coi import detect_conflicts, findings_to_json
from .ingest import (
    CsvSyntaxError,
    HeaderMismatchError,
    IngestReport,
    build_graph,
    parse_contract_csv,
    parse_role_csv,
)
from .minting import MintConfig
from .rdf_core import Graph, Iri, ParseError, canonical_ntriples, parse_turtle, serialize_turtle
from .validate import Severity, check
from .vocab import builtin_vocabulary, vocabulary_graph

DEFAULT_BASE = "http://ehu.eus/tro/data/"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trokit",
        description="Build, validate, and query transparency knowledge graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ingest = sub.add_parser("ingest", help="turn contract/role CSV files into a Turtle graph")
    ingest.add_argument("--contracts", required=True, help="contracts CSV file")
    ingest.add_argument("--roles", required=True, help="role evidence CSV file")
    ingest.add_argument("--base", default=DEFAULT_BASE, help="IRI base for minted nodes")
    ingest.add_argument("--out", required=True, help="output Turtle file")

    validate = sub.add_parser("validate", help="run the rule catalog over a Turtle file")
    validate.add_argument("--in", dest="in_path", required=True, help="input Turtle file")
    validate.add_argument(
        "--report-format", choices=("text", "json"), default="text", help="report rendering"
    )

    detect = sub.add_parser("detect", help="detect candidate conflicts of interest")
    detect.add_argument("--in", dest="in_path", required=True, help="input Turtle file")
    detect.add_argument("--out", required=True, help="output findings JSON file")

    vocab = sub.add_parser("vocab", help="write the built-in vocabulary as Turtle")
    vocab.add_argument("--out", required=True, help="output Turtle file")

    export = sub.add_parser("export", help="re-serialize a Turtle file")
    export.add_argument("--in", dest="in_path", required=True, help="input Turtle file")
    export.add_argument(
        "--format", choices=("turtle", "ntriples"), default="ntriples", help="output syntax"
    )
    export.add_argument("--out", required=True, help="output file")
    return parser


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _write(path: str, text: str) -> None:
    """Write text to path, replacing a regular file only once the new
    bytes are complete, so a failed run leaves the earlier output as it
    was. Pipes and devices such as /dev/stdout are written in place."""
    target = Path(path)
    if target.exists() and not target.is_file():
        target.write_text(text, encoding="utf-8")
        return
    target = target.resolve()
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _print_ingest_report(label: str, report: IngestReport, out) -> None:
    print(f"{label}: {report.accepted} accepted, {len(report.rejected)} rejected", file=out)
    for row in report.rejected:
        print(f"  row {row.line}: {row.reason}", file=out)


def _read_csv(path: str, parse):
    try:
        return parse(_read(path))
    except CsvSyntaxError as exc:
        raise ValueError(f"{path}:{exc.line}: {exc.message}") from None
    except HeaderMismatchError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _read_graph(path: str) -> Graph:
    try:
        return parse_turtle(_read(path))
    except ParseError as exc:
        raise ValueError(f"{path}:{exc.line}:{exc.col}: {exc.message}") from None


def _cmd_ingest(args: argparse.Namespace, out, err) -> int:
    cfg = MintConfig(Iri(args.base))
    contracts, contract_report = _read_csv(args.contracts, parse_contract_csv)
    roles, role_report = _read_csv(args.roles, parse_role_csv)
    graph = build_graph(contracts, roles, cfg)
    _write(args.out, serialize_turtle(graph))
    _print_ingest_report("contracts", contract_report, out)
    _print_ingest_report("roles", role_report, out)
    print(f"wrote {len(graph)} triples to {args.out}", file=out)
    return 0


def _cmd_validate(args: argparse.Namespace, out, err) -> int:
    graph = _read_graph(args.in_path)
    report = check(graph, builtin_vocabulary())
    if args.report_format == "json":
        print(report.to_json(), file=out)
    else:
        if report.entries:
            print(report.to_text(), file=out)
        counts = report.counts
        print(
            f"checked {len(graph)} triples: "
            f"{counts['error']} error(s), {counts['warn']} warning(s), {counts['info']} info",
            file=out,
        )
    return 1 if report.max_severity() == Severity.ERROR else 0


def _cmd_detect(args: argparse.Namespace, out, err) -> int:
    graph = _read_graph(args.in_path)
    report = check(graph, builtin_vocabulary())
    if report.max_severity() == Severity.ERROR:
        print(report.to_text(), file=err)
        print("aborting: the graph has validation errors", file=err)
        return 1
    findings = detect_conflicts(graph)
    _write(args.out, findings_to_json(findings) + "\n")
    print(f"wrote {len(findings)} candidate finding(s) to {args.out}", file=out)
    return 0


def _cmd_vocab(args: argparse.Namespace, out, err) -> int:
    graph = vocabulary_graph(builtin_vocabulary())
    _write(args.out, serialize_turtle(graph))
    print(f"wrote vocabulary ({len(graph)} triples) to {args.out}", file=out)
    return 0


def _cmd_export(args: argparse.Namespace, out, err) -> int:
    graph = _read_graph(args.in_path)
    if args.format == "turtle":
        _write(args.out, serialize_turtle(graph))
    else:
        _write(args.out, canonical_ntriples(graph))
    print(f"wrote {len(graph)} triples to {args.out}", file=out)
    return 0


_COMMANDS = {
    "ingest": _cmd_ingest,
    "validate": _cmd_validate,
    "detect": _cmd_detect,
    "vocab": _cmd_vocab,
    "export": _cmd_export,
}


def run(argv: list[str] | None = None, out=None, err=None) -> int:
    """Run one CLI invocation; returns the exit code instead of exiting."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors
        return 0 if exc.code == 0 else 2
    try:
        return _COMMANDS[args.command](args, out, err)
    except (OSError, ValueError) as exc:  # ParseError, CsvSyntaxError and HeaderMismatchError are ValueErrors
        print(f"error: {exc}", file=err)
        return 2


def main() -> None:
    sys.exit(run())
