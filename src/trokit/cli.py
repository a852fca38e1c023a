"""Command-line pipeline: ingest, validate, detect, vocab, export.

Exit codes follow CI conventions: 0 success, 1 the graph has
validation ERRORs, 2 usage, I/O, or parse failure. WARN and INFO
findings never fail a run. A located error names its file, as
``error: <path>:<line>:<column>: <message>`` (CSV: no column), and so
does a byte that is not UTF-8; an output error names ``--out`` as given.
Turtle and N-Triples outputs are streamed one subject at a time (see
``_write``), so no command holds a whole graph's text; when the stream goes
to a pipe, a device or standard output's own file, the summary goes to stderr.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from collections.abc import Iterable
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
from .rdf_core import Iri, ParseError, parse_turtle
from .rdf_core.ntriples import _ntriples_chunks
from .rdf_core.turtle import _turtle_chunks
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


def _read(path: str, parse):
    """``parse`` of the UTF-8 text of ``path``, newlines read as ``read_text`` reads them; errors name the file."""
    try:
        return parse(Path(path).read_bytes().replace(b"\r\n", b"\n").replace(b"\r", b"\n").decode("utf-8"))
    except UnicodeDecodeError as exc:  # columns count code points from 1, as ParseError's do
        data = exc.object
        line_start = data.rfind(b"\n", 0, exc.start) + 1
        line = data.count(b"\n", 0, line_start) + 1
        col = len(data[line_start : exc.start].decode("utf-8")) + 1
        raise ValueError(f"{path}:{line}:{col}: not UTF-8: {exc.reason} (byte 0x{data[exc.start]:02X})") from None
    except ParseError as exc:
        raise ValueError(f"{path}:{exc.line}:{exc.col}: {exc.message}") from None
    except CsvSyntaxError as exc:
        raise ValueError(f"{path}:{exc.line}: {exc.message}") from None
    except HeaderMismatchError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _in_place(path: str) -> bool:
    """Whether ``path`` is a pipe or a device such as /dev/stdout, which ``_write`` streams into in place."""
    return Path(path).exists() and not Path(path).is_file()


def _same_file(path: str, stream) -> bool:
    """Whether ``path`` names the file ``stream`` writes to, which ``_write`` would replace under it."""
    try:
        return os.path.samestat(os.stat(path), os.fstat(stream.fileno()))
    except OSError:  # a stream with no file descriptor (io.UnsupportedOperation), or no file at path yet
        return False


def _write(path: str, chunks: Iterable[str]) -> None:
    """Stream chunks to path, taking the first before anything is opened, so
    an error a writer raises before its first chunk writes nothing. A regular
    file is replaced only once the new bytes are complete, so a failed run
    leaves the earlier output as it was; an ``_in_place`` path gets the stream directly."""
    rest = iter(chunks)
    chunks = itertools.chain((next(rest, ""),), rest)
    if _in_place(path):
        with open(path, "w", encoding="utf-8") as stream:
            stream.writelines(chunks)
        return
    target = Path(path).resolve()
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as stream:
            stream.writelines(chunks)
        os.replace(tmp, target)
    except OSError as exc:  # name the path given, not the temporary file
        tmp.unlink(missing_ok=True)
        raise OSError(exc.errno, exc.strerror, path) from None
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _print_ingest_report(label: str, report: IngestReport, out) -> None:
    print(f"{label}: {report.accepted} accepted, {len(report.rejected)} rejected", file=out)
    for row in report.rejected:
        print(f"  row {row.line}: {row.reason}", file=out)


def _cmd_ingest(args: argparse.Namespace, out, err) -> int:
    cfg = MintConfig(Iri(args.base))
    contracts, contract_report = _read(args.contracts, parse_contract_csv)
    roles, role_report = _read(args.roles, parse_role_csv)
    graph = build_graph(contracts, roles, cfg)
    _write(args.out, _turtle_chunks(graph))
    _print_ingest_report("contracts", contract_report, out)
    _print_ingest_report("roles", role_report, out)
    print(f"wrote {len(graph)} triples to {args.out}", file=out)
    return 0


def _cmd_validate(args: argparse.Namespace, out, err) -> int:
    graph = _read(args.in_path, parse_turtle)
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
    graph = _read(args.in_path, parse_turtle)
    report = check(graph, builtin_vocabulary())
    if report.max_severity() == Severity.ERROR:
        print(report.to_text(), file=err)
        print("aborting: the graph has validation errors", file=err)
        return 1
    findings = detect_conflicts(graph)
    _write(args.out, (findings_to_json(findings), "\n"))
    print(f"wrote {len(findings)} candidate finding(s) to {args.out}", file=out)
    return 0


def _cmd_vocab(args: argparse.Namespace, out, err) -> int:
    graph = vocabulary_graph(builtin_vocabulary())
    _write(args.out, _turtle_chunks(graph))
    print(f"wrote vocabulary ({len(graph)} triples) to {args.out}", file=out)
    return 0


def _cmd_export(args: argparse.Namespace, out, err) -> int:
    graph = _read(args.in_path, parse_turtle)
    _write(args.out, (_turtle_chunks if args.format == "turtle" else _ntriples_chunks)(graph))
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
        if getattr(args, "out", None) is not None and (_in_place(args.out) or _same_file(args.out, out)):
            out = err  # the data goes to --out: keep the summary out of its stream
        return _COMMANDS[args.command](args, out, err)
    except (OSError, ValueError) as exc:  # ParseError, CsvSyntaxError and HeaderMismatchError are ValueErrors
        print(f"error: {exc}", file=err)
        return 2


def main() -> None:
    sys.exit(run())
