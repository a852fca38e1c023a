"""Command-line pipeline: ingest, validate, detect, vocab, export.

Exit codes follow CI conventions: 0 success, 1 the graph has
validation ERRORs, 2 usage, I/O, or parse failure. WARN and INFO
findings never fail a run. A located error names its file, as
``error: <path>:<line>:<column>: <message>`` (CSV: no column), and so
does a byte that is not UTF-8; an output error names ``--out`` as given.
Outputs are streamed (see ``_write``), the findings JSON one finding at a
time. Standard output's own file (a pipe, a terminal, a ``>``, ``>>`` or
grouped redirect) is written through its descriptor, so it keeps what it held,
and the summary goes to stderr; standard error's own file likewise, with the
summary on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import os
import sys
from collections.abc import Iterable
from pathlib import Path

from .coi import _findings_chunks, detect_conflicts
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


def _write(path: str, chunks: Iterable[str], out, err):
    """Stream chunks to path; return the stream for the summary, the one the bytes
    did not go to. The first chunk is taken before anything is opened, so an
    error a writer raises before it writes nothing. ``out``'s or ``err``'s own
    file is written through its descriptor, after its text and keeping what the
    file held; another pipe or device is opened in place. A regular file is
    replaced only once the new bytes are complete, so a failed run keeps it."""
    rest = iter(chunks)
    chunks = itertools.chain((next(rest, ""),), rest)
    fd, summary = None, err
    for stream, other in ((out, err), (err, out)):
        with contextlib.suppress(OSError):  # no file at path yet, or a stream with no descriptor (io.UnsupportedOperation)
            if fd is None and os.path.samestat(os.stat(path), os.fstat(stream.fileno())):
                fd, summary = stream.fileno(), other
    if fd is not None or (Path(path).exists() and not Path(path).is_file()):
        out.flush()
        err.flush()
        with open(path if fd is None else fd, "w", encoding="utf-8", closefd=fd is None) as stream:
            stream.writelines(chunks)
        return summary
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
    return out


def _print_ingest_report(label: str, report: IngestReport, out) -> None:
    print(f"{label}: {report.accepted} accepted, {len(report.rejected)} rejected", file=out)
    for row in report.rejected:
        print(f"  row {row.line}: {row.reason}", file=out)


def _cmd_ingest(args: argparse.Namespace, out, err) -> int:
    cfg = MintConfig(Iri(args.base))
    contracts, contract_report = _read(args.contracts, parse_contract_csv)
    roles, role_report = _read(args.roles, parse_role_csv)
    graph = build_graph(contracts, roles, cfg)
    out = _write(args.out, _turtle_chunks(graph), out, err)
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
    out = _write(args.out, itertools.chain(_findings_chunks(findings), "\n"), out, err)
    print(f"wrote {len(findings)} candidate finding(s) to {args.out}", file=out)
    return 0


def _cmd_vocab(args: argparse.Namespace, out, err) -> int:
    graph = vocabulary_graph(builtin_vocabulary())
    out = _write(args.out, _turtle_chunks(graph), out, err)
    print(f"wrote vocabulary ({len(graph)} triples) to {args.out}", file=out)
    return 0


def _cmd_export(args: argparse.Namespace, out, err) -> int:
    graph = _read(args.in_path, parse_turtle)
    out = _write(args.out, (_turtle_chunks if args.format == "turtle" else _ntriples_chunks)(graph), out, err)
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
