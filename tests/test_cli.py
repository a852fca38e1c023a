"""End-to-end command-line behavior via run()."""

import io
import json
import os
import runpy
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from trokit import CONTRACT_HEADER, ROLE_HEADER, Iri, canonical_ntriples, cli, parse_turtle
from trokit.cli import run

from conftest import FIXTURES


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture()
def pipeline_ttl(tmp_path, contracts_csv, roles_csv):
    """Ingest the CSV fixtures once per test into a Turtle file."""
    contracts = tmp_path / "contracts.csv"
    roles = tmp_path / "roles.csv"
    contracts.write_text(contracts_csv, encoding="utf-8")
    roles.write_text(roles_csv, encoding="utf-8")
    graph = tmp_path / "graph.ttl"
    code, out, err = invoke(
        "ingest", "--contracts", str(contracts), "--roles", str(roles), "--out", str(graph)
    )
    assert code == 0, err
    return graph


def writer_argv(command, pipeline_ttl):
    """The argv, less ``--out``, of each command that writes one; the CSV files are beside the graph."""
    return {
        "ingest": ["ingest", "--contracts", str(pipeline_ttl.parent / "contracts.csv"), "--roles", str(pipeline_ttl.parent / "roles.csv")],
        "export-ntriples": ["export", "--in", str(pipeline_ttl)],
        "export-turtle": ["export", "--in", str(pipeline_ttl), "--format", "turtle"],
        "detect": ["detect", "--in", str(pipeline_ttl)],
        "vocab": ["vocab"],
    }[command]


class TestIngest:
    def test_summary_and_output(self, pipeline_ttl, tmp_path, contracts_csv, roles_csv):
        contracts = tmp_path / "contracts.csv"
        graph2 = tmp_path / "graph2.ttl"
        code, out, err = invoke(
            "ingest",
            "--contracts", str(contracts),
            "--roles", str(tmp_path / "roles.csv"),
            "--out", str(graph2),
        )
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[0] == "contracts: 2 accepted, 0 rejected"
        assert lines[1] == "roles: 3 accepted, 0 rejected"
        assert lines[2] == f"wrote 65 triples to {graph2}"
        assert len(parse_turtle(graph2.read_text(encoding="utf-8"))) == 65

    def test_deterministic_bytes(self, pipeline_ttl, tmp_path):
        again = tmp_path / "again.ttl"
        invoke(
            "ingest",
            "--contracts", str(tmp_path / "contracts.csv"),
            "--roles", str(tmp_path / "roles.csv"),
            "--out", str(again),
        )
        assert again.read_bytes() == pipeline_ttl.read_bytes()

    def test_rejected_rows_reported(self, tmp_path, contracts_csv, roles_csv):
        contracts = tmp_path / "contracts.csv"
        bad = contracts_csv + "BAD,T,Alpha,Beta,2020-99-99,10,https://e.org/x\n"
        contracts.write_text(bad, encoding="utf-8")
        roles = tmp_path / "roles.csv"
        roles.write_text(roles_csv, encoding="utf-8")
        code, out, _ = invoke(
            "ingest",
            "--contracts", str(contracts),
            "--roles", str(roles),
            "--out", str(tmp_path / "g.ttl"),
        )
        assert code == 0  # rejected rows are reported, not fatal
        assert "contracts: 2 accepted, 1 rejected" in out
        assert "  row 4: award_date" in out

    def test_custom_base(self, tmp_path, contracts_csv, roles_csv):
        contracts = tmp_path / "c.csv"
        roles = tmp_path / "r.csv"
        contracts.write_text(contracts_csv, encoding="utf-8")
        roles.write_text(roles_csv, encoding="utf-8")
        out_file = tmp_path / "g.ttl"
        code, _, _ = invoke(
            "ingest",
            "--contracts", str(contracts),
            "--roles", str(roles),
            "--base", "https://example.org/ids/",
            "--out", str(out_file),
        )
        assert code == 0
        text = out_file.read_text(encoding="utf-8")
        assert "https://example.org/ids/" in text
        assert "http://ehu.eus/tro/data/" not in text

    def test_bad_base_is_usage_error(self, tmp_path, contracts_csv, roles_csv):
        contracts = tmp_path / "c.csv"
        roles = tmp_path / "r.csv"
        contracts.write_text(contracts_csv, encoding="utf-8")
        roles.write_text(roles_csv, encoding="utf-8")
        code, _, err = invoke(
            "ingest",
            "--contracts", str(contracts),
            "--roles", str(roles),
            "--base", "https://example.org/ids",
            "--out", str(tmp_path / "g.ttl"),
        )
        assert code == 2
        assert err.startswith("error:") and "must end with '/'" in err

    def test_header_mismatch_is_error(self, tmp_path, roles_csv):
        contracts = tmp_path / "c.csv"
        contracts.write_text("id,title\n1,x\n", encoding="utf-8")
        roles = tmp_path / "r.csv"
        roles.write_text(roles_csv, encoding="utf-8")
        code, _, err = invoke(
            "ingest",
            "--contracts", str(contracts),
            "--roles", str(roles),
            "--out", str(tmp_path / "g.ttl"),
        )
        assert code == 2 and "header mismatch" in err

    @pytest.mark.parametrize("option, other", [("contracts", "roles"), ("roles", "contracts")])
    def test_header_mismatch_names_the_file(self, pipeline_ttl, option, other):
        """A file of the other schema, as when the two options are swapped, is named in the error."""
        work = pipeline_ttl.parent
        paths = {"contracts": work / "contracts.csv", "roles": work / "roles.csv"}
        paths[option] = paths[other]
        before = pipeline_ttl.read_bytes()
        code, out, err = invoke(
            "ingest",
            "--contracts", str(paths["contracts"]),
            "--roles", str(paths["roles"]),
            "--out", str(pipeline_ttl),
        )
        assert code == 2 and out == ""
        expected = ",".join(CONTRACT_HEADER if option == "contracts" else ROLE_HEADER)
        assert err.startswith(f"error: {paths[option]}: header mismatch: expected '{expected}', got ")
        assert pipeline_ttl.read_bytes() == before

    def test_a_field_over_the_csv_size_limit_exits_two(self, pipeline_ttl):
        lines = (FIXTURES / "contracts.csv").read_text(encoding="utf-8").splitlines(keepends=True)
        lines[2] = lines[2].replace(",", "," + "t" * 200_000, 1)
        contracts = pipeline_ttl.parent / "huge.csv"
        contracts.write_text("".join(lines), encoding="utf-8")
        before = pipeline_ttl.read_bytes()
        code, out, err = invoke(
            "ingest",
            "--contracts", str(contracts),
            "--roles", str(pipeline_ttl.parent / "roles.csv"),
            "--out", str(pipeline_ttl),
        )
        assert code == 2 and out == ""
        assert err == f"error: {contracts}:3: field larger than field limit (131072)\n"
        assert "Traceback" not in err
        assert pipeline_ttl.read_bytes() == before

    def test_a_csv_that_is_not_utf8_is_a_located_error(self, pipeline_ttl):
        """A Latin-1 byte is reported at its line and its column in code points, not bytes."""
        lines = (FIXTURES / "contracts.csv").read_text(encoding="utf-8").splitlines(keepends=True)
        contract_id, rest = lines[2].split(",", 1)
        contracts = pipeline_ttl.parent / "latin1.csv"
        contracts.write_bytes(
            "".join(lines[:2]).encode("utf-8") + f"{contract_id},Año Caf".encode("utf-8") + b"\xe9 " + rest.encode("utf-8")
        )
        before = pipeline_ttl.read_bytes()
        code, out, err = invoke(
            "ingest",
            "--contracts", str(contracts),
            "--roles", str(pipeline_ttl.parent / "roles.csv"),
            "--out", str(pipeline_ttl),
        )
        assert code == 2 and out == ""
        col = len(f"{contract_id},Año Caf") + 1
        assert err == f"error: {contracts}:3:{col}: not UTF-8: invalid continuation byte (byte 0xE9)\n"
        assert pipeline_ttl.read_bytes() == before

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_csv_line_ends_do_not_change_the_graph(self, tmp_path, contracts_csv, roles_csv, newline):
        """A quoted field that spans lines reads as it does with LF line ends."""
        contracts_csv = contracts_csv.replace("IT consulting", '"IT\nconsulting"')
        outputs = []
        for end in ("\n", newline):
            contracts, roles = tmp_path / "contracts.csv", tmp_path / "roles.csv"
            contracts.write_bytes(contracts_csv.replace("\n", end).encode("utf-8"))
            roles.write_bytes(roles_csv.replace("\n", end).encode("utf-8"))
            graph = tmp_path / "graph.ttl"
            code, _, err = invoke("ingest", "--contracts", str(contracts), "--roles", str(roles), "--out", str(graph))
            assert code == 0, err
            outputs.append(graph.read_bytes())
        assert b'"IT\\nconsulting"' in outputs[0]
        assert outputs[1] == outputs[0]


class TestValidate:
    def test_clean_graph(self, pipeline_ttl):
        code, out, err = invoke("validate", "--in", str(pipeline_ttl))
        assert code == 0 and err == ""
        assert out == "checked 65 triples: 0 error(s), 0 warning(s), 0 info\n"

    def test_error_graph_exits_one(self):
        path = FIXTURES / "violations" / "disjoint_clash.ttl"
        code, out, _ = invoke("validate", "--in", str(path))
        assert code == 1
        assert "ERROR DISJOINT-CLASH" in out
        assert "1 error(s)" in out

    def test_warn_graph_exits_zero(self):
        path = FIXTURES / "violations" / "unknown_term.ttl"
        code, out, _ = invoke("validate", "--in", str(path))
        assert code == 0
        assert "UNKNOWN-TERM" in out and "2 warning(s)" in out

    def test_json_format(self):
        path = FIXTURES / "violations" / "bad_date.ttl"
        code, out, _ = invoke("validate", "--in", str(path), "--report-format", "json")
        assert code == 1
        data = json.loads(out)
        assert data["counts"]["error"] == 1
        assert data["entries"][0]["ruleId"] == "BAD-DATE"

    def test_unparseable_turtle_is_usage_error(self, tmp_path):
        mangled = tmp_path / "broken.ttl"
        mangled.write_text("@prefix broken", encoding="utf-8")
        code, _, err = invoke("validate", "--in", str(mangled))
        assert code == 2 and err == f"error: {mangled}:1:9: unexpected bare word 'broken'\n"


class TestDetect:
    def test_findings_match_gold_bytes(self, pipeline_ttl, tmp_path):
        out_file = tmp_path / "findings.json"
        code, out, err = invoke("detect", "--in", str(pipeline_ttl), "--out", str(out_file))
        assert code == 0, err
        assert out == f"wrote 1 candidate finding(s) to {out_file}\n"
        gold = (FIXTURES / "gold" / "findings.json").read_bytes()
        assert out_file.read_bytes() == gold

    def test_error_graph_aborts(self, tmp_path):
        path = FIXTURES / "violations" / "disjoint_clash.ttl"
        out_file = tmp_path / "findings.json"
        code, out, err = invoke("detect", "--in", str(path), "--out", str(out_file))
        assert code == 1 and out == ""
        assert "aborting: the graph has validation errors" in err
        assert not out_file.exists()

    def test_empty_findings(self, tmp_path):
        clean = tmp_path / "clean.ttl"
        clean.write_text("", encoding="utf-8")
        out_file = tmp_path / "findings.json"
        code, _, _ = invoke("detect", "--in", str(clean), "--out", str(out_file))
        assert code == 0
        assert out_file.read_text(encoding="utf-8") == "[]\n"

    def test_a_contract_with_two_award_dates_is_warned_of_and_skipped(self, tmp_path, contracts_csv, roles_csv):
        header, row = contracts_csv.splitlines()[:2]  # awarded by Basque Government to Acme Construction
        rows = [row.replace("2018-03-01", day) for day in ("2019-06-15", "2019-07-15")]
        roles = tmp_path / "roles.csv"
        roles.write_text(roles_csv, encoding="utf-8")

        def ingest(name, contract_rows):
            contracts, graph = tmp_path / f"{name}.csv", tmp_path / f"{name}.ttl"
            contracts.write_text("\n".join([header, *contract_rows]) + "\n", encoding="utf-8")
            return invoke("ingest", "--contracts", str(contracts), "--roles", str(roles), "--out", str(graph)), graph

        def checked(graph):
            findings = graph.with_suffix(".json")
            assert invoke("detect", "--in", str(graph), "--out", str(findings))[0] == 0
            return invoke("validate", "--in", str(graph)), json.loads(findings.read_text(encoding="utf-8"))

        graphs = []
        for i, alone in enumerate(rows):  # either row alone is a finding
            graphs.append(ingest(f"alone{i}", [alone])[1])
            (code, out, _), findings = checked(graphs[-1])
            assert code == 0 and out.endswith("0 error(s), 0 warning(s), 0 info\n")
            assert [f["patternId"] for f in findings] == ["AWARD-TO-LINKED-ORG"]
        (code, out, _), _ = ingest("both", rows)  # one CSV cannot give the contract both dates
        assert code == 0
        assert "contracts: 1 accepted, 1 rejected\n  row 3: contract_id 'EXP-2018/0042' repeats an earlier row" in out
        both = tmp_path / "both.ttl"  # two graphs, one per row, can
        both.write_text("".join(g.read_text(encoding="utf-8") for g in graphs), encoding="utf-8")
        (code_v, out_v, _), findings = checked(both)
        contract = "<http://ehu.eus/tro/data/contract/EXP-2018%2F0042>"
        award_date = "<http://data.europa.eu/a4g/ontology#awardDate>"
        assert code_v == 0
        assert out_v.splitlines()[0] == f"WARN DETECTION-SKIP {contract} 2 values of {award_date}: detection skips the node"
        assert out_v.endswith("0 error(s), 1 warning(s), 0 info\n")
        assert findings == []


class TestVocabAndExport:
    def test_vocab_matches_packaged_copy(self, tmp_path):
        from pathlib import Path

        import trokit

        out_file = tmp_path / "tro.ttl"
        code, out, _ = invoke("vocab", "--out", str(out_file))
        assert code == 0
        assert "wrote vocabulary (70 triples)" in out
        packaged = Path(trokit.__file__).parent / "data" / "tro.ttl"
        assert out_file.read_bytes() == packaged.read_bytes()

    def test_export_ntriples_default(self, pipeline_ttl, tmp_path):
        out_file = tmp_path / "graph.nt"
        code, _, _ = invoke("export", "--in", str(pipeline_ttl), "--out", str(out_file))
        assert code == 0
        graph = parse_turtle(pipeline_ttl.read_text(encoding="utf-8"))
        assert out_file.read_text(encoding="utf-8") == canonical_ntriples(graph)

    def test_export_turtle_round_trips(self, pipeline_ttl, tmp_path):
        out_file = tmp_path / "graph2.ttl"
        code, _, _ = invoke(
            "export", "--in", str(pipeline_ttl), "--format", "turtle", "--out", str(out_file)
        )
        assert code == 0
        a = parse_turtle(pipeline_ttl.read_text(encoding="utf-8"))
        b = parse_turtle(out_file.read_text(encoding="utf-8"))
        assert canonical_ntriples(a) == canonical_ntriples(b)

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_turtle_line_ends_do_not_change_the_output(self, tmp_path, newline):
        """A long string that spans lines reads as it does with LF line ends."""
        ttl = '@prefix e: <http://e.org/> .\ne:a e:p """one\ntwo""" ;\n    e:q "x" .\n'
        outputs = []
        for end in ("\n", newline):
            source, out_file = tmp_path / "in.ttl", tmp_path / "out.nt"
            source.write_bytes(ttl.replace("\n", end).encode("utf-8"))
            code, _, err = invoke("export", "--in", str(source), "--out", str(out_file))
            assert code == 0, err
            outputs.append(out_file.read_bytes())
        assert b'"one\\ntwo"' in outputs[0]
        assert outputs[1] == outputs[0]


class TestAtomicWrites:
    def test_failed_write_keeps_earlier_output(self, pipeline_ttl, tmp_path, monkeypatch):
        out_file = tmp_path / "graph.nt"
        assert invoke("export", "--in", str(pipeline_ttl), "--out", str(out_file))[0] == 0
        before = out_file.read_bytes()
        temporary = []

        def fails_part_way(graph):
            yield '<http://e.org/a> <http://e.org/p> "x" .\n' * 1000
            temporary.extend(p.name for p in tmp_path.iterdir() if p.suffix == ".tmp")
            raise ValueError("the writer failed part way")

        monkeypatch.setattr(cli, "_turtle_chunks", fails_part_way)
        code, _, err = invoke(
            "export", "--in", str(pipeline_ttl), "--format", "turtle", "--out", str(out_file)
        )
        assert code == 2 and err == "error: the writer failed part way\n"
        assert len(temporary) == 1  # the first chunk went to a temporary file, not to --out
        assert out_file.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["contracts.csv", "graph.nt", "graph.ttl", "roles.csv"]

    @pytest.mark.parametrize(
        "fmt, message",
        [
            pytest.param("ntriples", "graph contains blank nodes, which have no canonical N-Triples form", id="ntriples"),
            pytest.param("turtle", "prefix '1x' is not a Turtle prefix name", id="turtle"),
        ],
    )
    def test_an_error_before_the_first_chunk_opens_no_file(self, tmp_path, monkeypatch, fmt, message):
        source = tmp_path / "in.ttl"
        source.write_text('_:b1 <http://e.org/p> "x" .\n', encoding="utf-8")
        if fmt == "turtle":  # parsed prefixes are always writable: bind one that is not

            def parse_with_a_bad_prefix(text):
                graph = parse_turtle(text)
                graph.prefixes["1x"] = Iri("http://e.org/")
                return graph

            monkeypatch.setattr(cli, "parse_turtle", parse_with_a_bad_prefix)
        opened = []
        monkeypatch.setattr(cli, "open", lambda *args, **kwargs: opened.append(args[0]), raising=False)
        out_file = tmp_path / "out"
        out_file.write_bytes(b"earlier\n")
        for out in (str(out_file), os.devnull):
            code, stdout, err = invoke("export", "--in", str(source), "--format", fmt, "--out", out)
            assert (code, stdout, err) == (2, "", f"error: {message}\n")
        assert opened == []
        assert out_file.read_bytes() == b"earlier\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.ttl", "out"]

    def test_output_error_names_the_path_given(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, err = invoke("vocab", "--out", os.path.join("missing_dir", "v.ttl"))
        assert code == 2 and out == ""
        assert err == f"error: [Errno 2] No such file or directory: {os.path.join('missing_dir', 'v.ttl')!r}\n"
        assert ".tmp" not in err
        assert list(tmp_path.iterdir()) == []

    def test_device_is_written_in_place(self, pipeline_ttl):
        code, out, err = invoke("export", "--in", str(pipeline_ttl), "--out", os.devnull)
        assert (code, out, err) == (0, "", f"wrote 65 triples to {os.devnull}\n")
        assert not Path(os.devnull).is_file()

    @pytest.mark.parametrize("command", ["ingest", "export-ntriples", "export-turtle", "detect", "vocab"])
    def test_a_pipe_gets_the_data_and_stderr_the_summary(self, pipeline_ttl, tmp_path, command):
        """Written in place, a pipe's stream stays parseable: what would go to stdout goes to stderr."""
        argv = writer_argv(command, pipeline_ttl)
        out_file = tmp_path / "out"
        code, file_out, file_err = invoke(*argv, "--out", str(out_file))
        assert code == 0 and file_err == ""
        read, write = os.pipe()
        try:
            code, out, err = invoke(*argv, "--out", f"/dev/fd/{write}")
        finally:
            os.close(write)
        with os.fdopen(read, "rb") as pipe:  # the fixture's outputs fit in a pipe's buffer
            piped = pipe.read()
        assert code == 0 and out == ""
        assert piped == out_file.read_bytes()
        assert err == file_out.replace(str(out_file), f"/dev/fd/{write}")

    @pytest.mark.parametrize("command", ["ingest", "export-ntriples", "detect", "vocab"])
    def test_a_redirected_stdout_gets_the_data_and_stderr_the_summary(self, pipeline_ttl, tmp_path, command):
        """As with ``--out /dev/stdout > file``: the data goes through stdout's descriptor, so the summary goes to stderr."""
        argv = writer_argv(command, pipeline_ttl)
        out_file = tmp_path / "out"
        code, file_out, file_err = invoke(*argv, "--out", str(out_file))
        assert code == 0 and file_err == ""
        redirected = tmp_path / "redirected"
        err = io.StringIO()
        with open(redirected, "w", encoding="utf-8") as out:
            code = run([*argv, "--out", str(redirected)], out=out, err=err)
        assert code == 0
        assert redirected.read_bytes() == out_file.read_bytes()
        assert err.getvalue() == file_out.replace(str(out_file), str(redirected))

    @pytest.mark.parametrize("command", ["ingest", "export-ntriples", "detect", "vocab"])
    def test_a_redirected_stdout_keeps_what_its_file_holds(self, pipeline_ttl, tmp_path, command):
        """As with ``--out /dev/stdout >> file`` and ``{ echo header; …; echo footer; } > file``."""
        argv = writer_argv(command, pipeline_ttl)
        out_file = tmp_path / "out"
        code, file_out, file_err = invoke(*argv, "--out", str(out_file))
        assert code == 0 and file_err == ""
        data = out_file.read_bytes()
        appended = tmp_path / "appended"
        appended.write_bytes(b"earlier\n")
        err = io.StringIO()
        with open(appended, "a", encoding="utf-8") as out:
            assert run([*argv, "--out", str(appended)], out=out, err=err) == 0
        assert appended.read_bytes() == b"earlier\n" + data
        assert err.getvalue() == file_out.replace(str(out_file), str(appended))
        grouped = tmp_path / "grouped"
        with open(grouped, "w", encoding="utf-8") as out:
            out.write("header\n")
            assert run([*argv, "--out", str(grouped)], out=out, err=io.StringIO()) == 0
            out.write("footer\n")
        assert grouped.read_bytes() == b"header\n" + data + b"footer\n"

    @pytest.mark.parametrize("command", ["export-ntriples", "detect"])
    def test_stderr_redirected_to_a_file_gets_the_data_and_stdout_the_summary(self, pipeline_ttl, tmp_path, command):
        """As with ``--out /dev/stderr 2>> log``: the data goes through stderr's descriptor, after what the file held."""
        argv = writer_argv(command, pipeline_ttl)
        out_file = tmp_path / "out"
        code, file_out, file_err = invoke(*argv, "--out", str(out_file))
        assert code == 0 and file_err == ""
        log = tmp_path / "log"
        log.write_bytes(b"earlier\n")
        with open(log, "ab") as stderr:
            proc = subprocess.run([sys.executable, "-m", "trokit", *argv, "--out", "/dev/stderr"], stdout=subprocess.PIPE, stderr=stderr)
        assert proc.returncode == 0
        assert log.read_bytes() == b"earlier\n" + out_file.read_bytes()
        assert proc.stdout.decode("utf-8") == file_out.replace(str(out_file), "/dev/stderr")

    def test_escape_without_a_character_is_a_located_parse_error(self, tmp_path):
        bad = tmp_path / "bad.ttl"
        bad.write_text('<http://e.org/a> <http://e.org/p> "\\UFFFFFFFF" .\n', encoding="utf-8")
        out_file = tmp_path / "out.ttl"
        out_file.write_text("earlier\n", encoding="utf-8")
        code, _, err = invoke("export", "--in", str(bad), "--format", "turtle", "--out", str(out_file))
        assert code == 2
        assert err.startswith(f"error: {bad}:1:36: escape '\\UFFFFFFFF' does not encode a character")
        assert out_file.read_text(encoding="utf-8") == "earlier\n"


class TestStreamedOutput:
    def test_writing_ntriples_holds_far_less_than_the_output(self, tmp_path):
        """Held at once, the output's lines and its joined text would need more than its size."""
        graph = parse_turtle(
            "@prefix e: <http://e.org/> .\n"
            + "".join(
                f'e:s{i} a e:Thing ; e:title "Title {i} «ñ»"@es, "Title {i}" ; e:n {i} ; e:see e:s{i // 2} .\n'
                for i in range(3000)
            )
        )
        out_file = tmp_path / "out"
        tracemalloc.start()
        try:
            cli._write(str(out_file), cli._ntriples_chunks(graph), io.StringIO(), io.StringIO())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = len(out_file.read_text(encoding="utf-8"))
        assert size > 1_000_000
        assert peak < size / 2

    def test_writing_turtle_keeps_a_bounded_memo(self, tmp_path):
        """Every IRI falls under one bound prefix, so each has its own rendering:
        a memo that kept them all would grow with the graph."""

        def peak_writing(n):
            graph = parse_turtle(
                "@prefix e: <http://e.org/> .\n"
                + "".join(f"e:s{i} a e:Thing ; e:see e:s{i}a, e:s{i}b, e:s{i}c, e:s{i}d .\n" for i in range(n))
            )
            tracemalloc.start()
            try:
                cli._write(str(tmp_path / "out.ttl"), cli._turtle_chunks(graph), io.StringIO(), io.StringIO())
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak_writing(3200) <= 1.25 * peak_writing(800)


class TestUsage:
    @pytest.mark.parametrize(
        "command, content, where",
        [
            pytest.param(command, content, where, id=command + case)
            for case, content, where in [
                (
                    "",
                    b'<http://e.org/a> <http://e.org/p> "x" .\n'
                    b'<http://e.org/b> <http://e.org/p> "y"\n'
                    b'<http://e.org/c> <http://e.org/p> "z" .\n',
                    "3:1: expected '.' at end of statement, found IRI",
                ),
                (  # a Latin-1 byte after a CRLF line end; the column counts code points, not bytes
                    "-not-utf8",
                    '<http://e.org/a> <http://e.org/p> "ñ" .\r\n<http://e.org/b> <http://e.org/p> "ñ '.encode("utf-8")
                    + b'\xe9t\xe9" .\n',
                    "2:38: not UTF-8: invalid continuation byte (byte 0xE9)",
                ),
            ]
            for command in ["validate", "detect", "export"]
        ],
    )
    def test_turtle_error_names_file_line_and_column(self, tmp_path, command, content, where):
        bad = tmp_path / "bad.ttl"
        bad.write_bytes(content)
        out_file = tmp_path / "out"
        out_file.write_text("earlier\n", encoding="utf-8")
        argv = [command, "--in", str(bad)] + (["--out", str(out_file)] if command != "validate" else [])
        code, out, err = invoke(*argv)
        assert code == 2 and out == ""
        assert err == f"error: {bad}:{where}\n"
        assert out_file.read_text(encoding="utf-8") == "earlier\n"

    def test_missing_file(self, tmp_path):
        code, _, err = invoke("validate", "--in", str(tmp_path / "nope.ttl"))
        assert code == 2 and err.startswith("error:")

    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"], out=io.StringIO(), err=io.StringIO()) == 2
        capsys.readouterr()  # swallow argparse's own stderr

    def test_unknown_flag(self, capsys):
        assert run(["vocab", "--wat"], out=io.StringIO(), err=io.StringIO()) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert run(["--help"], out=io.StringIO(), err=io.StringIO()) == 0
        capsys.readouterr()

    def test_module_runs_main(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["trokit", "--help"])
        with pytest.raises(SystemExit) as exc_info:
            runpy.run_module("trokit", run_name="__main__", alter_sys=True)
        assert exc_info.value.code == 0
        assert "ingest" in capsys.readouterr().out

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "trokit", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "ingest" in proc.stdout and "detect" in proc.stdout
