"""End-to-end benchmark of the trokit CLI on seeded procurement corpora.

    python3 perfbench/run.py --workload registry --seed 1 --seconds 40 --trace 0

It imports trokit from the ``src/`` beside this directory. One client
drives ``trokit.cli.run`` in-process as a closed loop: each pass runs
``ingest``, ``validate``, ``detect`` and ``export`` back to back on the
same generated CSV files, and passes repeat until ``--seconds`` is
spent. Every command's outputs are checked against what the corpus
generator planted (see corpus.py). Timings are medians over the passes
of the run.

With ``--trace 1`` plain passes alternate with traced ones, and the run
reports the per-layer metrics of tracing.py instead, plus the traced ÷
plain pipeline time. Human-readable lines go first; the last line of
standard output is the JSON result. Scratch files live in
``.perfbench/`` and a results file is kept in ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import corpus
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
DEFAULT_SEED = 1
SETUP_REPEATS = 9
MIN_PASSES = 3
COMMANDS = ("ingest", "validate", "detect", "export")
OUTPUT_FILES = {"ingest": "graph.ttl", "detect": "findings.json", "export": "graph.nt"}


def import_trokit():
    """Import trokit afresh from this checkout's src/ and return trokit.cli."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "trokit" or n.startswith("trokit.")]:
        del sys.modules[name]
    cli = importlib.import_module("trokit.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"trokit was imported from {cli.__file__}, not from {SRC}")
    return cli


def setup(workload: str, seed: int, scale: float, work: Path):
    """Import, generate and write the inputs; the median of SETUP_REPEATS tries."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        cli = import_trokit()
        data = corpus.generate(workload, seed, scale)
        (work / "contracts.csv").write_text(data.contracts_csv, encoding="utf-8")
        (work / "roles.csv").write_text(data.roles_csv, encoding="utf-8")
        times.append(perf_counter() - start)
    return statistics.median(times), cli, data


def argv_for(work: Path) -> dict[str, list[str]]:
    ttl = str(work / "graph.ttl")
    return {
        "ingest": [
            "ingest",
            "--contracts", str(work / "contracts.csv"),
            "--roles", str(work / "roles.csv"),
            "--base", corpus.BASE,
            "--out", ttl,
        ],
        "validate": ["validate", "--in", ttl],
        "detect": ["detect", "--in", ttl, "--out", str(work / "findings.json")],
        "export": ["export", "--in", ttl, "--format", "ntriples", "--out", str(work / "graph.nt")],
    }


class Checker:
    """Checks each command's outputs against the corpus and counts failures.

    A command fails on a wrong exit code, a count that differs from the
    planted one, a missing planted finding, or output bytes that differ
    from the first pass or from the recorded reference.
    """

    def __init__(self, data: corpus.Corpus, work: Path, reference: dict | None) -> None:
        self.data = data
        self.work = work
        self.reference = reference
        self.digests: dict[str, str] = {}
        self.triples: int | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def __call__(self, command: str, code: int | None, stdout: str) -> None:
        self.attempted += 1
        problems = [] if code == 0 else [f"exit code {code}"]
        if code == 0:
            problems += getattr(self, "_" + command)(stdout)
            if command in OUTPUT_FILES:
                problems += self._same_bytes(OUTPUT_FILES[command])
        if problems:
            self.failed += 1
            self.problems += [f"{command}: {p}" for p in problems]

    def _ingest(self, stdout: str) -> list[str]:
        data, problems = self.data, []
        counts = {
            m[1]: (int(m[2]), int(m[3]))
            for m in re.finditer(r"^(contracts|roles): (\d+) accepted, (\d+) rejected$", stdout, re.M)
        }
        expected = {
            "contracts": (data.contracts_valid, data.contracts_malformed),
            "roles": (data.roles_valid, data.roles_malformed),
        }
        for name, want in expected.items():
            if counts.get(name) != want:
                problems.append(f"{name} accepted/rejected {counts.get(name)}, planted {want}")
        wrote = re.search(r"^wrote (\d+) triples", stdout, re.M)
        if wrote is None:
            problems.append("no triple count reported")
        elif self.triples is None:
            self.triples = int(wrote[1])
        elif self.triples != int(wrote[1]):
            problems.append(f"wrote {wrote[1]} triples, earlier passes {self.triples}")
        return problems

    def _validate(self, stdout: str) -> list[str]:
        if f"checked {self.triples} triples" not in stdout:
            return [f"did not check the {self.triples} ingested triples"]
        return []

    def _detect(self, stdout: str) -> list[str]:
        try:
            findings = json.loads((self.work / "findings.json").read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            return [f"findings.json unreadable: {exc}"]
        found = {_finding_key(f) for f in findings}
        return [f"planted finding missing: {p}" for p in self.data.planted if _finding_key(p) not in found]

    def _export(self, stdout: str) -> list[str]:
        with open(self.work / "graph.nt", encoding="utf-8") as lines:
            count = sum(1 for _ in lines)
        if count != self.triples:
            return [f"{count} N-Triples lines for {self.triples} ingested triples"]
        return []

    def _same_bytes(self, name: str) -> list[str]:
        digest = hashlib.sha256((self.work / name).read_bytes()).hexdigest()
        first = self.digests.setdefault(name, digest)
        problems = [] if digest == first else [f"{name} differs from the first pass"]
        if self.reference is not None and self.reference.get(name) != digest:
            problems.append(f"{name} sha256 {digest} differs from the reference")
        return problems


def _finding_key(finding: dict) -> tuple:
    return (
        finding["patternId"],
        finding["person"],
        finding["contract"],
        tuple(sorted(finding["organizations"])),
    )


def run_pass(cli, argvs: dict, check: Checker, recorder: tracing.Recorder | None = None) -> dict:
    """One closed-loop pass of the four commands; returns seconds per command."""
    seconds = {}
    for command in COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        gc.collect()
        start = perf_counter()
        try:
            if recorder is None:
                code = cli.run(argvs[command], out=out, err=err)
            else:
                with recorder.span(f"cli.{command}"):
                    code = cli.run(argvs[command], out=out, err=err)
        except Exception:  # a crash is a failed command, not a failed benchmark
            traceback.print_exc()
            code = None
        seconds[command] = perf_counter() - start
        check(command, code, out.getvalue())
    return seconds


def tail(samples: list[float]) -> tuple[int, float] | None:
    """The highest of p99/p90 with at least ten samples beyond it."""
    ordered = sorted(samples)
    for pct in (99, 90):
        if len(ordered) * (100 - pct) / 100 >= 10:
            return pct, statistics.quantiles(ordered, n=100)[pct - 1]
    return None


def measure(cli, work: Path, check: Checker, seconds: float, recorder: tracing.Recorder | None):
    """Closed-loop passes until `seconds` is spent; with a recorder every
    second pass is traced. Returns plain pass times, traced pass times,
    per-layer numbers and self times of the traced passes."""
    argvs = argv_for(work)
    plain, traced, layers, selfs = [], [], [], []
    deadline = perf_counter() + seconds
    last = 0.0
    while len(plain) + len(traced) < MIN_PASSES or perf_counter() + last < deadline:
        started = perf_counter()
        if recorder is not None and len(plain) > len(traced):
            pass_id = len(traced) + 1
            recorder.begin_pass(pass_id)
            restore = recorder.install()
            try:
                traced.append(run_pass(cli, argvs, check, recorder))
            finally:
                restore()
            layers.append(recorder.pass_layers(pass_id, (work / "graph.ttl").stat().st_size))
            selfs.append(recorder.span_times(pass_id)[1])
        else:
            plain.append(run_pass(cli, argvs, check))
        last = perf_counter() - started
    return plain, traced, layers, selfs


def benchmark(workload: str, seed: int, seconds: float, trace: bool, scale: float = 1.0) -> dict:
    """Run one workload; print metric lines and return the result object."""
    units = _units()
    reference = None
    if seed == DEFAULT_SEED and scale == 1.0:
        recorded = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
        reference = recorded.get(workload, {})
    work = OUT / f"work-{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup_s, cli, data = setup(workload, seed, scale, work)
        check = Checker(data, work, reference)
        recorder = tracing.Recorder() if trace else None
        plain, traced, layers, selfs = measure(cli, work, check, seconds, recorder)

        samples = {c: [p[c] for p in plain] for c in COMMANDS}
        samples["pipeline"] = [sum(p.values()) for p in plain]
        pipeline_s = statistics.median(samples["pipeline"])
        if trace:
            metrics = {name: statistics.median(p[name] for p in layers) for name in layers[0]}
            metrics["trace.overhead_ratio"] = (
                statistics.median(sum(p.values()) for p in traced) / pipeline_s
            )
            metrics |= tracing.probes()
            metrics |= tracing.memory((work / "graph.ttl").read_text(encoding="utf-8"))
        else:
            metrics = {"setup_s": setup_s}
            metrics |= {f"{c}_s": statistics.median(samples[c]) for c in COMMANDS}
            metrics["pipeline_s"] = pipeline_s
            metrics["triples_per_s"] = (check.triples or 0) / pipeline_s
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

        for name, value in metrics.items():
            note = ""
            key = name.removesuffix("_s")
            if not trace and key in samples:
                note = f"  median of {len(samples[key])} passes"
                if (t := tail(samples[key])) is not None:
                    note += f", p{t[0]} {t[1]:.6g}"
            print(f"{workload:10} {name:38} {value:14.6g} {units[name]}{note}")
        print(f"{workload:10} {'failed_ratio':38} {check.failed / check.attempted:14.6g} ratio")
        if check.triples:
            size = (work / "graph.ttl").stat().st_size
            print(f"{workload:10} graph.ttl holds {check.triples} triples in {size} bytes, "
                  f"{size / check.triples:.1f} bytes per triple")
        for name in sorted(selfs[0] if selfs else ()):
            own = statistics.median(p[name] for p in selfs)
            print(f"{workload:10} {'self ' + name:38} {own:14.6g} s")
        for problem in check.problems[:20]:
            print(f"problem: {problem}", file=sys.stderr)

        result = {
            "correct": check.failed == 0,
            "attempted": check.attempted,
            "failed": check.failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        }
        _write_results(workload, seed, scale, trace, result, samples, check, recorder)
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def machine() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def _write_results(workload, seed, scale, trace, result, samples, check, recorder) -> None:
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    payload = {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "trace": trace,
        "machine": machine(),
        "result": result,
        "samples_s": samples,
        "digests": check.digests,
        "problems": check.problems,
        "spans": [vars(s) for s in recorder.spans] if recorder else [],
    }
    path = results / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(corpus.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        _units()
        import_trokit()
    except (OSError, ImportError, ValueError) as exc:
        print(f"cannot benchmark this checkout: {exc}", file=sys.stderr)
        return 2
    result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
