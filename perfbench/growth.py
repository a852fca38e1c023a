"""Growth report: how each command's time grows from N to 2N inputs.

    python3 perfbench/growth.py

Runs registry and watchlist at scale 1 and 2, five alternating passes
each, and compares median command times. A command is flagged when its
time grows more than 6 ** 0.5 (about 2.45x) per doubling, the ROADMAP's
"at most 6x per 4x input" rule. One-shot and ungated: it prints a table, writes
.perfbench/results/growth.json and exits 0 whatever it finds.
"""

from __future__ import annotations

import json
import shutil
import statistics

import run

WORKLOADS = ("registry", "watchlist")
SCALES = (1.0, 2.0)
PASSES = 5
LIMIT = 6**0.5


def medians(workload: str) -> dict[float, dict[str, float]]:
    """Median command times per scale; N and 2N passes alternate."""
    sides = {}
    try:
        for scale in SCALES:
            work = run.OUT / f"growth-{workload}-{scale}"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            _, cli, data = run.setup(workload, run.DEFAULT_SEED, scale, work)
            sides[scale] = (cli, run.argv_for(work), run.Checker(data, work, None), [])
        for _ in range(PASSES):
            for cli, argvs, check, passes in sides.values():
                passes.append(run.run_pass(cli, argvs, check))
        out = {}
        for scale, (_, _, check, passes) in sides.items():
            if check.problems:
                raise RuntimeError(f"{workload} at scale {scale}: {check.problems[:3]}")
            out[scale] = {c: statistics.median(p[c] for p in passes) for c in run.COMMANDS}
        return out
    finally:
        for scale in SCALES:
            shutil.rmtree(run.OUT / f"growth-{workload}-{scale}", ignore_errors=True)


def main() -> None:
    rows = []
    for workload in WORKLOADS:
        small, large = medians(workload).values()
        for command in run.COMMANDS:
            ratio = large[command] / small[command]
            rows.append(
                {
                    "workload": workload,
                    "command": command,
                    "n_s": small[command],
                    "2n_s": large[command],
                    "ratio": ratio,
                    "flagged": ratio > LIMIT,
                }
            )
            flag = "  FLAG: faster than n log n allows" if ratio > LIMIT else ""
            print(
                f"{workload:10} {command:9} N {small[command]:8.3f} s  "
                f"2N {large[command]:8.3f} s  x{ratio:5.2f}{flag}"
            )
    out = run.OUT / "results" / "growth.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"machine": run.machine(), "limit": LIMIT, "rows": rows}, indent=1) + "\n")


if __name__ == "__main__":
    main()
