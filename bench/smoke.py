"""Smoke test of the benchmark itself.

    python3 bench/smoke.py

Runs every workload at its smallest size (one-second runs, so a single
pass each), untraced and traced, prints each run's metrics, and checks that
the last line holds every metric BENCHMARK.json names, with its unit, and
that no job failed. Then runs the benchmark in a directory that holds only
BENCHMARK.json and bench/, where it must exit non-zero without printing a
result. Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [
        sys.executable, "bench/run.py", "--workload", workload,
        "--seed", "1", "--seconds", "1", "--trace", str(trace),
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            label = f"{workload} --trace {trace}"
            before = len(problems)
            proc = run(ROOT, workload, trace)
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{label}: {result['failed']} failed\n{proc.stdout[-2000:]}")
            got = result["metrics"]
            for m in wanted:
                entry = got.get(m["name"])
                if entry is None or entry["unit"] != m["unit"]:
                    problems.append(f"{label}: metric {m['name']} missing or not in {m['unit']}")
            extra = set(got) - {m["name"] for m in wanted}
            if extra:
                problems.append(f"{label}: unexpected metrics {sorted(extra)}")
            verdict = "ok  " if len(problems) == before else "bad "
            print(f"{verdict} {label}: {result['attempted']} jobs")
            for line in proc.stdout.splitlines()[:-1]:
                if not line.startswith("{"):
                    print(f"       {line}")
            sys.stdout.flush()

    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(bare, spec["workloads"][0]["name"], 0)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-300:]!r}")
    else:
        print(f"ok   bare directory: exit {proc.returncode}", flush=True)
    shutil.rmtree(bare)

    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
