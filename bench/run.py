"""The groupsmith benchmark.

    python3 bench/run.py --workload replay|search|construct --seed N \
        --seconds S --trace 0|1

A closed loop with one client: each pass runs in a fresh interpreter
(bench/worker.py) and issues the workload's jobs one after the other
through `groupsmith.cli.main`; the next pass starts only when the previous
one has ended. One process runs at a time. Passes repeat for about
`--seconds` (at least one pass; the last one starts only if at least half
of it fits).

--trace 0 reports the end-to-end metrics: the medians over passes of the
pass time (interpreter start to verified result), the set-up time
(interpreter start to the first job; also timed by three set-up-only
launches after each pass) and the peak resident memory.
--trace 1 runs one counting pass, then alternates untraced and traced
passes, and reports the per-layer metrics listed in BENCHMARK.json.
Every reported time is the wall time scaled by the host speed sampled
during its pass (speed.py); the unscaled medians are in the run record.

Every job's report is checked (bench/jobs.py) and must repeat byte for
byte, timing aside, in every pass of the run. Lines before the last one
give the metrics by name and the run record; the last line is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SRC = ROOT / "src" / "groupsmith"
WORKLOADS = ("replay", "search", "construct")
RUN_LIMIT_S = 170.0
SETUPS_PER_PASS = 3


def git_revision() -> str:
    """HEAD of the checkout when it is a git work tree, read from .git
    without running git; "none" otherwise."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "none"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def source_digest() -> str:
    """sha256 over the library sources, naming the code under test."""
    h = hashlib.sha256()
    for path in sorted(SRC.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Run:
    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if k != "GROUPSMITH_CAP"}
        self.passes: list[dict] = []
        self.first_digests: list | None = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def one_pass(self, mode: str) -> dict | None:
        """Run one pass and account for its jobs; None if the worker died."""
        cmd = [
            sys.executable, str(WORKER), "--workload", self.workload,
            "--seed", str(self.seed), "--mode", mode,
        ]
        timeout = max(1.0, self.deadline - time.monotonic())
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=timeout
            )
            lines = proc.stdout.strip().splitlines()
            data = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        except (subprocess.TimeoutExpired, ValueError) as exc:
            proc, data = None, None
            self.failures.append(f"{mode} pass: {exc!r}")
        if data is None:
            if proc is not None:
                self.failures.append(f"{mode} pass exited {proc.returncode}: {proc.stderr[-500:]}")
            lost = len(self.first_digests) if self.first_digests else 1
            self.attempted += lost
            self.failed += lost
            return None
        digests = [job["digest"] for job in data["jobs"]]
        if self.first_digests is None and mode != "setup":
            self.first_digests = digests
        for i, job in enumerate(data["jobs"]):
            self.attempted += 1
            same = i < len(self.first_digests) and digests[i] == self.first_digests[i]
            if not job["ok"] or not same:
                self.failed += 1
                why = job.get("why", "report differs from the first pass")
                self.failures.append(f"{mode} pass, {job['argv']}: {why}")
        data["pass_wall_s"] = data["t_end"] - t_spawn
        data["setup_wall_s"] = data["t_first"] - t_spawn
        data["pass_s"] = data["pass_wall_s"] * data["speed_factor"]
        data["setup_s"] = data["setup_wall_s"] * data["setup_speed_factor"]
        data["mode"] = mode
        self.passes.append(data)
        return data

    def medians(self, mode: str, key: str) -> float:
        return statistics.median(p[key] for p in self.passes if p["mode"] == mode)

    def digest(self) -> str:
        joined = "\n".join(str(d) for d in self.first_digests or [])
        return hashlib.sha256(joined.encode()).hexdigest()


def fits(started: float, stop: float) -> bool:
    """Whether at least half of another round like the one begun at
    `started` ends before `stop`."""
    now = time.monotonic()
    return now + (now - started) / 2 < stop


def end_to_end(run: Run, stop: float) -> dict:
    while True:
        started = time.monotonic()
        if run.one_pass("plain") is None:
            break
        # set-up is short and noisy: time it more often than whole passes
        for _ in range(SETUPS_PER_PASS):
            run.one_pass("setup")
        if not fits(started, stop):
            break
    if not run.passes:
        return {}
    return {
        "pass_wall_s": run.medians("plain", "pass_wall_s"),
        "setup_wall_s": statistics.median(p["setup_wall_s"] for p in run.passes),
        "pass_s": run.medians("plain", "pass_s"),
        "setup_s": statistics.median(p["setup_s"] for p in run.passes),
        "peak_rss_mb": run.medians("plain", "peak_rss_kb") / 1024,
    }


def scaled(data: dict, times: set[str]) -> dict:
    """A pass's layer metrics with its times scaled to the reference speed."""
    factor = data["speed_factor"]
    return {k: v * factor if k in times else v for k, v in data["layer"].items()}


def per_layer(run: Run, stop: float, times: set[str]) -> dict:
    counted = run.one_pass("count")
    traced = []
    while counted is not None:
        started = time.monotonic()
        plain = run.one_pass("plain")
        trace = run.one_pass("trace")
        if plain is None or trace is None:
            return {}
        traced.append(trace)
        if not fits(started, stop):
            break
    if not traced:
        return {}
    out = scaled(counted, times)
    traced = [scaled(t, times) for t in traced]
    for name in traced[0]:
        middle = statistics.median if name in times else statistics.median_low
        out[name] = middle(t[name] for t in traced)
    out["trace.overhead_ratio"] = run.medians("trace", "pass_s") / run.medians("plain", "pass_s")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description="groupsmith benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "cli.py").is_file() or not spec_path.is_file():
        print(f"bench: no groupsmith sources under {SRC.parent}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    started = time.monotonic()
    load_start = os.getloadavg()
    # compile the library and the benchmark once, so no pass pays for writing bytecode
    subprocess.run(
        [sys.executable, "-c", "import sys; sys.path[:0] = ['src', 'bench']; import jobs, layers"],
        cwd=ROOT, check=True,
    )
    run = Run(args.workload, args.seed, started + RUN_LIMIT_S)
    stop = started + args.seconds
    if args.trace:
        times = {m["name"] for m in wanted if m["unit"] in ("s", "ns")}
        values = per_layer(run, stop, times)
    else:
        values = end_to_end(run, stop)

    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            run.failures.append(f"metric {m['name']} was not measured")
            continue
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    correct = run.failed == 0 and not run.failures and len(metrics) == len(wanted)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "launches": len(run.passes),
        "ops_total": run.attempted,
        "ops_failed": run.failed,
        "report_digest": run.digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "wall_s": time.monotonic() - started,
        "unscaled_medians": {
            k: values[k] for k in ("pass_wall_s", "setup_wall_s") if k in values
        },
        "speed_factor_each": [round(p["speed_factor"], 4) for p in run.passes],
        "pass_wall_s_each": [round(p["pass_wall_s"], 4) for p in run.passes],
        "pass_s_each": [round(p["pass_s"], 4) for p in run.passes],
        "setup_s_each": [round(p["setup_s"], 4) for p in run.passes],
        "modes_each": [p["mode"] for p in run.passes],
    }
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"ops_total = {run.attempted} count")
    print(f"ops_failed = {run.failed} count")
    for failure in run.failures[:20]:
        print(f"FAILED: {failure}")
    print(json.dumps({"record": record}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
