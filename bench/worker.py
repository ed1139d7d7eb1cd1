"""One pass of a benchmark workload, run by run.py in a fresh interpreter.

A pass issues every job of the workload once through
`groupsmith.cli.main(argv)`, one after the other, then checks every
report. It prints one JSON line: monotonic timestamps of the first job
and of the verified end, the host speed factors sampled during set-up and
during the whole pass (speed.py), peak resident memory, and per job
whether it passed and the digest of its deterministic report.

    python3 bench/worker.py --workload replay --seed 1 --mode plain|count|trace|setup
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from speed import SpeedSampler  # noqa: E402  (bench/ is on sys.path as the script's directory)


def verdict(job, outcome) -> dict:
    """Check one job's outcome; the digest covers the report without its
    timing, which is the part that must repeat byte for byte."""
    rc, raised, stdout, stderr = outcome
    entry = {"argv": " ".join(job.argv), "ok": False, "digest": None, "bytes": len(stdout)}
    if raised is not None:
        entry["why"] = f"raised {raised}"
        return entry
    if rc != 0:
        entry["why"] = f"exit code {rc}: {stderr.strip()[-300:]}"
        return entry
    try:
        report = json.loads(stdout)
        report.pop("timing_ms")
        problems = job.check(report)
    except Exception as exc:  # a malformed report, or the library failing a re-check
        problems = [f"check raised {exc!r}"]
    else:
        deterministic = json.dumps(report, sort_keys=True).encode()
        entry["digest"] = hashlib.sha256(deterministic).hexdigest()
    entry["ok"] = not problems
    if problems:
        entry["why"] = "; ".join(problems[:5])
    return entry


def main() -> int:
    sampler = SpeedSampler()
    sampler.start()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--mode", choices=("plain", "count", "trace", "setup"), default="plain",
        help="setup: stop before the first job",
    )
    args = parser.parse_args()

    import groupsmith
    from groupsmith import cli

    if not Path(groupsmith.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"groupsmith imported from {groupsmith.__file__}, not from {SRC}")
    import jobs

    job_list = jobs.WORKLOADS[args.workload](args.seed)
    probe = None
    if args.mode in ("count", "trace"):
        import layers

        probe = layers.Spans() if args.mode == "trace" else layers.Counts()
        probe.install()

    sampler.sample()
    t_first = time.monotonic()
    if args.mode == "setup":
        job_list = []
    outcomes = []
    for index, job in enumerate(job_list):
        if args.mode == "trace":
            probe.job = index
        out, err = io.StringIO(), io.StringIO()
        rc, raised = None, None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(list(job.argv) + ["--format", "json"])
        except (Exception, SystemExit) as exc:  # a failed job is counted, not fatal
            raised = repr(exc)
        outcomes.append((rc, raised, out.getvalue(), err.getvalue()))
    if probe is not None:
        probe.uninstall()
    results = [verdict(job, outcome) for job, outcome in zip(job_list, outcomes)]
    t_end = time.monotonic()

    layer = {}
    if probe is not None:
        layer = probe.metrics()
        layer["cli.report_bytes"] = sum(r["bytes"] for r in results)
        if args.mode == "trace":
            probe.write(ROOT / ".bench_out" / f"spans-{args.workload}-{args.seed}.json")
    sampler.stop()
    print(
        json.dumps(
            {
                "t_first": t_first,
                "t_end": t_end,
                "speed_factor": sampler.factor(),
                "setup_speed_factor": sampler.factor(until=t_first),
                "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                "jobs": results,
                "layer": layer,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
