"""The benchmark's correctness gate, run as a test: every job of every
workload at seed 1 goes through `cli.main` and must pass the check that
`bench/jobs.py` gives it."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from groupsmith.cli import main

_spec = importlib.util.spec_from_file_location(
    "bench_jobs", Path(__file__).resolve().parents[1] / "bench" / "jobs.py"
)
bench_jobs = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = bench_jobs  # its dataclass looks the module up
_spec.loader.exec_module(bench_jobs)


@pytest.mark.parametrize("workload", sorted(bench_jobs.WORKLOADS))
def test_every_benchmark_job_passes_its_check(workload, capsys):
    for job in bench_jobs.WORKLOADS[workload](1):
        code = main(list(job.argv) + ["--format", "json"])
        captured = capsys.readouterr()
        assert code == 0, f"{' '.join(job.argv)}: {captured.err}"
        report = json.loads(captured.out)
        report.pop("timing_ms")
        assert job.check(report) == [], " ".join(job.argv)
        # each assertion is reported once, in the top-level list only
        names = [a["name"] for a in report["assertions"]]
        assert len(names) == len(set(names)), " ".join(job.argv)
        assert "assertions" not in report["result"], " ".join(job.argv)
