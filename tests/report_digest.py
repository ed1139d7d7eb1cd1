"""One sha256 over the deterministic reports of a fixed command list, so
that a claim of byte-identical reports takes one command to check:

    python tests/report_digest.py

The list is every seed-1 job of `bench/jobs.py`, plus the extra commands
below. Each command runs through `cli.main`; a report counts without its
`timing_ms`, and a command that fails counts, and is printed, by its exit
code. The first digest is over the parsed reports, dumped with sorted keys;
the second is over each command's raw JSON stdout with the value of
`timing_ms` zeroed, so it also sees key order and indentation. Run it on
two checkouts and compare the last two lines.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from groupsmith.cli import main  # noqa: E402

_spec = importlib.util.spec_from_file_location("bench_jobs", ROOT / "bench" / "jobs.py")
bench_jobs = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = bench_jobs  # its dataclass looks the module up
_spec.loader.exec_module(bench_jobs)

EXTRAS = [
    ("lemma7-check", "--group", "A5"),
    ("lemma7-check", "--group", "S5"),
    ("lemma7-check", "--group", "A6"),
    ("lemma8-check", "--group", "S3xZ3"),
    ("lemma8-check", "--group", "Z3xA4"),
    ("lemma8-check", "--group", "Z3xA5"),  # quotient past the closure cap: exit 3
    ("prop1-embed", "--group", "A5", "--element", "(1 2 3)"),
    ("prop1-embed", "--group", "S5", "--element", "(1 2)"),
    ("prop1-embed", "--group", "A6", "--element", "(1 2 3)"),
    ("theorem1-verify", "--p", "19"),
]


def commands() -> list[tuple[str, ...]]:
    workloads = bench_jobs.WORKLOADS
    jobs = [job.argv for name in sorted(workloads) for job in workloads[name](1)]
    return jobs + EXTRAS


# the report's last line but one: its top-level timing
_TIMING = re.compile(r'^  "timing_ms": \d+$', re.M)


def entry(argv: tuple[str, ...]) -> tuple[str, str]:
    """The deterministic part of one command's outcome: the parsed report
    dumped with sorted keys, and its raw stdout with the timing zeroed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv) + ["--format", "json"])
    if code != 0:
        print(f"exit {code}: {' '.join(argv)}")
        return f"exit {code}", f"exit {code}"
    raw = out.getvalue()
    report = json.loads(raw)
    report.pop("timing_ms")
    return json.dumps(report, sort_keys=True), _TIMING.sub('  "timing_ms": 0', raw)


def main_digest() -> int:
    parsed, raw = hashlib.sha256(), hashlib.sha256()
    cmds = commands()
    for argv in cmds:
        key = " ".join(argv).encode() + b"\0"
        report, stdout = entry(argv)
        parsed.update(key + report.encode() + b"\n")
        raw.update(key + stdout.encode() + b"\n")
    print(f"{len(cmds)} commands, sha256 {parsed.hexdigest()}")
    print(f"{len(cmds)} commands, raw json sha256 {raw.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main_digest())
