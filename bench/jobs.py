"""The three benchmark workloads as seeded job lists, with the check that
each job's report must pass.

A job is one `groupsmith` command line. Fixed-parameter jobs are checked
against pinned results; seeded jobs are checked by invariants, and every
`solve-positive` solution is re-parsed and re-evaluated here, outside the
command that produced it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from groupsmith.constructions import named_group, wreath_cyclic
from groupsmith.equations import evaluate, parse_equation

Check = Callable[[dict], list[str]]


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    check: Check


def _expect(values: dict, want: dict) -> list[str]:
    return [
        f"{key} = {values.get(key)!r}, expected {value!r}"
        for key, value in want.items()
        if values.get(key) != value
    ]


def _assertion_statuses(report: dict, want: dict[str, str] | None = None) -> list[str]:
    """Every assertion passes, apart from the statuses named in `want`,
    which must appear exactly as given."""
    want = want or {}
    problems = []
    seen = {a["name"]: a["status"] for a in report["assertions"]}
    for a in report["assertions"]:
        expected = want.get(a["name"], "pass")
        if a["status"] != expected:
            problems.append(f"assertion {a['name']} is {a['status']}, expected {expected}")
    problems += [f"assertion {name} missing" for name in want if name not in seen]
    return problems


# -- replay --------------------------------------------------------------------


def _theorem1(p: int) -> Job:
    n = 4 * p * p

    def check(report: dict) -> list[str]:
        want = {"ambient_order": n, "bound": f"{n} >= {n}", "bound_ok": True, "case": "v2-up"}
        return _expect(report["result"], want) + _assertion_statuses(report)

    return Job(("theorem1-verify", "--p", str(p)), check)


def replay_jobs(seed: int) -> list[Job]:
    return [_theorem1(p) for p in (3, 7, 11)]


# -- search --------------------------------------------------------------------


def _search(p, m, cap, roots, minimum, capped, verdict, status) -> Job:
    def check(report: dict) -> list[str]:
        result = report["result"]
        problems = _expect(
            result, {"root_count": roots, "minimum": minimum, "verdict": verdict}
        )
        got_capped = result["histogram"].get(f">={cap}", 0)
        if got_capped != capped:
            problems.append(f"{got_capped} capped closures, expected {capped}")
        if sum(result["histogram"].values()) != roots:
            problems.append("histogram total differs from the root count")
        return problems + _assertion_statuses(
            report, {"theorem1-bound-in-universe": status}
        )

    argv = ("search", "--p", str(p), "--m", str(m), "--cap", str(cap), "--workers", "1")
    return Job(argv, check)


def search_jobs(seed: int) -> list[Job]:
    return [
        _search(3, 8, 1000, 20, 36, 0, "bound holds in universe", "pass"),
        _search(5, 10, 1000, 24, 20, 8, "not-applicable (p = 1 mod 4)", "skip"),
        _search(7, 9, 196, 0, None, 0, "vacuous", "pass"),
    ]


# -- construct -----------------------------------------------------------------


def _lemma7(spec: str, order: int) -> Job:
    def check(report: dict) -> list[str]:
        result = report["result"]
        problems = _expect(result, {"checked": order})
        for row in result["subgroups"]:
            if row["subgroup_order"] != row["order_formula"]:
                problems.append(
                    f"lemma 7 row {row['element']}: order {row['subgroup_order']} "
                    f"!= formula {row['order_formula']}"
                )
        return problems + _assertion_statuses(report)

    return Job(("lemma7-check", "--group", spec), check)


def _lemma8(argv: tuple[str, ...], want: dict, statuses: dict | None = None) -> Job:
    def check(report: dict) -> list[str]:
        return _expect(report["result"], want) + _assertion_statuses(report, statuses)

    return Job(("lemma8-check",) + argv, check)


def _prop1(spec: str, element: str) -> Job:
    def check(report: dict) -> list[str]:
        result = report["result"]
        problems = _expect(result, {"meets_bound": True})
        if result["overgroup_order"] > result["order_bound"]:
            problems.append(
                f"overgroup order {result['overgroup_order']} above {result['order_bound']}"
            )
        return problems + _assertion_statuses(report)

    return Job(("prop1-embed", "--group", spec, "--element", element), check)


def _solve(spec: str, count: int, degree: int, seed: int) -> Job:
    def check(report: dict) -> list[str]:
        result = report["result"]
        problems = _expect(result, {"count": count})
        G = named_group(spec)
        H = wreath_cyclic(G, degree)
        for row in result["solutions"]:
            eq = parse_equation(G, row["equation"])
            if row["solved_in"] != H.name:
                problems.append(f"{row['equation']} solved in {row['solved_in']}")
                continue
            if evaluate(eq, H, H.diag_embed, H.parse(row["solution"])) != H.identity:
                problems.append(f"{row['equation']}: {row['solution']} does not solve it")
            own = row["in_group_solution"]
            if own is not None and evaluate(eq, G, lambda g: g, G.parse(own)) != G.identity:
                problems.append(f"{row['equation']}: in-group {own} does not solve it")
        return problems + _assertion_statuses(report)

    argv = (
        "solve-positive", "--group", spec, "--random", str(count),
        "--degree", str(degree), "--seed", str(seed),
    )
    return Job(argv, check)


def _construct(spec: str, want: dict) -> Job:
    def check(report: dict) -> list[str]:
        return _expect(report["result"], want) + _assertion_statuses(report)

    return Job(("construct", "--group", spec), check)


def _cycles(rng: random.Random, points: list[int], cycle_type: tuple[int, ...]) -> str:
    """A random element of the given cycle type, in cycle notation."""
    chosen = rng.sample(points, sum(cycle_type))
    out, at = [], 0
    for length in cycle_type:
        out.append("(" + " ".join(map(str, chosen[at : at + length])) + ")")
        at += length
    return "".join(out) or "()"


def _class_members(rng: random.Random) -> list[tuple[str, str]]:
    """One seeded member of every conjugacy class of S4, D7 and Z3xS3.

    Conjugate elements cost the same to embed, so the seed changes the
    inputs without changing the amount of work in a pass.
    """
    out = [("S4", _cycles(rng, [1, 2, 3, 4], t)) for t in ((), (2,), (3,), (2, 2), (4,))]
    out.append(("D7", "r^0"))
    out += [("D7", f"r^{rng.choice((k, 7 - k))}") for k in (1, 2, 3)]
    out.append(("D7", f"s*r^{rng.randrange(7)}"))
    out += [
        ("Z3xS3", f"({a}|{_cycles(rng, [1, 2, 3], t)})")
        for a in range(3)
        for t in ((), (2,), (3,))
    ]
    return out


def construct_jobs(seed: int) -> list[Job]:
    rng = random.Random(seed)
    jobs = [
        _lemma7(spec, order)
        for spec, order in (
            ("S4", 24), ("D7", 14), ("A4", 12), ("S3xZ3", 18), ("Z3xS3", 18), ("Z12", 12),
        )
    ]
    jobs += [
        _lemma8(("--group", "Z6"), {"k_normal": True, "quotient_order": 24}),
        _lemma8(
            ("--group", "S3", "--normal-gens", "(1 2 3)"),
            {
                "k_normal": False,
                "witness": {"member": "[(1 2 3),(1 3 2);0]", "conjugator": "[(1 2),();0]"},
            },
            {"k-normal-in-wreath": "fail"},
        ),
        _lemma8(("--group", "Z3xS3"), {"k_normal": True, "quotient_order": 216}),
    ]
    jobs += [_prop1(spec, element) for spec, element in _class_members(rng)]
    jobs += [
        _solve("S3", 200, 3, rng.randrange(2**31)),
        _solve("D7", 200, 2, rng.randrange(2**31)),
        _solve("S4", 100, 2, rng.randrange(2**31)),
    ]
    jobs.append(
        _construct("S4", {"order": 24, "backend": "perm-closure", "center_order": 1})
    )
    return jobs


WORKLOADS: dict[str, Callable[[int], list[Job]]] = {
    "replay": replay_jobs,
    "search": search_jobs,
    "construct": construct_jobs,
}
