import gc
import json
import os
import resource
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import groupsmith
from groupsmith import cli, constructions, equations
from groupsmith.cli import build_parser, main
from groupsmith.constructions import WreathGroup, named_group
from groupsmith.core import Element, Group, Subgroup, subgroup_generated
from groupsmith.equations import evaluate, parse_equation, solve_in_group

from helpers import lemma7_rows_by_scan


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 0, err
    return json.loads(out)


def test_construct(capsys):
    report = run_json(capsys, "construct", "--group", "S3")
    assert report["command"] == "construct"
    assert report["result"]["order"] == 6
    assert report["result"]["backend"] == "perm-closure"
    assert all(a["status"] == "pass" for a in report["assertions"])
    assert report["tool_version"]


def test_construct_d100_checks_associativity_exactly(capsys):
    # order 200: every triple would be 8M products, Light's test is 80k
    report = run_json(capsys, "construct", "--group", "D100")
    assert report["result"]["order"] == 200
    assert {"name": "associativity-light", "status": "pass"} in report["assertions"]


def test_adjoin_sqrt_s3(capsys):
    report = run_json(capsys, "adjoin-sqrt", "--group", "S3", "--element", "(1 2)")
    assert report["result"]["overgroup_order"] == 36
    assert report["result"]["strategy"] == "lemma7"
    assert report["assertions"][0]["status"] == "pass"


def test_adjoin_nth_root(capsys):
    report = run_json(
        capsys, "adjoin-nth-root", "--group", "Z2", "--element", "1", "--n", "3"
    )
    assert report["result"]["wreath_order"] == 24


def test_solve_positive_explicit(capsys):
    report = run_json(
        capsys, "solve-positive", "--group", "S3", "--equation", "(1 2)*x*()*x*"
    )
    rows = report["result"]["solutions"]
    assert len(rows) == 1
    assert rows[0]["verified"] is True
    assert rows[0]["in_group_solution"] is None  # transpositions are not squares


def test_solve_positive_exits_1_when_the_solver_check_fails(capsys, monkeypatch):
    monkeypatch.setattr(equations, "evaluate", lambda eq, H, embed, x: None)
    code, _, err = run(capsys, "solve-positive", "--group", "S3", "--equation", "(1 2)*x*")
    assert code == 1
    assert "rejected by the evaluator" in err


def test_solve_positive_evaluates_each_solution_once(capsys, monkeypatch):
    calls = []
    honest = equations.evaluate

    def counted(*args):
        calls.append(args)
        return honest(*args)

    # every binding of the evaluator, the command's own import included
    for module in (equations, cli):
        if hasattr(module, "evaluate"):
            monkeypatch.setattr(module, "evaluate", counted)
    report = run_json(
        capsys, "solve-positive", "--group", "S4", "--random", "100",
        "--degree", "2", "--seed", "1",
    )
    rows = report["result"]["solutions"]
    assert report["result"]["count"] == len(rows) == 100
    assert all(row["verified"] is True for row in rows)
    # a repeated equation is solved, and its solution evaluated, once
    assert len(calls) == len({row["equation"] for row in rows}) == 88


@pytest.mark.parametrize(
    "argv, unsolved",
    [
        (("--group", "S3", "--random", "12", "--degree", "3", "--seed", "3"), {False, True}),
        (("--group", "D7", "--random", "12", "--degree", "2", "--seed", "3"), {False, True}),
        (("--group", "Z3xS3", "--random", "12", "--degree", "2", "--seed", "3"), {False, True}),
        (("--group", "S3", "--equation", "(1 2 3)*x*"), {False}),
    ],
)
def test_solve_positive_in_group_solution_is_solve_in_group(capsys, argv, unsolved):
    # read off the Levin solution, not solved again: it must still be the scan's answer
    rows = run_json(capsys, "solve-positive", *argv)["result"]["solutions"]
    G = named_group(argv[1])
    for row in rows:
        own = solve_in_group(parse_equation(G, row["equation"]), G)
        assert row["in_group_solution"] == (None if own is None else G.render(own))
    assert {row["in_group_solution"] is None for row in rows} == unsolved


def test_solve_positive_random_deterministic(capsys):
    a = run_json(
        capsys, "solve-positive", "--group", "S3", "--random", "5",
        "--degree", "3", "--seed", "7",
    )
    b = run_json(
        capsys, "solve-positive", "--group", "S3", "--random", "5",
        "--degree", "3", "--seed", "7",
    )
    a.pop("timing_ms")
    b.pop("timing_ms")
    assert a == b


def test_lemma7_check_all_elements(capsys):
    report = run_json(capsys, "lemma7-check", "--group", "Z6")
    assert report["result"]["checked"] == 6
    assert all(r["subgroup_order"] == 12 for r in report["result"]["subgroups"])


@pytest.mark.parametrize("spec", ["S4", "D7", "A4", "S3xZ3", "Z12"])
def test_lemma7_check_matches_the_per_element_oracle(capsys, spec):
    report = run_json(capsys, "lemma7-check", "--group", spec)
    result, assertions = lemma7_rows_by_scan(named_group(spec))
    assert report["result"] == result
    assert report["assertions"] == assertions


def test_lemma7_check_s5_by_class(capsys):
    result = run_json(capsys, "lemma7-check", "--group", "S5")["result"]
    assert result["checked"] == 120
    identity, *rest = result["subgroups"]
    assert identity["element"] == "()"
    assert (identity["commutator_order"], identity["subgroup_order"]) == (1, 240)
    assert len(rest) == 119
    assert all((r["commutator_order"], r["subgroup_order"]) == (60, 14400) for r in rest)


@pytest.mark.parametrize("spec, order", [("A6", 360), ("A7", 2520)])
def test_lemma7_check_at_degree_6_and_7(capsys, spec, order):
    report = run_json(capsys, "lemma7-check", "--group", spec)
    rows = report["result"]["subgroups"]
    assert report["result"]["checked"] == order == len(rows)
    assert all(r["subgroup_order"] == r["order_formula"] for r in rows)
    assert Counter(r["commutator_order"] for r in rows) == {1: 1, order: order - 1}
    assert all(a["status"] == "pass" for a in report["assertions"])


def test_prop1_embed_a7_falls_back_to_the_wreath_product(capsys):
    result = run_json(capsys, "prop1-embed", "--group", "A7", "--element", "(1 2 3)")["result"]
    assert result["strategy"] == "fallback"
    assert result["overgroup_order"] == 12_700_800
    assert result["meets_bound"] is False


def test_adjoin_nth_root_past_the_wreath_order_cap(capsys):
    report = run_json(capsys, "adjoin-nth-root", "--group", "S5", "--element", "(1 2)", "--n", "4")
    assert report["result"]["wreath_order"] == 829_440_000


def test_lemma7_check_never_builds_the_subgroup(capsys, monkeypatch):
    results = []
    by_class, single = cli.lemma7_by_class, cli.lemma7_subgroup

    def recorded_by_class(G):
        out = by_class(G)
        results.extend(res for _, res in out)
        return out

    def recorded_single(G, g):
        results.append(single(G, g))
        return results[-1]

    monkeypatch.setattr(cli, "lemma7_by_class", recorded_by_class)
    monkeypatch.setattr(cli, "lemma7_subgroup", recorded_single)
    run_json(capsys, "lemma7-check", "--group", "S4")
    run_json(capsys, "lemma7-check", "--group", "D7", "--element", "s")
    assert len(results) == 24 + 1
    assert not any("subgroup" in res.__dict__ for res in results)


def test_lemma7_check_refuses_a_wrong_conjugator(capsys, monkeypatch):
    honest = Group._class_walk

    def wrong(G, p):
        out = honest(G, p)
        for q in out:
            if q != p:
                out[q] = G._id()  # conjugates p to itself, not to q
                break
        return out

    monkeypatch.setattr(Group, "_class_walk", wrong)
    code, _, err = run(capsys, "lemma7-check", "--group", "S3")
    assert code == 1
    assert "is not the root of" in err


def test_lemma7_check_refuses_a_skewed_transported_root(capsys, monkeypatch):
    honest = Element.conj

    def skewed(self, y):
        out = honest(self, y)
        W = self.group
        if isinstance(W, WreathGroup):
            out = out * W.diag_embed(W.base.generators[0])
        return out

    monkeypatch.setattr(Element, "conj", skewed)
    code, _, err = run(capsys, "lemma7-check", "--group", "S3")
    assert code == 1
    assert "is not the root of" in err


def test_lemma7_check_refuses_a_member_outside_the_coset(capsys, monkeypatch):
    honest = constructions.lemma7_subgroup

    def trivial_c(G, g):
        return honest(G, g)._replace(commutator_part=subgroup_generated(G, []))

    monkeypatch.setattr(constructions, "lemma7_subgroup", trivial_c)
    code, _, err = run(capsys, "lemma7-check", "--group", "S3")
    assert code == 1
    assert "*C for C = [<<g>>, G]" in err


@pytest.mark.parametrize("spec", ["Z5000", "S7"])
def test_table_entry_budget_exits_3(capsys, spec):
    code, _, err = run(capsys, "construct", "--group", spec)
    assert code == 3
    assert "above the table entry budget 16777216" in err


def test_lemma8_check_default_subgroup(capsys):
    report = run_json(capsys, "lemma8-check", "--group", "Z6")
    assert report["result"]["n_order"] == 3
    assert report["result"]["k_normal"] is True
    assert report["result"]["quotient_order"] == 24
    assert report["result"]["embed_injective"] is True


@pytest.mark.parametrize("spec, order", [("Z3xA4", 864), ("Z3xS4", 3456)])
def test_lemma8_check_larger_quotients(capsys, spec, order):
    # quotients of order 864 and 3456, whose cosets multiply through the
    # wreath product instead of a table of order^2 entries
    report = run_json(capsys, "lemma8-check", "--group", spec)
    assert report["result"]["n_order"] == 3
    assert report["result"]["quotient_order"] == order
    assert report["result"]["embed_injective"] is True


def test_lemma8_check_witness(capsys):
    report = run_json(
        capsys, "lemma8-check", "--group", "S3", "--normal-gens", "(1 2 3)"
    )
    assert report["result"]["k_normal"] is False
    assert "witness" in report["result"]
    statuses = {a["name"]: a["status"] for a in report["assertions"]}
    assert statuses["k-normal-in-wreath"] == "fail"


def test_prop1_embed(capsys):
    report = run_json(capsys, "prop1-embed", "--group", "D7", "--element", "s*r3")
    assert report["result"]["strategy"] == "lemma7"
    assert report["result"]["overgroup_order"] == 196
    assert report["result"]["meets_bound"] is True


def test_theorem1_verify(capsys):
    report = run_json(capsys, "theorem1-verify", "--p", "3")
    assert report["result"]["bound"] == "36 >= 36"
    assert "assertions" not in report["result"]
    names = [a["name"] for a in report["assertions"]]
    assert len(names) == len(set(names)) == 15
    assert {"color-census-symmetric", "final-bound"} <= set(names)
    assert all(a["status"] == "pass" for a in report["assertions"])


def test_theorem1_verify_refuses_p_1_mod_4_before_building(capsys, monkeypatch):
    def unbuilt(p):
        raise AssertionError(f"D{p} was built")

    monkeypatch.setattr(cli, "dihedral_group", unbuilt)
    code, _, err = run(capsys, "theorem1-verify", "--p", "101")
    assert code == 2
    assert "p = 101 is not 3 mod 4" in err
    for p in (15, 91, 1003):  # 3 mod 4 but not prime
        code, _, err = run(capsys, "theorem1-verify", "--p", str(p))
        assert code == 2
        assert f"p = {p} is not 3 mod 4 or not prime" in err


def test_theorem1_verify_refuses_the_ambient_before_the_dihedral_copy(capsys, monkeypatch):
    # L for D131 holds 4 * 131^2 = 68,644 flat payloads of 262 entries,
    # above the table entry budget; the diagonal copy lists D131's elements
    def unlisted(self):
        raise AssertionError(f"the elements of {self.name} were listed")

    monkeypatch.setattr(Group, "elements", unlisted)
    code, _, err = run(capsys, "theorem1-verify", "--p", "131")
    assert code == 3
    assert "lemma 7 subgroup order 68644 needs 17984728 payload entries" in err


def test_residue_check(capsys):
    report = run_json(capsys, "residue-check", "--max-p", "1000")
    assert report["result"]["mismatches"] == 0
    assert report["result"]["primes_checked"] == 167


def test_residue_check_csv(capsys):
    code, out, err = run(capsys, "residue-check", "--max-p", "20", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,p_mod_4,minus_one_square"
    assert lines[1] == "3,3,False"
    assert lines[2] == "5,1,True"


def test_residue_check_below_the_first_odd_prime_exits_2(capsys):
    # --max-p N checks the odd primes below N: none at all for N <= 3
    for max_p in ("3", "-5"):
        code, out, err = run(capsys, "residue-check", "--max-p", max_p)
        assert code == 2
        assert "max-p must exceed 3" in err
        assert out == ""


def test_search_json(capsys):
    report = run_json(
        capsys, "search", "--p", "3", "--m", "6", "--cap", "1000", "--workers", "1"
    )
    assert report["result"]["minimum"] == 36
    assert report["result"]["verdict"] == "bound holds in universe"


def test_search_csv(capsys):
    code, out, err = run(
        capsys, "search", "--p", "3", "--m", "6", "--cap", "1000",
        "--workers", "1", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "order,count"
    assert lines[1] == "36,2"


def test_search_non_positive_cap_exits_2(capsys):
    # (7, 9) has no roots, so no capped closure ever runs to reject the cap
    for cap in ("0", "-5"):
        code, out, err = run(
            capsys, "search", "--p", "7", "--m", "9", "--cap", cap, "--workers", "1"
        )
        assert code == 2
        assert "cap must be positive" in err
        assert out == ""


def test_search_workers_flag_is_ignored(capsys):
    with_flag = run_json(capsys, "search", "--p", "3", "--m", "8", "--workers", "1")
    without = run_json(capsys, "search", "--p", "3", "--m", "8")
    for report in (with_flag, without):
        report.pop("params")
        report.pop("timing_ms")
    assert with_flag == without
    code, out, err = run(capsys, "search", "--p", "3", "--m", "8", "--workers", "0")
    assert code == 2
    assert "workers must be positive" in err
    assert out == ""


def test_importing_the_cli_loads_no_process_pool():
    src = str(Path(groupsmith.__file__).parents[1])
    probe = "import sys, groupsmith.cli; print('concurrent.futures' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert done.stdout == "False\n"


@pytest.mark.parametrize(
    "argvs, loaded",
    [
        ([], []),
        (
            [
                ["construct", "--group", "S3"],
                ["lemma7-check", "--group", "S3"],
                ["solve-positive", "--group", "S3", "--equation", "(1 2)*x*()*x*"],
            ],
            [],
        ),
        ([["search", "--p", "3", "--m", "8"]], ["search"]),
        ([["theorem1-verify", "--p", "3"]], ["dihedral"]),
    ],
    ids=["import", "construct-lemma7-solve", "search", "theorem1-verify"],
)
def test_commands_load_the_replay_and_the_search_only_to_run_them(argvs, loaded):
    src = str(Path(groupsmith.__file__).parents[1])
    probe = (
        "import contextlib, io, sys, groupsmith, groupsmith.cli\n"
        f"for argv in {argvs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert groupsmith.cli.main(argv) == 0, argv\n"
        "print([m for m in ('dihedral', 'search') if 'groupsmith.' + m in sys.modules])"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert done.stdout == f"{loaded!r}\n"


def _without_timing(out: str) -> str:
    return "".join(line for line in out.splitlines(True) if not line.startswith("timing_ms:"))


def test_one_parser_serves_every_call(capsys, monkeypatch):
    """The parser is built once per process; two subcommands and then a
    usage error each give what a fresh process gives."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal width
    src = str(Path(groupsmith.__file__).parents[1])
    fresh_main = "import sys; from groupsmith.cli import main; sys.exit(main())"
    for argv in [
        ("construct", "--group", "S3"),
        ("lemma8-check", "--group", "Z6"),
        ("construct", "--format", "json"),  # --group is missing
    ]:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-c", fresh_main, *argv],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=60,
        )
        assert (code, _without_timing(captured.out), captured.err) == (
            fresh.returncode, _without_timing(fresh.stdout), fresh.stderr
        )
    assert code == 2 and "required: --group" in captured.err
    assert build_parser() is build_parser()


def test_solve_positive_takes_no_cap_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve-positive", "--group", "S3", "--random", "1", "--cap", "10"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert "unrecognized arguments: --cap 10" in captured.err
    assert captured.out == ""


def test_element_parse_roundtrip_via_cli(capsys):
    report = run_json(capsys, "prop1-embed", "--group", "D7", "--element", "s*r^3")
    assert report["result"]["element"] == "s*r^3"
    report2 = run_json(capsys, "prop1-embed", "--group", "D7", "--element", "s*r3")
    assert report2["result"]["element"] == "s*r^3"


def test_unknown_family_exits_2(capsys):
    code, out, err = run(capsys, "construct", "--group", "Q8")
    assert code == 2
    assert "usage" in err


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--group", "S3", "--frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["lemma7-check", "--group", "S3", "--element", ""], "empty element string"),
        (["lemma8-check", "--group", "Z3xS3", "--normal-gens", ""], "look like (a|b)"),
        (["solve-positive", "--group", "S3", "--equation", "", "--random", "1"], "'*x*'"),
        (["solve-positive", "--group", "S3", "--random", "-1"], "--random must be nonnegative"),
        (["prop1-embed", "--group", "D3", "--element", "r^"], "look like r^k or s*r^k"),
    ],
    ids=["element", "normal-gens", "equation", "negative-random", "exponent"],
)
def test_empty_or_negative_option_values_exit_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert message in err
    assert out == ""


def test_jobs_leave_no_group_in_cyclic_garbage(capsys):
    """Groups, subgroups and elements hold no reference cycle, so each job
    frees them by reference counting and none waits for the collector."""
    jobs = [
        ["construct", "--group", "Z3xS3"],
        ["lemma8-check", "--group", "Z3xS3"],
        ["prop1-embed", "--group", "Z3xS3", "--element", "(1|(1 2 3))"],
        ["theorem1-verify", "--p", "7"],
        ["solve-positive", "--group", "S3", "--random", "3"],
        ["solve-positive", "--group", "S3", "--equation", "(1 2)*x*()*x*()*x*", "--random", "3"],
    ]
    was_enabled, flags = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.disable()
    try:
        gc.set_debug(gc.DEBUG_SAVEALL)
        for argv in jobs:
            assert main([*argv, "--format", "json"]) == 0, argv
        gc.collect()
        leaked = Counter(
            type(o).__name__ for o in gc.garbage if issubclass(type(o), (Group, Subgroup, Element))
        )
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
    capsys.readouterr()
    assert not leaked


# strings drawn from every code point, with quotes, backslashes, control
# and non-ASCII characters made common
_json_strings = st.text(
    st.characters(exclude_categories=()) | st.sampled_from('"\\/\x00\x1f\x7f\u00e9\u2028\U0001f600')
)
_json_values = st.recursive(
    st.one_of(
        _json_strings,
        st.integers(min_value=-(2**70), max_value=2**70),
        st.booleans(),
        st.none(),
        st.sampled_from([-0.0, 1e300, float("nan"), float("inf"), float("-inf")]),
    ),
    lambda inner: st.one_of(
        st.dictionaries(_json_strings, inner),
        st.lists(inner),
        st.lists(inner).map(tuple),
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(_json_values)
@example({"a": ("x", 2**63, (), []), "b": {}, "c": [None, True, {"d": -1}]})
def test_json_text_is_json_dumps_indent_2(value):
    assert cli._json_text(value) == json.dumps(value, indent=2)


def test_solve_positive_in_a_wreath_product_past_the_cap(capsys):
    # S3 wr Z9 has order 9 * 6^9 > WREATH_ORDER_CAP, but the solver lists
    # none of its elements
    report = run_json(capsys, "solve-positive", "--group", "S3", "--random", "1", "--degree", "9")
    (row,) = report["result"]["solutions"]
    assert row["solved_in"] == "S3 wr Z9"
    G = named_group("S3")
    H = WreathGroup(G, 9)
    eq = parse_equation(G, row["equation"])
    assert evaluate(eq, H, H.diag_embed, H.parse(row["solution"])) == H.identity


@pytest.mark.parametrize(
    "argv",
    [
        ("adjoin-nth-root", "--group", "S5", "--element", "(1 2)", "--n", "5000"),
        ("solve-positive", "--group", "S3", "--random", "1", "--degree", "100000"),
    ],
)
def test_wreath_arity_past_the_cap_exits_3_at_once(capsys, argv):
    # n^2 * |G| > WREATH_ORDER_CAP: refused before any of the n products of
    # n blocks, which would take hours
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert code == 3 and time.perf_counter() - start < 5
    assert "arity^2 * |base| exceeds cap 10000000" in err


def run_in_1gib(*argv, address_space: int = 1 << 30) -> tuple[int, str]:
    """Exit code and stderr of the CLI in a fresh process limited to 1 GiB
    of address space (or `address_space` bytes) and 30 s, so that building
    past the limits ends in a MemoryError (exit 4) or a timeout, not in
    several GB of memory."""
    src = str(Path(groupsmith.__file__).parents[1])

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    done = subprocess.run(
        [sys.executable, "-m", "groupsmith.cli", *argv], env={**os.environ, "PYTHONPATH": src},
        preexec_fn=limit, capture_output=True, text=True, timeout=30,
    )
    return done.returncode, done.stderr


# the order's partial product where it first passes the walk's limit,
# min(cap, 2^24 // degree), and that limit
REFUSED = {
    "S200000000": (2, 0),
    "D100000007": (2, 0),
    "A20000": (2520, 838),
    "A3000": (20160, 5592),
    "D3001": (6002, 5590),
    "S5000000": (6, 3),
}


@pytest.mark.parametrize("spec", ["S200000000", "D100000007", "A20000"])
def test_named_group_generators_past_the_entry_budget_exit_3(spec):
    # 2m, 2p and (m-2)*m generator entries would pass 2^24; the order
    # passes 2^24 // degree first, and is refused before any is built
    code, err = run_in_1gib("construct", "--group", spec)
    assert code == 3, err
    assert "{} has order at least {}, above {} at degree".format(spec, *REFUSED[spec]) in err


@pytest.mark.parametrize("spec", ["A3000", "D3001", "S5000000"])
def test_named_groups_past_the_walk_limit_exit_3_in_128_mib(spec):
    # built, the generators of A3000 and S5000000 and the walk of D3001 to
    # 2^24 // 3001 permutations peaked at 143-932 MB
    code, err = run_in_1gib("construct", "--group", spec, address_space=128 << 20)
    assert code == 3, err
    assert "{} has order at least {}, above {} at degree".format(spec, *REFUSED[spec]) in err


def test_solve_positive_refuses_the_degree_before_drawing():
    # drawing the 10^8 coefficients first took about half a minute
    code, err = run_in_1gib(
        "solve-positive", "--group", "S3", "--random", "1", "--degree", "100000000"
    )
    assert code == 3, err
    assert "S3 wr Z100000000: arity^2 * |base| exceeds cap 10000000" in err


def test_solve_positive_refuses_the_count_before_drawing():
    # 2 * 10^8 equations of degree 2 ran out of memory after 22.6 s
    code, err = run_in_1gib("solve-positive", "--group", "S3", "--random", "200000000")
    assert code == 3, err
    assert "of degree 2 draw 400000000 coefficients, above cap 10000" in err


def test_a_closed_stdout_ends_the_command_with_exit_0():
    # the report, over 64 KiB, outgrows the pipe's buffer, so the reader
    # leaves while the command still writes
    src = str(Path(groupsmith.__file__).parents[1])
    argv = ["solve-positive", "--group", "S3", "--random", "1000", "--format", "json"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "groupsmith.cli", *argv], env={**os.environ, "PYTHONPATH": src},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=30)
    assert proc.returncode == 0, err
    assert err == b""


def test_lemma8_quotient_under_a_broken_wreath_law_is_falsified(capsys, monkeypatch):
    # shifting by the right operand's k: e * p is not always p, so the
    # cosets of K miss elements of the wreath product
    def mul_shifted_by_right_k(self, p, q):
        (f, k), (f2, k2) = self.unpack(p), self.unpack(q)
        n = self.arity
        h = tuple(self.base._mul(f[i], f2[(i - k2) % n]) for i in range(n))
        return self.pack(h, (k + k2) % n)

    monkeypatch.setattr(WreathGroup, "_mul", mul_shifted_by_right_k)
    for spec in ("Z6", "Z3xS3"):
        code, _, err = run(capsys, "lemma8-check", "--group", spec)
        assert code == 1, err
        assert f"the cosets of N in {spec} wr Z2 hold" in err


def test_env_cap_override(capsys, monkeypatch):
    monkeypatch.setenv("GROUPSMITH_CAP", "100")
    code, out, err = run(capsys, "construct", "--group", "S5")
    assert code == 3


def test_env_cap_refuses_quotient_table(capsys, monkeypatch):
    # Z3xS3 has order 18; its lemma 8 quotient over the central Z3 has 216
    monkeypatch.setenv("GROUPSMITH_CAP", "100")
    code, out, err = run(capsys, "lemma8-check", "--group", "Z3xS3")
    assert code == 3
    assert "quotient order 216 exceeds cap 100" in err


def test_csv_not_supported_elsewhere(capsys):
    code, out, err = run(capsys, "construct", "--group", "S3", "--format", "csv")
    assert code == 2


def test_falsification_exits_1(capsys, monkeypatch):
    from groupsmith.errors import Falsification

    def broken(args):
        raise Falsification("synthetic failure")

    monkeypatch.setitem(cli.HANDLERS, "construct", broken)
    code, out, err = run(capsys, "construct", "--group", "S3")
    assert code == 1
    assert "falsified" in err


def test_unexpected_error_exits_4(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("synthetic\nbug")

    monkeypatch.setitem(cli.HANDLERS, "construct", broken)
    code, out, err = run(capsys, "construct", "--group", "S3")
    assert code == 4
    assert out == ""
    assert err == "groupsmith: internal error: RuntimeError: synthetic bug\n"


def test_unrenderable_report_exits_4_and_prints_nothing(capsys, monkeypatch):
    monkeypatch.setitem(cli.HANDLERS, "construct", lambda args: ({"x": object()}, []))
    code, out, err = run(capsys, "construct", "--group", "S3", "--format", "json")
    assert code == 4
    assert out == ""
    assert err == "groupsmith: internal error: TypeError: Object of type object is not JSON serializable\n"


def test_json_reports_are_stable(capsys):
    a = run_json(capsys, "search", "--p", "3", "--m", "6", "--cap", "1000", "--workers", "1")
    b = run_json(capsys, "search", "--p", "3", "--m", "6", "--cap", "1000", "--workers", "1")
    a.pop("timing_ms")
    b.pop("timing_ms")
    assert json.dumps(a, sort_keys=False) == json.dumps(b, sort_keys=False)
