"""A catalogue of mutants: small breaks of the program that the tests must catch.

Each mutant names a source file, an exact snippet that occurs once in it,
the snippet's replacement, and the tests that must fail once it is applied.
`python tests/mutants.py [NAME ...]` applies each mutant (or the named ones)
to a temporary copy of `src`, `tests` and `bench`, runs the mutant's tests there with
pytest, and reports every mutant that survives: one of its tests still
passes. The exit status is 1 when a mutant survives or a snippet no longer
matches. pytest does not collect this file; `test_mutants.py` checks that
each snippet occurs exactly once, so a change that rewrites a checked line
must update its mutant here.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # pytest node ids; a parametrized id covers its cases


MUTANTS = (
    Mutant(
        "subgroup-without-identity-check",
        "src/groupsmith/core.py",
        "        if parent._id() not in pset:\n",
        "        if False:\n",
        ("tests/test_core.py::test_subgroup_validation",),
    ),
    Mutant(
        "subgroup-without-closure-check",
        "src/groupsmith/core.py",
        "                if mul(p, q) not in pset:\n",
        "                if False:\n",
        ("tests/test_core.py::test_subgroup_validation",),
    ),
    Mutant(
        "subgroup-without-divisibility-check",
        "src/groupsmith/core.py",
        "        if not pset or parent.order % len(pset):\n",
        "        if not pset:\n",
        ("tests/test_core.py::test_the_checked_and_unchecked_subgroup_constructors_agree",),
    ),
    Mutant(
        "subgroup-payloads-unsorted",
        "src/groupsmith/core.py",
        "        self.payloads = tuple(sorted(pset))\n",
        "        self.payloads = tuple(pset)\n",
        (
            "tests/test_core.py::test_the_checked_and_unchecked_subgroup_constructors_agree",
            "tests/test_constructions.py::test_lemma8_witness_is_first_failing_member",
        ),
    ),
    Mutant(
        "closure-abort-past-the-bound",
        "src/groupsmith/core.py",
        "                if abort_at is not None and len(ordered) >= abort_at:\n",
        "                if abort_at is not None and len(ordered) > abort_at:\n",
        ("tests/test_core.py::test_perm_closure_lists_each_point_once_breadth_first",),
    ),
    Mutant(
        "quotient-without-normality-check",
        "src/groupsmith/core.py",
        "        witness = self.normality_witness(N)\n        if witness is not None:\n",
        "        witness = self.normality_witness(N)\n        if False:\n",
        ("tests/test_core.py::test_quotient_rejects_non_normal",),
    ),
    Mutant(
        "levin-coefficients-uninverted",
        "src/groupsmith/equations.py",
        "            x = Element(H, H.pack(tuple(G._inv(g.payload) for g in eq.coefficients), 1))\n",
        "            x = Element(H, H.pack(tuple(g.payload for g in eq.coefficients), 1))\n",
        (
            "tests/test_equations.py::test_levin_solve_matches_scan_oracle",
            "tests/test_equations.py::test_levin_shift1_solutions_meet_lemma7_set",
        ),
    ),
    Mutant(
        "levin-tuple-reversed",
        "src/groupsmith/equations.py",
        "            x = Element(H, H.pack(tuple(G._inv(g.payload) for g in eq.coefficients), 1))\n",
        "            x = Element(H, H.pack(tuple(G._inv(g.payload) for g in eq.coefficients)[::-1], 1))\n",
        ("tests/test_equations.py::test_levin_solve_matches_scan_oracle",),
    ),
    Mutant(
        "levin-without-shift-0",
        "src/groupsmith/equations.py",
        "        s = solve_in_group(eq, G)\n",
        "        s = None\n",
        (
            "tests/test_equations.py::test_levin_solve_matches_scan_oracle",
            "tests/test_equations.py::test_levin_solve_is_lex_minimal",
        ),
    ),
    Mutant(
        "scan-drops-first-coefficient",
        "src/groupsmith/equations.py",
        "        acc = by_p(first)\n",
        "        acc = p\n",
        ("tests/test_equations.py::test_solve_in_group_matches_filter_oracle",),
    ),
    Mutant(
        "evaluate-without-embed-check",
        "src/groupsmith/equations.py",
        "        H._check(img)\n",
        "        pass\n",
        ("tests/test_equations.py::test_evaluate_refuses_operands_outside_the_wreath_product",),
    ),
    Mutant(
        "chain-order-without-sifting",
        "src/groupsmith/search.py",
        "    while level >= 0 and prod(len(orbit) for _, _, orbit in levels) < stop:\n",
        "    while False:\n",
        (
            "tests/test_search.py::test_chain_matches_breadth_first_closure",
            "tests/test_search.py::test_closure_agrees_with_table_groups",
            "tests/test_search.py::test_search_p3_m6_minimum_36",
        ),
    ),
    Mutant(
        "compose-b-after-a",
        "src/groupsmith/perms.py",
        "        return itemgetter(*b)(a)\n",
        "        return itemgetter(*a)(b)\n",
        (
            "tests/test_perms.py::test_compose_applies_right_then_left",
            "tests/test_properties.py::test_compose_is_the_definition_and_associative",
        ),
    ),
    Mutant(
        "compose-fallback-from-degree-1",
        "src/groupsmith/perms.py",
        "    if len(b) > 1:\n",
        "    if len(b) > 0:\n",
        ("tests/test_properties.py::test_compose_is_the_definition_and_associative",),
    ),
    Mutant(
        "conjugates-by-inverse",
        "src/groupsmith/perms.py",
        "        at_y = itemgetter(*y)\n"
        "        return lambda h: itemgetter(*at_y(h))(yinv)\n",
        "        at_y = itemgetter(*yinv)\n"
        "        return lambda h: itemgetter(*at_y(h))(y)\n",
        (
            "tests/test_properties.py::test_conjugates_is_the_two_product_conjugate",
            "tests/test_properties.py::test_conjugation_kernel_matches_the_generic_path",
            "tests/test_dihedral.py::test_vertex_perm_is_a_homomorphism",
        ),
    ),
    Mutant(
        # block i of the payload carries f[i], so a product shifts the left
        # operand's coordinates by the right operand's k
        "wreath-mul-shifts-by-right-k",
        "src/groupsmith/constructions.py",
        "            out += [src * d + x for x in f[src]]\n",
        "            out += [src * d + x for x in f[i]]\n",
        (
            "tests/test_properties.py::test_flat_kernel_matches_oracle_exhaustively",
            "tests/test_constructions.py::test_wreath_render_parse",
            "tests/test_equations.py::test_levin_solve_matches_scan_oracle",
        ),
    ),
    Mutant(
        "pack-without-block-offsets",
        "src/groupsmith/constructions.py",
        "            out += [src * d + x for x in f[src]]\n",
        "            out += [x for x in f[src]]\n",
        (
            "tests/test_properties.py::test_flat_kernel_matches_oracle_exhaustively",
            "tests/test_constructions.py::test_levin_root_squares_exhaustively",
        ),
    ),
    Mutant(
        "diag-without-block-offsets",
        "src/groupsmith/constructions.py",
        "            p = self._diag[g.payload] = tuple([o + x for o in self._offsets for x in g.payload])\n",
        "            p = self._diag[g.payload] = tuple([x for o in self._offsets for x in g.payload])\n",
        (
            "tests/test_properties.py::test_diag_embed_and_identity_are_packed",
            "tests/test_properties.py::test_wreath_law",
        ),
    ),
    Mutant(
        "wreath-memo-ignores-arity",
        "src/groupsmith/constructions.py",
        "    W = live.get(n)\n",
        "    W = next(iter(live.values()), None)\n",
        (
            "tests/test_constructions.py::test_wreath_cyclic_shares_the_live_product",
            "tests/test_cli.py::test_jobs_leave_no_group_in_cyclic_garbage",
        ),
    ),
    Mutant(
        # a tuple falls through to json.dumps, which writes it on one line
        "json-text-tuples-compact",
        "src/groupsmith/cli.py",
        "    if isinstance(value, (list, tuple)):\n",
        "    if isinstance(value, list):\n",
        ("tests/test_cli.py::test_json_text_is_json_dumps_indent_2",),
    ),
    Mutant(
        "product-names-split-at-the-second-degree",
        "src/groupsmith/core.py",
        "        self.A, self.B, self.d = A, B, A.degree\n",
        "        self.A, self.B, self.d = A, B, B.degree\n",
        ("tests/test_core.py::test_render_parse_roundtrip_all_backends",),
    ),
    Mutant(
        "cyclic-names-without-the-inverse-unit",
        "src/groupsmith/constructions.py",
        "        self._units = [n // q * pow(n // q, -1, q) for q in orders]\n",
        "        self._units = [n // q for q in orders]\n",
        (
            "tests/test_core.py::test_render_parse_roundtrip_all_backends",
            "tests/test_properties.py::test_parse_inverts_render_on_every_backend",
        ),
    ),
    Mutant(
        "split-top-ignores-square-brackets",
        "src/groupsmith/core.py",
        '        depth += piece.count("(") + piece.count("[") - piece.count(")") - piece.count("]")\n',
        '        depth += piece.count("(") - piece.count(")")\n',
        ("tests/test_properties.py::test_split_top_matches_the_character_walk",),
    ),
    Mutant(
        # the payloads keep n*d points, but the identity has d
        "wreath-degree-of-one-block",
        "src/groupsmith/constructions.py",
        "        super().__init__(name, arity * d)\n",
        "        super().__init__(name, d)\n",
        (
            "tests/test_properties.py::test_diag_embed_and_identity_are_packed",
            "tests/test_constructions.py::test_levin_root_squares_exhaustively",
        ),
    ),
    Mutant(
        "times-on-the-left",
        "src/groupsmith/core.py",
        "        return itemgetter(*q) if len(q) > 1 else super()._times(q)\n",
        "        return (lambda p: itemgetter(*p)(q)) if len(q) > 1 else super()._times(q)\n",
        (
            "tests/test_properties.py::test_times_is_right_multiplication",
            "tests/test_equations.py::test_solve_in_group_matches_filter_oracle",
        ),
    ),
    Mutant(
        "lemma7-shift-coset-g-inverse-c",
        "src/groupsmith/constructions.py",
        "    cosets = C.payload_set, frozenset(G._mul(g.payload, c) for c in C.payloads)\n",
        "    cosets = C.payload_set, frozenset(G._mul(G._inv(g.payload), c) for c in C.payloads)\n",
        (
            "tests/test_constructions.py::test_lemma7_abelian_doubles",
            "tests/test_constructions.py::test_lemma7_matches_independent_closure",
        ),
    ),
    Mutant(
        "lemma7-without-label-predicate",
        "src/groupsmith/constructions.py",
        "        if c not in cosets[k]:\n",
        "        if False:\n",
        ("tests/test_constructions.py::test_lemma7_walk_refuses_a_root_move_without_the_inverse",),
    ),
    Mutant(
        "lemma5-without-completeness-check",
        "src/groupsmith/dihedral.py",
        "            if closed[j] != near:\n",
        "            if False:\n",
        ("tests/test_dihedral.py::test_lemma56_detects_recolored_graph",),
    ),
    Mutant(
        "vertex-named-by-one-member",
        "src/groupsmith/dihedral.py",
        "            found = holders[by_y(a)] & holders[by_y(b)]\n",
        "            found = holders[by_y(a)]\n",
        (
            "tests/test_dihedral.py::test_generator_checks_match_scan_oracles",
            "tests/test_dihedral.py::test_vertex_perm_matches_set_oracle_on_the_generators",
            "tests/test_dihedral.py::test_trace_d7",
        ),
    ),
    Mutant(
        "naming-pair-not-unique",
        "src/groupsmith/dihedral.py",
        "        if b not in (idp, a) and holders[a] & holders[b] == {i}:\n",
        "        if b not in (idp, a):\n",
        (
            "tests/test_dihedral.py::test_vertex_names_pass_over_a_shared_rotation_pair",
            "tests/test_dihedral.py::test_vertex_perm_refuses_a_pair_held_by_several_vertices",
        ),
    ),
    Mutant(
        "lemma7-by-class-without-root-check",
        "src/groupsmith/constructions.py",
        "            if root != rep.root.conj(W.diag_embed(Element(G, h))):\n",
        "            if False:\n",
        (
            "tests/test_cli.py::test_lemma7_check_refuses_a_wrong_conjugator",
            "tests/test_cli.py::test_lemma7_check_refuses_a_skewed_transported_root",
        ),
    ),
    Mutant(
        "lemma7-by-class-without-coset-check",
        "src/groupsmith/constructions.py",
        "            if G._mul(ginv, q) not in C.payload_set:\n",
        "            if False:\n",
        ("tests/test_cli.py::test_lemma7_check_refuses_a_member_outside_the_coset",),
    ),
    Mutant(
        "class-walk-conjugator-on-the-wrong-side",
        "src/groupsmith/core.py",
        "                found[r] = mul(found[q], a)\n",
        "                found[r] = mul(a, found[q])\n",
        (
            "tests/test_core.py::test_class_walk_maps_each_member_to_a_conjugator",
            "tests/test_cli.py::test_lemma7_check_matches_the_per_element_oracle",
        ),
    ),
    Mutant(
        # y h y^-1 in place of y^-1 h y, in the kernel every table and coset
        # group conjugates with
        "generic-conjugator-on-the-wrong-side",
        "src/groupsmith/core.py",
        "        return lambda h, mul=self._mul, yinv=self._inv(y): mul(mul(yinv, h), y)\n",
        "        return lambda h, mul=self._mul, yinv=self._inv(y): mul(mul(y, h), yinv)\n",
        (
            "tests/test_properties.py::test_conjugation_kernel_matches_the_generic_path",
            "tests/test_core.py::test_class_walk_maps_each_member_to_a_conjugator",
        ),
    ),
)


def _unkilled(tests: tuple[str, ...], failed: set[str]) -> list[str]:
    """The named tests of which no case failed."""
    return [t for t in tests if not any(f == t or f.startswith(t + "[") for f in failed)]


def run_mutant(m: Mutant, workdir: Path) -> str:
    """Apply `m` to a fresh copy of the tree in `workdir` and run its tests;
    the verdict is "killed", or why the mutant survives."""
    tree = workdir / m.name
    for part in ("src", "tests", "bench"):
        shutil.copytree(ROOT / part, tree / part, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "pyproject.toml", tree)
    target = tree / m.path
    text = target.read_text()
    if text.count(m.snippet) != 1:
        return f"snippet occurs {text.count(m.snippet)} times in {m.path}"
    target.write_text(text.replace(m.snippet, m.replacement))
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *m.tests],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    if proc.returncode not in (0, 1):
        return f"pytest exited {proc.returncode}:\n{proc.stdout[-2000:]}"
    failed = set(re.findall(r"^FAILED (\S+)", proc.stdout, re.M))
    survivors = _unkilled(m.tests, failed)
    return "killed" if not survivors else "survives: passes " + ", ".join(survivors)


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    bad = 0
    with tempfile.TemporaryDirectory(prefix="groupsmith-mutants-") as tmp:
        for m in chosen:
            verdict = run_mutant(m, Path(tmp))
            bad += verdict != "killed"
            print(f"{m.name}: {verdict}", flush=True)
    print(f"{len(chosen) - bad} of {len(chosen)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
