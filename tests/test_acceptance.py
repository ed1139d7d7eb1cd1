"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with -s to see them live). Every tolerance is exact and every runtime
limit is asserted, not just hoped for.
"""

import random
import time

from groupsmith.constructions import (
    lemma7_subgroup,
    lemma8_construct,
    levin_root,
    named_group,
    wreath_cyclic,
)
from groupsmith.core import Subgroup, subgroup_generated
from groupsmith.dihedral import (
    minus_one_is_square_mod_p,
    odd_primes_below,
    theorem1_trace,
)
from groupsmith.equations import PositiveEquation, evaluate, levin_solve
from groupsmith.search import min_overgroup_search


def report(number: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number}] {status}: {label}{suffix}")
    assert ok, f"criterion {number} failed: {label} {suffix}"


def test_criterion_1_wreath_upper_bound():
    started = time.perf_counter()
    s3 = named_group("S3")
    W = wreath_cyclic(s3, 2)
    ok = W.order == 72
    count = 0
    for g in s3.elements():
        x = levin_root(W, g)
        ok = ok and (x * x == W.diag_embed(g))
        count += 1
    elapsed = time.perf_counter() - started
    ok = ok and count == 6 and elapsed < 1.0
    report(1, "wreath order 72 and a verified square root for all 6 elements of S3",
           ok, f"{elapsed:.3f}s")


def test_criterion_2_lemma7_oracle_equivalence():
    started = time.perf_counter()
    checked = 0
    ok = True
    for spec in ("Z4", "Z6", "S3", "D5", "D7"):
        G = named_group(spec)
        for g in G.elements():
            res = lemma7_subgroup(G, g)  # verifies formula == closure internally
            regenerated = subgroup_generated(
                res.wreath,
                [res.wreath.diag_embed(a) for a in G.elements()] + [res.root],
            )
            ok = ok and regenerated.payload_set == res.subgroup.payload_set
            checked += 1
    elapsed = time.perf_counter() - started
    ok = ok and checked == 4 + 6 + 6 + 10 + 14 and elapsed < 30.0
    report(2, f"closed form equals generated closure for all {checked} (G, g) pairs",
           ok, f"{elapsed:.2f}s")


def test_criterion_3_tightness_orders():
    s3 = named_group("S3")
    r1 = lemma7_subgroup(s3, s3.parse("(1 2)"))
    ok = r1.order == 36 == 2 * s3.order * r1.commutator_part.order

    d7 = named_group("D7")
    r2 = lemma7_subgroup(d7, d7.parse("s"))
    ok = ok and r2.order == 196 == d7.order**2

    z6 = named_group("Z6")
    for g in z6.elements():
        r3 = lemma7_subgroup(z6, g)
        ok = ok and r3.order == 12 == 2 * z6.order
    report(3, "orders 36 (S3, transposition), 196 = |D7|^2 (reflection), 12 (Z6, all g)", ok)


def test_criterion_4_universe_lower_bound():
    started = time.perf_counter()
    rep3 = min_overgroup_search(3, 6, cap=1000)
    ok = rep3.minimum == 36
    ok = ok and all(order >= 36 for order in rep3.exact_counts)
    ok = ok and rep3.capped_count == 0
    detail = f"p=3 min {rep3.minimum}"

    for m in (7, 9):
        t0 = time.perf_counter()
        rep7 = min_overgroup_search(7, m, cap=196)
        t_m = time.perf_counter() - t0
        below = [order for order in rep7.exact_counts if order < 196]
        ok = ok and not below
        ok = ok and (t_m < 60.0)
        detail += f"; p=7 m={m} roots {rep7.root_count}, below-196 {len(below)}, {t_m:.2f}s"

    # m = 14 tiles two heptagons, so the reflection has six transpositions
    # and real square roots: the only check of p = 7 that is not vacuous
    t0 = time.perf_counter()
    rep14 = min_overgroup_search(7, 14, cap=197)
    t_m = time.perf_counter() - t0
    ok = ok and rep14.root_count == 240
    ok = ok and rep14.exact_counts == {196: 6} and rep14.capped_count == 234
    ok = ok and rep14.minimum == 196
    ok = ok and rep14.verdict == "bound holds in universe"
    ok = ok and (t_m < 60.0)
    detail += (
        f"; p=7 m=14 roots {rep14.root_count}, min {rep14.minimum} "
        f"x{rep14.exact_counts.get(196, 0)}, {t_m:.2f}s"
    )
    elapsed = time.perf_counter() - started
    report(4, "exhaustive ambient searches respect the 4p^2 bound", ok,
           f"{detail}; total {elapsed:.2f}s")


def test_criterion_5_residue_criterion():
    started = time.perf_counter()
    mismatches = [
        p for p in odd_primes_below(1000)
        if minus_one_is_square_mod_p(p) != (p % 4 == 1)
    ]
    elapsed = time.perf_counter() - started
    ok = not mismatches and elapsed < 1.0
    report(5, "-1 is a square mod p exactly when p = 1 mod 4, all odd p < 1000",
           ok, f"{elapsed:.3f}s")


def test_criterion_6_levin_solver():
    started = time.perf_counter()
    s3 = named_group("S3")
    rng = random.Random(0)
    pool = list(s3.elements())
    solved = 0
    ok = True
    for _ in range(20):
        eq = PositiveEquation(tuple(pool[rng.randrange(6)] for _ in range(3)))
        x = levin_solve(eq, s3)
        W = x.group
        ok = ok and evaluate(eq, W, W.diag_embed, x) == W.identity
        solved += 1

    # the criterion names 196 degree-2 equations; that is the full D7
    # coefficient square (14^2), so both dihedral sweeps run here
    for spec, expected in (("D5", 100), ("D7", 196)):
        G = named_group(spec)
        elements = list(G.elements())
        count = 0
        for a in elements:
            for b in elements:
                eq = PositiveEquation((a, b))
                x = levin_solve(eq, G)
                W = x.group
                ok = ok and evaluate(eq, W, W.diag_embed, x) == W.identity
                count += 1
        ok = ok and count == expected
        solved += count
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 60.0
    report(6, f"{solved} positive equations solved and re-verified, no violations",
           ok, f"{elapsed:.2f}s")


def test_criterion_7_lemma8_behavior():
    z6 = named_group("Z6")
    N = subgroup_generated(z6, [z6.parse("2")])
    res = lemma8_construct(z6, N)
    ok = res.normal is True
    ok = ok and res.quotient is not None and res.quotient.order == 24
    ok = ok and res.embed_injective is True
    for g in z6.elements():
        img = res.root_image(g)
        ok = ok and img * img == res.embed(g)

    s3 = named_group("S3")
    A3 = subgroup_generated(s3, [s3.parse("(1 2 3)")])
    res2 = lemma8_construct(s3, A3)
    ok = ok and res2.normal is False and res2.quotient is None
    ok = ok and res2.witness is not None
    member, conjugator = res2.witness
    ok = ok and member.conj(conjugator) not in res2.subgroup_k
    report(7, "Z6 quotient of order 24 with verified roots; S3/A3 witnessed non-normal",
           ok)


def test_criterion_8_proof_replay():
    expected = {3: "36 >= 36", 7: "196 >= 196"}
    ok = True
    details = []
    for p in (3, 7):
        G = named_group(f"D{p}")
        res = lemma7_subgroup(G, G.parse("s"))
        W = res.wreath
        diag = Subgroup.of_payloads(W, (W.diag_embed(a).payload for a in G.elements()))
        rep = theorem1_trace(res.subgroup, diag, res.root)
        ok = ok and rep.bound_line() == expected[p]
        ok = ok and all(a["status"] == "pass" for a in rep.assertions)
        names = {a["name"] for a in rep.assertions}
        ok = ok and {
            "color-census-symmetric",
            "conjugation-preserves-colors",
            "orbit-stabilizer-equality",
            "final-bound",
        } <= names
        details.append(f"p={p}: {rep.bound_line()} [{rep.case}]")
    report(8, "full proof replay on both wreath subgroups", ok, "; ".join(details))
