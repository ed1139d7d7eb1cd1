import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from groupsmith import equations
from groupsmith.constructions import lemma7_subgroup, named_group, wreath_cyclic
from groupsmith.equations import (
    PositiveEquation,
    adjoin_nth_root,
    evaluate,
    levin_solve,
    parse_equation,
    solve_in_group,
)
from groupsmith.errors import Falsification, ParseError, PreconditionError

from helpers import levin_solve_by_scan


def test_equation_validation(s3, z6):
    with pytest.raises(PreconditionError):
        PositiveEquation(())
    with pytest.raises(PreconditionError):
        PositiveEquation((s3.identity, z6.identity))
    eq = PositiveEquation((s3.parse("(1 2)"), s3.identity))
    assert eq.degree == 2
    assert eq.group is s3


def test_parse_and_render(s3):
    eq = parse_equation(s3, "(1 2)*x*()*x*")
    assert eq.degree == 2
    assert s3.render(eq.coefficients[0]) == "(1 2)"
    assert eq.coefficients[1] == s3.identity
    assert eq.render() == "(1 2)*x*()*x*"
    assert parse_equation(s3, eq.render()).coefficients == eq.coefficients


def test_parse_errors(s3, z6):
    for bad in ("", "(1 2)", "(1 2)*x*extra", "*x*"):
        with pytest.raises(ParseError):
            parse_equation(s3, bad)
    eq = parse_equation(z6, "3*x*0*x*")
    assert eq.degree == 2


def test_evaluate_examples(s3):
    g = s3.parse("(1 2)")
    W = wreath_cyclic(s3, 2)
    eq = PositiveEquation((g.inv(), s3.identity))
    from groupsmith.constructions import levin_root

    x = levin_root(W, g)
    assert evaluate(eq, W, W.diag_embed, x) == W.identity

    all_id = PositiveEquation((s3.identity, s3.identity, s3.identity))
    assert evaluate(all_id, s3, lambda e: e, s3.identity) == s3.identity

    deg1 = PositiveEquation((g.inv(),))
    assert evaluate(deg1, s3, lambda e: e, g) == s3.identity


def test_evaluate_refuses_operands_outside_the_wreath_product(s3):
    W = wreath_cyclic(s3, 2)
    g = s3.parse("(1 2)")
    eq = PositiveEquation((g, s3.identity))
    with pytest.raises(PreconditionError):
        evaluate(eq, W, W.diag_embed, g)
    with pytest.raises(PreconditionError):
        evaluate(eq, W, lambda e: e, W.identity)


def test_solve_in_group_examples(d7):
    z7 = named_group("Z7")
    g = z7.parse("3")
    eq = PositiveEquation((g.inv(), z7.identity))
    x = solve_in_group(eq, z7)
    assert z7.render(x) == "5"

    refl = d7.parse("s")
    eq_refl = PositiveEquation((refl.inv(), d7.identity))
    assert solve_in_group(eq_refl, d7) is None

    eq_id = PositiveEquation((d7.identity,))
    assert solve_in_group(eq_id, d7) == d7.identity


def test_solve_in_group_matches_filter_oracle():
    rng = random.Random(11)
    for spec in ("S3", "Z6", "D5", "A4", "Z4xZ2"):
        G = named_group(spec)
        pool = list(G.elements())
        for _ in range(25):
            degree = rng.randrange(1, 4)
            eq = PositiveEquation(
                tuple(pool[rng.randrange(len(pool))] for _ in range(degree))
            )
            oracle = [
                x
                for x in G.elements()
                if evaluate(eq, G, lambda e: e, x) == G.identity
            ]
            got = solve_in_group(eq, G)
            if oracle:
                assert got == oracle[0]
            else:
                assert got is None


def test_levin_solve_degree_one(s3):
    g = s3.parse("(1 2 3)")
    x = levin_solve(PositiveEquation((g,)), s3)
    assert x.group is s3
    assert g * x == s3.identity


@pytest.mark.parametrize("text", ["(1 2 3)*x*", "(1 2)*x*()*x*"])
def test_levin_solve_checks_every_answer(s3, monkeypatch, text):
    # an evaluator that rejects everything must reach every degree, 1 included
    monkeypatch.setattr(equations, "evaluate", lambda eq, H, embed, x: None)
    with pytest.raises(Falsification, match="rejected by the evaluator"):
        levin_solve(parse_equation(s3, text), s3)


def test_levin_solve_all_identity(s3):
    eq = PositiveEquation((s3.identity, s3.identity))
    x = levin_solve(eq, s3)
    W = x.group
    assert x == W.identity


def test_levin_solve_square_root_equation(s3):
    g = s3.parse("(1 2)")
    eq = PositiveEquation((g.inv(), s3.identity))
    x = levin_solve(eq, s3)
    W = x.group
    assert evaluate(eq, W, W.diag_embed, x) == W.identity
    f, k = W.unpack(x.payload)
    assert k == 1  # no shift-0 solution exists: (1 2) is not a square in S3


def test_levin_solve_random_degree3_over_s3(s3):
    rng = random.Random(0)
    pool = list(s3.elements())
    for _ in range(20):
        eq = PositiveEquation(tuple(pool[rng.randrange(6)] for _ in range(3)))
        x = levin_solve(eq, s3)
        W = x.group
        assert evaluate(eq, W, W.diag_embed, x) == W.identity


def test_levin_solve_deterministic(s3):
    eq = PositiveEquation((s3.parse("(1 2 3)"), s3.parse("(1 3)"), s3.identity))
    a = levin_solve(eq, s3)
    b = levin_solve(eq, s3)
    assert a.payload == b.payload


def assert_levin_answer(eq: PositiveEquation, x) -> int:
    """x is the first shift-0 solution by scan, or else the closed form
    (g1^-1, ..., gn^-1) at shift 1; returns x's shift."""
    W = x.group
    first = levin_solve_by_scan(eq, eq.group, shift=0)
    if first is not None:
        assert x.payload == first.payload
    else:
        assert W.unpack(x.payload) == (tuple(g.inv().payload for g in eq.coefficients), 1)
    return W.unpack(x.payload)[1]


def test_levin_solve_is_lex_minimal(z6):
    # Z6 has x*x = c only for even c, so both shifts are reached
    rng = random.Random(5)
    pool = list(z6.elements())
    shifts = set()
    for _ in range(10):
        eq = PositiveEquation(tuple(pool[rng.randrange(6)] for _ in range(2)))
        shifts.add(assert_levin_answer(eq, levin_solve(eq, z6)))
    assert shifts == {0, 1}


def random_equations(G, n: int, count: int, seed: int) -> list[PositiveEquation]:
    rng = random.Random(seed)
    pool = list(G.elements())
    return [
        PositiveEquation(tuple(pool[rng.randrange(len(pool))] for _ in range(n)))
        for _ in range(count)
    ]


# Z3xS3 is a product base, the others one symmetric or dihedral group
SCAN_CASES = [
    ("S3", 2), ("S3", 3), ("S3", 4), ("D5", 2), ("D5", 3), ("S4", 2), ("Z3xS3", 2), ("Z3xS3", 3)
]


def test_levin_solve_matches_scan_oracle():
    shifts = set()
    for spec, n in SCAN_CASES:
        G = named_group(spec)
        for eq in random_equations(G, n, 4, seed=14):
            shifts.add(assert_levin_answer(eq, levin_solve(eq, G)))
    # the in-group step and the closed form both decide some equation; nothing else does
    assert shifts == {0, 1}


def _closed_form_solves(eq: PositiveEquation) -> bool:
    """Whether (g1^-1, ..., gn^-1) at shift 1 solves eq under `evaluate`."""
    W = wreath_cyclic(eq.group, eq.degree)
    x = W.element(W.pack(tuple(g.inv().payload for g in eq.coefficients), 1))
    return evaluate(eq, W, W.diag_embed, x) == W.identity


@pytest.mark.parametrize("spec, n", [("S3", 2), ("S3", 3), ("S3", 4), ("Z3xS3", 2)])
def test_closed_form_solves_every_equation_at_shift_one(spec, n):
    G = named_group(spec)
    for coefficients in product(G.elements(), repeat=n):
        assert _closed_form_solves(PositiveEquation(coefficients)), coefficients


LEVIN_BASES = [named_group("S3"), named_group("D5")]


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(LEVIN_BASES).flatmap(
        lambda G: st.lists(st.sampled_from(list(G.elements())), min_size=2, max_size=4)
    )
)
def test_levin_solve_is_the_first_scanned_solution(coefficients):
    eq = PositiveEquation(tuple(coefficients))
    assert_levin_answer(eq, levin_solve(eq, eq.group))


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([named_group("S3"), named_group("D5"), named_group("A4")]).flatmap(
        lambda G: st.lists(st.sampled_from(list(G.elements())), min_size=2, max_size=5)
    )
)
def test_closed_form_solves_at_shift_one(coefficients):
    assert _closed_form_solves(PositiveEquation(tuple(coefficients)))


def test_levin_abelian_closed_form():
    for spec in ("Z6", "Z8"):
        G = named_group(spec)
        pool = list(G.elements())
        rng = random.Random(42)
        for n in (2, 3):
            for _ in range(8):
                coeffs = tuple(pool[rng.randrange(len(pool))] for _ in range(n))
                eq = PositiveEquation(coeffs)
                W = wreath_cyclic(G, n)
                prod = G.identity
                for c in coeffs:
                    prod = prod * c
                f = [prod.inv()] + [G.identity] * (n - 1)
                x = W.element(W.pack(tuple(e.payload for e in f), 1))
                assert evaluate(eq, W, W.diag_embed, x) == W.identity
                solved = levin_solve(eq, G)
                Ws = solved.group
                assert evaluate(eq, Ws, Ws.diag_embed, solved) == Ws.identity


def test_levin_shift1_solutions_meet_lemma7_set():
    # for x*x = g with g not a square in G, Levin's answer is lemma 7's root ((g, e); 1)
    non_squares = 0
    for spec in ("S3", "S4", "D7", "Z3xS3"):
        G = named_group(spec)
        for g in G.elements():
            eq = PositiveEquation((g.inv(), G.identity))
            if solve_in_group(eq, G) is not None:
                continue
            non_squares += 1
            assert levin_solve(eq, G).payload == lemma7_subgroup(G, g).root.payload, (spec, g)
    assert non_squares == 31


def test_adjoin_nth_root(s3):
    res = adjoin_nth_root(s3, s3.parse("(1 2 3)"), 2)
    assert res.wreath.order == 72
    for g in s3.elements():
        r = adjoin_nth_root(s3, g, 2)
        assert r.root * r.root == r.embed(g)

    z2 = named_group("Z2")
    res3 = adjoin_nth_root(z2, z2.parse("1"), 3)
    assert res3.wreath.order == 24
    assert res3.root * res3.root * res3.root == res3.embed(z2.parse("1"))

    shift = adjoin_nth_root(s3, s3.identity, 4)
    assert shift.root.order() == 4
    with pytest.raises(PreconditionError):
        adjoin_nth_root(s3, s3.identity, 1)
