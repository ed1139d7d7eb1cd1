import random

import pytest
from hypothesis import given, settings, strategies as st

from groupsmith import perms, search
from groupsmith.core import perm_closure
from groupsmith.errors import Falsification, PreconditionError
from groupsmith.search import (
    closure_order_capped,
    embed_dihedral,
    min_overgroup_search,
    square_roots_in_Sm,
)

from helpers import (
    min_overgroup_search_by_scan,
    perm_table,
    square_roots_by_scan,
    sqrt_count_by_cycle_type,
)


# -- embeddings ------------------------------------------------------------------


def test_natural_embedding_single_block():
    r, s = embed_dihedral(7, 7)
    assert r == (1, 2, 3, 4, 5, 6, 0)
    moved = [i for i in range(7) if s[i] != i]
    assert len(moved) == 6  # reflection fixes exactly one point
    assert closure_order_capped([r, s], 100) == (14, True)


def test_natural_embedding_fixes_leftover_points():
    for g in embed_dihedral(7, 9):
        assert g[7] == 7 and g[8] == 8


def test_natural_embedding_tiles_blocks():
    r, s = embed_dihedral(3, 6)
    assert r == (1, 2, 0, 4, 5, 3)
    assert s == (0, 2, 1, 3, 5, 4)
    # the tiled copy is still just D3
    assert closure_order_capped([r, s], 100) == (6, True)


def _powers(r, p):
    """r^0, ..., r^(p-1), each one composition past the one before."""
    out = [perms.identity_perm(len(r))]
    for _ in range(p - 1):
        out.append(perms.compose(r, out[-1]))
    return out


def _reflections(p, m):
    """The p reflections s*r^i of the embedded D_p, i = 0..p-1."""
    r, s = embed_dihedral(p, m)
    return [perms.compose(s, q) for q in _powers(r, p)]


def test_reflection_list(d7):
    r, s = embed_dihedral(7, 7)
    reflections = _reflections(7, 7)
    assert len(set(reflections)) == 7
    assert reflections[0] == s
    for t in reflections:
        assert perms.compose(t, t) == perms.identity_perm(7)
    # s*r^i = r^-i*s: listing them from the other side gives the same list
    powers = _powers(r, 7)
    assert reflections == [perms.compose(powers[-i], s) for i in range(7)]


def test_embedding_preconditions():
    with pytest.raises(PreconditionError):
        embed_dihedral(4, 8)  # not prime
    with pytest.raises(PreconditionError):
        embed_dihedral(7, 5)  # m < p
    with pytest.raises(PreconditionError):
        embed_dihedral(3, 99)  # degree limit
    with pytest.raises(PreconditionError, match="exceeds the limit 22"):
        embed_dihedral(3, 23)
    with pytest.raises(PreconditionError, match="odd prime"):
        embed_dihedral(2, 4)  # the reflection would fix every tiled point


# -- square roots ------------------------------------------------------------------


def test_square_roots_three_cycle():
    roots = list(square_roots_in_Sm(3, (1, 2, 0)))
    assert roots == [(2, 0, 1)]


def test_square_roots_identity_degree_two():
    roots = list(square_roots_in_Sm(2, (0, 1)))
    assert roots == [(0, 1), (1, 0)]


def test_square_roots_transposition_empty():
    g = (1, 0, 2, 3)
    assert list(square_roots_in_Sm(4, g)) == []
    assert sqrt_count_by_cycle_type(g) == 0


def test_square_roots_squared_and_counted():
    for m in range(1, 7):
        for g in perms.all_perms_lex(m):
            roots = list(square_roots_in_Sm(m, g))
            for x in roots:
                assert perms.compose(x, x) == g
            assert roots == square_roots_by_scan(m, g)
            assert len(roots) == sqrt_count_by_cycle_type(g)


def test_square_roots_count_sampled_larger_degrees():
    rng = random.Random(9)
    cases = [
        (m, tuple(rng.sample(range(m), m))) for m in (7, 8, 9) for _ in range(12)
    ]
    cases += [(m, embed_dihedral(p, m)[1]) for p, m in ((3, 8), (5, 10), (7, 9))]
    # p transpositions on 2p of m points, an odd count: no square root
    cases += [(8, (3, 4, 5, 0, 1, 2, 6, 7)), (10, (5, 6, 7, 8, 9, 0, 1, 2, 3, 4))]
    for m, g in cases:
        roots = list(square_roots_in_Sm(m, g))
        assert roots == square_roots_by_scan(m, g)
        assert len(roots) == sqrt_count_by_cycle_type(g)


# -- capped closure ----------------------------------------------------------------


def test_closure_exact_s3_in_s6():
    gens = [(1, 0, 2, 3, 4, 5), (1, 2, 0, 3, 4, 5)]
    assert closure_order_capped(gens, 1000) == (6, True)


def test_closure_hits_cap_on_a5():
    gens = [(1, 2, 0, 3, 4), (0, 1, 2, 4, 3)]  # 3-cycle and transposition: S5-ish
    a5_gens = [(1, 2, 0, 3, 4), (0, 2, 3, 4, 1)]
    result = closure_order_capped(a5_gens, 30)
    assert result == (30, False)


def test_closure_empty_gens():
    assert closure_order_capped([], 10) == (1, True)


@pytest.mark.parametrize(
    "gens, reason",
    [
        ([(0, 0, 1)], "not a permutation"),  # repeated image: once closed to order 3
        ([(5, 1, 2)], "not a permutation"),  # image out of range: once an IndexError
        ([(1, 0), (1, 2, 0)], "mix degrees"),
    ],
)
def test_closure_rejects_malformed_generators(gens, reason):
    with pytest.raises(PreconditionError, match=reason):
        closure_order_capped(gens, 100)


def generator_sets(max_degree: int = 8):
    """One to three permutations of one degree up to max_degree, each
    permuting a drawn subset of the points, so that orders range widely."""
    def generator(m):
        return st.lists(st.integers(0, m - 1), min_size=min(2, m), unique=True).flatmap(
            lambda support: st.permutations(support).map(
                lambda images: tuple(dict(zip(support, images)).get(i, i) for i in range(m))
            )
        )

    return st.integers(1, max_degree).flatmap(lambda m: st.lists(generator(m), min_size=1, max_size=3))


@settings(max_examples=150, deadline=None)
@given(generator_sets(), st.integers(0, 4))
def test_chain_matches_breadth_first_closure(gens, pick):
    order = len(perm_closure(gens, 50_000)[1])
    cap = (1, 2, order, order + 1, 1000)[pick]
    _, ordered, complete = perm_closure(gens, cap)
    assert closure_order_capped(gens, cap) == (len(ordered), complete)


def test_closure_agrees_with_table_groups():
    cases = [
        [(1, 0, 2), (1, 2, 0)],
        [(1, 2, 3, 4, 5, 6, 0)],
        [(1, 0, 2, 3), (0, 1, 3, 2)],
    ]
    for gens in cases:
        assert closure_order_capped(gens, 10_000) == (perm_table(gens).order, True)


# -- the bound search --------------------------------------------------------------


def test_search_p3_m6_minimum_36():
    rep = min_overgroup_search(3, 6, cap=1000)
    assert rep.root_count == 4
    assert rep.root_count == sqrt_count_by_cycle_type(rep.reflection)
    assert rep.minimum == 36
    assert all(order >= 36 for order in rep.exact_counts)
    assert rep.capped_count == 0
    assert rep.verdict == "bound holds in universe"
    assert rep.min_witness is not None
    x = rep.min_witness
    assert perms.compose(x, x) == rep.reflection


def test_search_p7_vacuous():
    for m in (7, 9):
        rep = min_overgroup_search(7, m, cap=196)
        assert rep.root_count == 0
        assert rep.verdict == "vacuous"
        assert rep.minimum is None


def test_search_p7_m14_checks_bound():
    rep = min_overgroup_search(7, 14, cap=197)
    assert rep.root_count == 240 == sqrt_count_by_cycle_type(rep.reflection)
    assert rep.exact_counts == {196: 6}
    assert rep.capped_count == 234
    assert rep.minimum == 196
    assert rep.verdict == "bound holds in universe"


def test_search_p5_reports_without_verdict():
    rep = min_overgroup_search(5, 6, cap=1000)
    assert rep.verdict.startswith("not-applicable")
    assert rep.root_count == sqrt_count_by_cycle_type(rep.reflection)
    # below-bound observations are allowed here: the bound machinery
    # does not cover p = 1 mod 4, and the search just reports
    assert rep.minimum is not None and rep.minimum < rep.bound


def test_minimum_identical_across_reflections():
    # all reflections are conjugate, so the minimum cannot depend on which
    # one the search fixes; spot check at p = 3
    minima = []
    for g in _reflections(3, 6):
        best = None
        for x in square_roots_in_Sm(6, g):
            size, complete = closure_order_capped([*embed_dihedral(3, 6), x], 1000)
            assert complete
            best = size if best is None else min(best, size)
        minima.append(best)
    assert minima == [36, 36, 36]


ORACLE_CASES = [
    (3, 6, 1000), (3, 8, 1000), (5, 10, 1000), (7, 9, 196), (7, 14, 197), (3, 12, 1000),
    (5, 15, 200),
]


# "natural" names the tiled p-gon embedding in each case's id
@pytest.mark.parametrize(
    "p, m, cap", ORACLE_CASES, ids=[f"{p}-{m}-natural-{cap}" for p, m, cap in ORACLE_CASES]
)
def test_search_matches_unreduced_oracle(p, m, cap):
    rep = min_overgroup_search(p, m, cap)
    assert rep.to_dict() == min_overgroup_search_by_scan(p, m, cap).to_dict()


@settings(max_examples=12, deadline=None)
@given(
    pm=st.sampled_from([3, 5, 7]).flatmap(
        lambda p: st.tuples(st.just(p), st.integers(min_value=p, max_value=12))
    ),
    cap=st.sampled_from([1, 40, 200, 1000]),
)
def test_search_matches_unreduced_oracle_property(pm, cap):
    p, m = pm
    rep = min_overgroup_search(p, m, cap=cap)
    assert rep.to_dict() == min_overgroup_search_by_scan(p, m, cap=cap).to_dict()


def test_search_refuses_a_symmetry_that_moves_the_reflection(monkeypatch):
    # (0 1) does not commute with the reflection (1 2)(4 5) of D_3 in S_8
    monkeypatch.setattr(search, "_symmetries", lambda p, m: [(1, 0, 2, 3, 4, 5, 6, 7)])
    with pytest.raises(Falsification, match="does not commute"):
        min_overgroup_search(3, 8)


def test_search_refuses_an_orbit_outside_the_roots(monkeypatch):
    # with one root missing from the list, its orbit leaves the roots
    roots = list(square_roots_in_Sm(8, embed_dihedral(3, 8)[1]))
    monkeypatch.setattr(search, "square_roots_in_Sm", lambda m, g: iter(roots[:-1]))
    with pytest.raises(Falsification, match="leaves the uncounted roots"):
        min_overgroup_search(3, 8)


def test_search_p11_m22_is_tight():
    rep = min_overgroup_search(11, 22, cap=485)
    assert rep.root_count == 60480 == sqrt_count_by_cycle_type(rep.reflection)
    assert rep.to_dict()["histogram"] == {"484": 10, ">=485": 60470}
    assert rep.minimum == 484 == 4 * 11 * 11
    assert perms.render_cycles(rep.min_witness) == (
        "(0 11)(1 12 10 21)(2 13 9 20)(3 14 8 19)(4 15 7 18)(5 16 6 17)"
    )
    assert rep.verdict == "bound holds in universe"


def test_search_histogram_rows_and_dict():
    rep = min_overgroup_search(3, 6, cap=100)
    rows = rep.histogram_rows()
    assert rows[0] == ("36", 2)
    assert rows[-1] == (">=100", 2)
    d = rep.to_dict()
    assert d["histogram"] == {"36": 2, ">=100": 2}
    assert d["verdict"] == "bound holds in universe"
