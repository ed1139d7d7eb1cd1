import random

import pytest

from groupsmith import perms
from groupsmith.core import AtLeast, Exact, table_from_generators
from groupsmith.errors import PreconditionError
from groupsmith.search import (
    closure_order_capped,
    embed_dihedral,
    min_overgroup_search,
    square_roots_in_Sm,
)

from helpers import square_roots_by_scan, sqrt_count_by_cycle_type


# -- embeddings ------------------------------------------------------------------


def test_natural_embedding_single_block():
    emb = embed_dihedral(7, 7)
    assert emb.rotation == (1, 2, 3, 4, 5, 6, 0)
    moved = [i for i in range(7) if emb.reflection[i] != i]
    assert len(moved) == 6  # reflection fixes exactly one point
    assert closure_order_capped(emb.generators, 100) == Exact(14)


def test_natural_embedding_fixes_leftover_points():
    emb = embed_dihedral(7, 9)
    for g in emb.generators:
        assert g[7] == 7 and g[8] == 8


def test_natural_embedding_tiles_blocks():
    emb = embed_dihedral(3, 6)
    assert emb.rotation == (1, 2, 0, 4, 5, 3)
    assert emb.reflection == (0, 2, 1, 3, 5, 4)
    # the tiled copy is still just D3
    assert closure_order_capped(emb.generators, 100) == Exact(6)


def test_reflection_list(d7):
    emb = embed_dihedral(7, 7)
    assert len(emb.reflections) == 7
    assert emb.reflection in emb.reflections
    for t in emb.reflections:
        assert perms.compose(t, t) == perms.identity_perm(7)
    rot = emb.rotation
    assert emb.reflections == tuple(
        perms.compose(emb.reflection, perms.perm_power(rot, i)) for i in range(7)
    )


def test_regular_embedding_fixed_point_free():
    emb = embed_dihedral(3, 6, kind="regular")
    assert closure_order_capped(emb.generators, 100) == Exact(6)
    seen = {perms.identity_perm(6)}
    frontier = [perms.identity_perm(6)]
    while frontier:
        nxt = []
        for p in frontier:
            for g in emb.generators:
                q = perms.compose(p, g)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    for p in seen:
        if p != perms.identity_perm(6):
            assert all(p[i] != i for i in range(6))


def test_embedding_preconditions():
    with pytest.raises(PreconditionError):
        embed_dihedral(4, 8)  # not prime
    with pytest.raises(PreconditionError):
        embed_dihedral(7, 5)  # m < p
    with pytest.raises(PreconditionError):
        embed_dihedral(3, 5, kind="regular")  # m < 2p
    with pytest.raises(PreconditionError):
        embed_dihedral(3, 99)  # degree limit


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
    cases += [
        (m, embed_dihedral(p, m, kind).reflection)
        for p, m, kinds in ((3, 8, ("natural", "regular")),
                            (5, 10, ("natural", "regular")),
                            (7, 9, ("natural",)))
        for kind in kinds
    ]
    for m, g in cases:
        roots = list(square_roots_in_Sm(m, g))
        assert roots == square_roots_by_scan(m, g)
        assert len(roots) == sqrt_count_by_cycle_type(g)


# -- capped closure ----------------------------------------------------------------


def test_closure_exact_s3_in_s6():
    gens = [(1, 0, 2, 3, 4, 5), (1, 2, 0, 3, 4, 5)]
    assert closure_order_capped(gens, 1000) == Exact(6)


def test_closure_hits_cap_on_a5():
    gens = [(1, 2, 0, 3, 4), (0, 1, 2, 4, 3)]  # 3-cycle and transposition: S5-ish
    a5_gens = [(1, 2, 0, 3, 4), (0, 2, 3, 4, 1)]
    result = closure_order_capped(a5_gens, 30)
    assert result == AtLeast(30)


def test_closure_empty_gens():
    assert closure_order_capped([], 10) == Exact(1)


@pytest.mark.parametrize(
    "gens, reason",
    [
        ([(0, 0, 1)], "not a permutation"),  # repeated image: once closed to Exact(3)
        ([(5, 1, 2)], "not a permutation"),  # image out of range: once an IndexError
        ([(1, 0), (1, 2, 0)], "mix degrees"),
    ],
)
def test_closure_rejects_malformed_generators(gens, reason):
    with pytest.raises(PreconditionError, match=reason):
        closure_order_capped(gens, 100)


def test_closure_agrees_with_table_groups():
    cases = [
        [(1, 0, 2), (1, 2, 0)],
        [(1, 2, 3, 4, 5, 6, 0)],
        [(1, 0, 2, 3), (0, 1, 3, 2)],
    ]
    for gens in cases:
        exact = closure_order_capped(gens, 10_000)
        assert isinstance(exact, Exact)
        assert exact.count == table_from_generators(gens).order


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
    emb = embed_dihedral(3, 6)
    minima = []
    for g in emb.reflections:
        best = None
        for x in square_roots_in_Sm(6, g):
            size = closure_order_capped(list(emb.generators) + [x], 1000)
            assert isinstance(size, Exact)
            best = size.count if best is None else min(best, size.count)
        minima.append(best)
    assert minima == [36, 36, 36]


def test_search_parallel_matches_serial():
    for p, m, cap in ((3, 6, 1000), (7, 14, 197)):
        serial = min_overgroup_search(p, m, cap=cap, workers=1)
        parallel = min_overgroup_search(p, m, cap=cap, workers=2)
        assert serial.exact_counts == parallel.exact_counts
        assert serial.capped_count == parallel.capped_count
        assert serial.minimum == parallel.minimum
        assert serial.min_witness == parallel.min_witness


def test_search_histogram_rows_and_dict():
    rep = min_overgroup_search(3, 6, cap=100)
    rows = rep.histogram_rows()
    assert rows[0] == ("36", 2)
    assert rows[-1] == (">=100", 2)
    d = rep.to_dict()
    assert d["histogram"] == {"36": 2, ">=100": 2}
    assert d["verdict"] == "bound holds in universe"
