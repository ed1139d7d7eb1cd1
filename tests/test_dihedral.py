import random
from dataclasses import replace

import pytest

from groupsmith import dihedral, perms
from groupsmith.constructions import lemma7_subgroup, named_group, wreath_cyclic
from groupsmith.core import Subgroup, subgroup_generated
from groupsmith.dihedral import (
    GREEN,
    RED,
    YELLOW,
    build_conjugate_graph,
    conjugation_parity,
    dihedral_shape,
    is_prime,
    lemma2_check,
    lemma3_check,
    lemma5_lemma6_checks,
    minus_one_is_square_mod_p,
    normalizer_in,
    odd_primes_below,
    theorem1_trace,
)
from groupsmith.errors import Falsification, PreconditionError

from helpers import colors_preserved_by_scan, conjugates_by_scan, parity_by_inversions


def diag_copy(W, G):
    return Subgroup(W, [W.diag_embed(a) for a in G.elements()], _trusted=True)


def lemma7_setup(p):
    G = named_group(f"D{p}")
    res = lemma7_subgroup(G, G.parse("s"))
    return G, res.wreath, res.subgroup, diag_copy(res.wreath, G), res.root


# -- residue criterion ----------------------------------------------------------


def test_is_prime():
    primes = [n for n in range(2, 60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_minus_one_square_examples():
    assert minus_one_is_square_mod_p(7) is False
    assert minus_one_is_square_mod_p(5) is True
    assert minus_one_is_square_mod_p(13) is True  # 5^2 = 25 = 12 mod 13


def test_minus_one_square_rejects_bad_input():
    for bad in (2, 9, 15, 1):
        with pytest.raises(PreconditionError):
            minus_one_is_square_mod_p(bad)


def test_minus_one_square_iff_one_mod_four():
    for p in odd_primes_below(1000):
        assert minus_one_is_square_mod_p(p) == (p % 4 == 1)


# -- dihedral recognition ----------------------------------------------------------


def test_dihedral_shape(d7):
    shape = dihedral_shape(d7.whole())
    assert shape.p == 7
    assert shape.rotations.order == 7
    assert len(shape.reflections) == 7


def test_dihedral_shape_rejects_non_dihedral(s3, z6):
    with pytest.raises(PreconditionError):
        dihedral_shape(z6.whole())  # abelian, no reflections invert rotations
    with pytest.raises(PreconditionError):
        dihedral_shape(subgroup_generated(s3, [s3.parse("(1 2 3)")]))  # odd order


def test_dihedral_shape_of_diagonal_copy(d7):
    W = wreath_cyclic(d7, 2)
    shape = dihedral_shape(diag_copy(W, d7))
    assert shape.p == 7


# -- lemma 2 ------------------------------------------------------------------------


def test_lemma2_on_lemma7_overgroup():
    G, W, H, diag, root = lemma7_setup(7)
    verdict = lemma2_check(dihedral_shape(diag), root)
    assert verdict.universe == H
    assert verdict.holds
    assert verdict.normal is False
    assert verdict.intersection_order == 2
    assert verdict.intersection_is_root_pair


def test_lemma2_over_d3():
    G, W, H, diag, root = lemma7_setup(3)
    verdict = lemma2_check(dihedral_shape(diag), root)
    assert verdict.holds and not verdict.normal


def test_lemma2_preconditions():
    G, W, H, diag, root = lemma7_setup(3)
    r = G.parse("r^1")
    with pytest.raises(PreconditionError):
        lemma2_check(dihedral_shape(diag), W.diag_embed(r))  # square is a rotation


# -- lemma 3 ------------------------------------------------------------------------


def test_lemma3_in_product(d7):
    P = named_group("D7xZ2")
    emb = subgroup_generated(P, [P.parse("(r^1|0)"), P.parse("(s*r^0|0)")])
    assert emb.order == 14
    assert lemma3_check(P, dihedral_shape(emb)) is True


def test_lemma3_self(d7):
    assert lemma3_check(d7, dihedral_shape(d7.whole())) is True


def test_lemma3_refuses_one_mod_four(d5):
    with pytest.raises(PreconditionError):
        lemma3_check(d5, dihedral_shape(d5.whole()))


def test_lemma3_requires_normal():
    G, W, H, diag, root = lemma7_setup(3)
    with pytest.raises(PreconditionError):
        lemma3_check(H, dihedral_shape(diag))  # diag copy is not normal there


# -- the conjugate graph --------------------------------------------------------------


def test_graph_single_vertex(d7):
    graph = build_conjugate_graph(d7, dihedral_shape(d7.whole()))
    assert len(graph.vertices) == 1
    assert graph.colors == {}
    res = lemma5_lemma6_checks(graph)
    assert res.u == 1 and res.v == 1 and res.green_degree == 0


def test_graph_normal_in_product():
    P = named_group("D7xZ2")
    emb = subgroup_generated(P, [P.parse("(r^1|0)"), P.parse("(s*r^0|0)")])
    graph = build_conjugate_graph(P, dihedral_shape(emb))
    assert len(graph.vertices) == 1


def test_graph_on_lemma7_overgroup():
    G, W, H, diag, root = lemma7_setup(7)
    graph = build_conjugate_graph(H, dihedral_shape(diag))
    K = len(graph.vertices)
    norm = normalizer_in(H, diag)
    assert K == H.order // norm.order
    census = graph.census()
    assert census[RED] == 0
    assert census[GREEN] + census[YELLOW] == K * (K - 1) // 2
    # intersections all land in {1, 2, p}
    for i in range(K):
        for j in range(i + 1, K):
            size = len(graph.vertices[i].payload_set & graph.vertices[j].payload_set)
            assert size in (1, 2, 7)


def test_graph_transitive_orbit():
    G, W, H, diag, root = lemma7_setup(3)
    graph = build_conjugate_graph(H, dihedral_shape(diag))
    # conjugation reaches every vertex from the base copy
    reached = {graph.vertex_perm(y)[graph.base_index] for y in H.elements}
    assert reached == set(range(len(graph.vertices)))


def test_lemma56_on_lemma7_overgroup():
    for p in (3, 7):
        G, W, H, diag, root = lemma7_setup(p)
        graph = build_conjugate_graph(H, dihedral_shape(diag))
        res = lemma5_lemma6_checks(graph)
        assert not res.red_edges_present
        assert res.green_degree == p
        assert res.v == 2 and res.u == p
        assert "p-equals-v1-times-u" in res.checks_run


def test_lemma56_detects_recolored_graph():
    G, W, H, diag, root = lemma7_setup(3)
    graph = build_conjugate_graph(H, dihedral_shape(diag))
    yellow_edge = next(k for k, c in graph.colors.items() if c == YELLOW)
    broken = dict(graph.colors)
    broken[yellow_edge] = GREEN
    bad = replace(graph, colors=broken)
    with pytest.raises(Falsification):
        lemma5_lemma6_checks(bad)


def test_lemma56_red_edge_tag():
    G, W, H, diag, root = lemma7_setup(3)
    graph = build_conjugate_graph(H, dihedral_shape(diag))
    edge = next(iter(graph.colors))
    broken = dict(graph.colors)
    broken[edge] = RED
    bad = replace(graph, colors=broken)
    res = lemma5_lemma6_checks(bad)
    assert res.red_edges_present
    assert res.u is None


# -- parity -------------------------------------------------------------------------


def test_parity_identity_fixes_everything():
    G, W, H, diag, root = lemma7_setup(3)
    graph = build_conjugate_graph(H, dihedral_shape(diag))
    rec = conjugation_parity(graph, W.identity)
    assert rec.parity == 0
    assert rec.fixed_points == len(graph.vertices)
    assert rec.vertex_perm == tuple(range(len(graph.vertices)))


def test_parity_outside_ambient_rejected(d7):
    G, W, H, diag, root = lemma7_setup(3)
    graph = build_conjugate_graph(H, dihedral_shape(diag))
    stray = W.element(((G.parse("s").payload, G.identity.payload), 0))
    assert stray.payload not in H.payload_set
    with pytest.raises(PreconditionError):
        conjugation_parity(graph, stray)


def test_parity_matches_inversion_oracle_on_vertex_perms():
    G, W, H, diag, root = lemma7_setup(7)
    graph = build_conjugate_graph(H, dihedral_shape(diag))
    rng = random.Random(2)
    members = list(H.elements)
    for _ in range(25):
        y = members[rng.randrange(len(members))]
        rec = conjugation_parity(graph, y)
        assert rec.parity == parity_by_inversions(rec.vertex_perm)


def assert_generator_checks_match_scans(universe, H, x):
    shape = dihedral_shape(H)
    gens = (shape.rotation, x)
    graph = build_conjugate_graph(universe, shape, gens)
    scanned = sorted(conjugates_by_scan(universe, H), key=lambda s: s.key())
    assert list(graph.vertices) == scanned
    assert graph.colors == build_conjugate_graph(universe, shape).colors
    assert graph.colors_preserved_by(gens) is colors_preserved_by_scan(graph) is True


def test_generator_checks_match_scan_oracles():
    for p in (3, 7):
        G, W, H, diag, root = lemma7_setup(p)
        assert_generator_checks_match_scans(H, diag, root)


def test_vertex_perm_is_a_homomorphism():
    # conjugation acts on the right: v^(ab) = (v^a)^b
    G, W, H, diag, root = lemma7_setup(7)
    graph = build_conjugate_graph(H, dihedral_shape(diag))
    rng = random.Random(5)
    members = list(H.elements)
    for _ in range(40):
        a = members[rng.randrange(len(members))]
        b = members[rng.randrange(len(members))]
        assert graph.vertex_perm(a * b) == perms.compose(
            graph.vertex_perm(b), graph.vertex_perm(a)
        )


def test_vertex_perm_is_color_automorphism():
    G, W, H, diag, root = lemma7_setup(3)
    graph = build_conjugate_graph(H, dihedral_shape(diag))
    n = len(graph.vertices)
    for y in H.elements:
        pi = graph.vertex_perm(y)
        for i in range(n):
            for j in range(i + 1, n):
                assert graph.color(pi[i], pi[j]) == graph.color(i, j)


# -- the full trace -------------------------------------------------------------------


def test_trace_d3():
    G, W, H, diag, root = lemma7_setup(3)
    report = theorem1_trace(H, diag, root)
    assert report.bound_line() == "36 >= 36"
    assert report.case == "v2-up"
    assert report.conjugate_count == 6
    assert report.p == 3
    assert all(a["status"] == "pass" for a in report.assertions)
    names = {a["name"] for a in report.assertions}
    assert {"color-census-symmetric", "orbit-stabilizer-equality",
            "conjugation-preserves-colors", "final-bound"} <= names


def test_trace_d7():
    G, W, H, diag, root = lemma7_setup(7)
    report = theorem1_trace(H, diag, root)
    assert report.bound_lhs == 196
    assert report.bound_rhs == 196
    assert report.bound_ok
    assert report.case == "v2-up"
    assert report.u == 7 and report.v == 2
    assert all(a["status"] == "pass" for a in report.assertions)


def test_trace_d19():
    G, W, H, diag, root = lemma7_setup(19)
    report = theorem1_trace(H, diag, root)
    assert report.case == "v2-up"
    assert report.bound_line() == "1444 >= 1444"
    assert all(a["status"] == "pass" for a in report.assertions)


@pytest.mark.parametrize("p", [3, 7])
def test_trace_catches_recolored_edge(monkeypatch, p):
    G, W, H, diag, root = lemma7_setup(p)
    real = dihedral.build_conjugate_graph
    built = []

    def recolored(*args):
        graph = real(*args)
        edge = next(k for k, c in graph.colors.items() if c == YELLOW)
        graph.colors[edge] = GREEN
        built.append(graph)
        return graph

    monkeypatch.setattr(dihedral, "build_conjugate_graph", recolored)
    with pytest.raises(Falsification, match="conjugation-preserves-colors"):
        theorem1_trace(H, diag, root)
    assert colors_preserved_by_scan(built[0]) is False


@pytest.mark.parametrize("p", [3, 7])
def test_trace_verifies_the_copy_and_closes_the_universe_once(monkeypatch, p):
    G, W, H, diag, root = lemma7_setup(p)
    calls = {"dihedral_shape": 0, "subgroup_generated": 0}
    for name in calls:

        def counted(*args, _real=getattr(dihedral, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(dihedral, name, counted)
    theorem1_trace(H, diag, root)
    assert calls == {"dihedral_shape": 1, "subgroup_generated": 1}


def test_trace_restricts_to_generated_subgroup():
    G, W, H, diag, root = lemma7_setup(3)
    report = theorem1_trace(W, diag, root)  # whole wreath of order 72
    assert report.closure_note is not None
    assert report.ambient_order == 36
    assert report.bound_ok


def test_trace_preconditions(d5):
    G, W, H, diag, root = lemma7_setup(3)
    with pytest.raises(PreconditionError):
        theorem1_trace(H, diag, W.diag_embed(G.parse("r^1")))
    res5 = lemma7_subgroup(d5, d5.parse("s"))
    diag5 = diag_copy(res5.wreath, d5)
    with pytest.raises(PreconditionError):
        theorem1_trace(res5.subgroup, diag5, res5.root)  # p = 5 not covered


def test_trace_every_search_overgroup():
    # every <D_3, x> the ambient search produces must replay cleanly
    from groupsmith.core import PermGroup
    from groupsmith.search import embed_dihedral, square_roots_in_Sm

    emb = embed_dihedral(3, 6)
    s6 = PermGroup(6, [(1, 0, 2, 3, 4, 5), (1, 2, 3, 4, 5, 0)], name="S6")
    copy = subgroup_generated(s6, [s6.element(emb.rotation), s6.element(emb.reflection)])
    assert copy.order == 6
    for x_perm in square_roots_in_Sm(6, emb.reflection):
        x = s6.element(x_perm)
        report = theorem1_trace(s6, copy, x)
        assert report.bound_ok
        assert report.ambient_order in (36, 120)
        universe = subgroup_generated(s6, list(copy.elements) + [x])
        assert_generator_checks_match_scans(universe, copy, x)


def test_trace_report_serializes():
    G, W, H, diag, root = lemma7_setup(3)
    report = theorem1_trace(H, diag, root)
    d = report.to_dict()
    assert d["bound"] == "36 >= 36"
    assert d["case"] == "v2-up"
    assert isinstance(d["parities"], list) and len(d["parities"]) == 2
