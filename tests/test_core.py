import random

import pytest

from groupsmith.constructions import cyclic_group, named_group, wreath_cyclic
from groupsmith.core import (
    TABLE_ORDER_LIMIT,
    AtLeast,
    Exact,
    PermGroup,
    Subgroup,
    TableGroup,
    mutual_commutator,
    normal_closure,
    normalizer_in,
    odd_abelian_normal_candidates,
    subgroup_generated,
    table_from_generators,
    verify_group_axioms,
)
from groupsmith.errors import CapExceeded, ParseError, PreconditionError
from groupsmith.search import closure_order_capped

from helpers import (
    all_subgroups,
    brute_commutator_closure,
    brute_normal_closure,
)


# -- axioms across the backends -------------------------------------------


AXIOM_SPECS = ["Z1", "Z2", "Z6", "S3", "D5", "D7", "A4", "Z2xZ3", "D7xZ2"]


@pytest.mark.parametrize("spec", AXIOM_SPECS)
def test_group_axioms_named(spec):
    rep = verify_group_axioms(named_group(spec))
    assert rep.ok, rep.detail
    assert rep.assoc_mode == "exhaustive"


def test_group_axioms_wreath_small(s3):
    W = wreath_cyclic(s3, 2)
    rep = verify_group_axioms(W)
    assert rep.ok and rep.order == 72
    assert rep.assoc_mode == "exhaustive"


def test_group_axioms_wreath_sampled(d7):
    W = wreath_cyclic(d7, 2)
    rep = verify_group_axioms(W)
    assert rep.ok and rep.order == 392
    assert rep.assoc_mode.startswith("sampled")


def test_group_axioms_quotient(z6):
    N = subgroup_generated(z6, [z6.parse("2")])
    Q, _ = z6.quotient(N)
    rep = verify_group_axioms(Q)
    assert rep.ok and rep.order == 2


# -- element interface ------------------------------------------------------


def test_involution_squares_to_identity(s3):
    t = s3.parse("(1 2)")
    assert t * t == s3.identity


def test_cyclic_generator_order(z6):
    assert z6.parse("1").order() == 6


def test_d7_reflection_order(d7):
    assert d7.parse("s*r^3").order() == 2
    # every element outside the rotation subgroup has order 2
    rot = subgroup_generated(d7, [d7.parse("r^1")])
    for e in d7.elements():
        if e not in rot:
            assert e.order() == 2


def test_power_and_inverse(d5):
    r = d5.parse("r^1")
    assert r**5 == d5.identity
    assert r**-1 == r.inv()
    assert r**0 == d5.identity
    assert (r**3) * (r**2) == d5.identity


def test_cross_group_mix_rejected(s3, z6):
    with pytest.raises(PreconditionError):
        s3.mul(s3.identity, z6.identity)
    with pytest.raises(PreconditionError):
        z6.element_order(s3.identity)


# -- table_from_generators ---------------------------------------------------


def test_table_from_generators_s3():
    G = table_from_generators([(1, 0, 2), (1, 2, 0)])
    assert G.order == 6
    assert G.backend == "dense-table"
    rep = verify_group_axioms(G)
    assert rep.ok


def test_table_from_generators_empty():
    G = table_from_generators([])
    assert G.order == 1


def test_table_from_generators_seven_cycle():
    c7 = tuple(list(range(1, 7)) + [0])
    assert table_from_generators([c7]).order == 7


def test_table_numbering_deterministic():
    G1 = table_from_generators([(1, 0, 2), (1, 2, 0)])
    G2 = table_from_generators([(1, 2, 0), (1, 0, 2)])
    names1 = [G1.render(e) for e in G1.elements()]
    names2 = [G2.render(e) for e in G2.elements()]
    assert names1 == names2
    # breadth-first from the identity, generators first
    assert names1[0] == "()"
    assert names1[1:3] == ["(1 2)", "(1 2 3)"]


def test_table_cap_carries_partial_count():
    c7 = tuple(list(range(1, 7)) + [0])
    with pytest.raises(CapExceeded) as err:
        table_from_generators([c7], cap=3)
    assert err.value.partial_count is not None
    assert err.value.partial_count >= 3


class _UnbuiltTable:
    """A table that reports its length but fails if a row is ever read."""

    def __init__(self, n):
        self.n = n

    def __len__(self):
        return self.n

    def __getitem__(self, i):
        raise AssertionError("the table was read")


def test_table_order_above_16_bits_is_a_cap():
    # entries are stored as array("H"): order 65537 would overflow them
    assert TABLE_ORDER_LIMIT == 65536
    with pytest.raises(CapExceeded) as err:
        TableGroup(_UnbuiltTable(TABLE_ORDER_LIMIT + 1), cap=70_000)
    assert err.value.partial_count == TABLE_ORDER_LIMIT + 1
    with pytest.raises(CapExceeded):
        cyclic_group(TABLE_ORDER_LIMIT + 1)


# -- subgroup machinery -------------------------------------------------------


def _random_generators(rng, m):
    """One to three permutations of degree m, each moving a random subset
    of points, so that the generated orders range from 1 to m!."""
    gens = []
    for _ in range(rng.randint(1, 3)):
        support = rng.sample(range(m), rng.randint(2, m))
        images = support[:]
        rng.shuffle(images)
        g = list(range(m))
        for src, dst in zip(support, images):
            g[src] = dst
        gens.append(tuple(g))
    return gens


def test_orders_match_sympy_schreier_sims():
    combinatorics = pytest.importorskip("sympy.combinatorics")
    rng = random.Random(20111)
    orders = set()
    for m in (5, 6, 7, 8):
        transposition, cycle = (1, 0) + tuple(range(2, m)), tuple(range(1, m)) + (0,)
        Sm = PermGroup(m, [transposition, cycle], cap=40320)
        for _ in range(4):
            gens = _random_generators(rng, m)
            want = combinatorics.PermutationGroup(
                [combinatorics.Permutation(list(g)) for g in gens]
            ).order()
            orders.add(want)
            assert PermGroup(m, gens, cap=40320).order == want
            assert subgroup_generated(Sm, [Sm.element(g) for g in gens]).order == want
            assert closure_order_capped(gens, want + 1) == Exact(want)
            assert closure_order_capped(gens, want) == AtLeast(want)
    assert len(orders) >= 6  # the seeded sets are not all one group


def test_subgroup_generated_examples(d7, s3):
    assert subgroup_generated(d7, [d7.parse("r^1")]).order == 7
    assert subgroup_generated(d7, [d7.parse("s"), d7.parse("r^1")]).order == 14
    a3 = subgroup_generated(s3, [s3.parse("(1 2 3)")])
    assert a3.order == 3
    assert {s3.render(e) for e in a3} == {"()", "(1 2 3)", "(1 3 2)"}


def test_subgroup_generated_cap_marker(d7):
    result = subgroup_generated(d7, [d7.parse("s"), d7.parse("r^1")], cap=5)
    assert isinstance(result, AtLeast)
    assert result.bound == 5
    # a closure of exactly the cap size still completes
    exact = subgroup_generated(d7, [d7.parse("r^1")], cap=7)
    assert isinstance(exact, Subgroup)


def test_subgroup_validation(s3):
    with pytest.raises(PreconditionError):
        Subgroup(s3, [s3.parse("(1 2)")])  # no identity
    with pytest.raises(PreconditionError):
        Subgroup(s3, [s3.identity, s3.parse("(1 2 3)")])  # not closed


def test_lagrange_for_generated_subgroups(s3, d5, z6, a4):
    for G in (s3, d5, z6, a4):
        for e in G.elements():
            H = subgroup_generated(G, [e])
            assert G.order % H.order == 0


def test_normal_closure_against_oracle(s3):
    t = s3.parse("(1 2)")
    c = s3.parse("(1 2 3)")
    assert normal_closure(s3, t).payload_set == brute_normal_closure(s3, t)
    assert normal_closure(s3, t).order == 6
    assert normal_closure(s3, c).payload_set == brute_normal_closure(s3, c)
    assert normal_closure(s3, c).order == 3
    assert normal_closure(s3, s3.identity).order == 1


def test_normal_closure_is_normal(s3, d5, d7, a4):
    for G in (s3, d5, d7, a4):
        for e in G.elements():
            assert G.is_normal(normal_closure(G, e))


def test_mutual_commutator_examples(s3, d7):
    whole = s3.whole()
    derived = mutual_commutator(s3, whole, whole)
    assert derived.order == 3
    assert derived.payload_set == brute_commutator_closure(
        s3, whole.payloads, whole.payloads
    )

    g = d7.parse("s")
    C = mutual_commutator(d7, normal_closure(d7, g), d7.whole())
    rotations = subgroup_generated(d7, [d7.parse("r^1")])
    assert C.payload_set == rotations.payload_set

    trivial = subgroup_generated(s3, [])
    assert mutual_commutator(s3, trivial, whole).order == 1


def test_mutual_commutator_is_normal(s3, d7):
    for G in (s3, d7):
        for e in G.elements():
            C = mutual_commutator(G, normal_closure(G, e), G.whole())
            assert G.is_normal(C)


# -- structural queries --------------------------------------------------------


def test_quotient_z6(z6):
    N = subgroup_generated(z6, [z6.parse("2")])
    Q, project = z6.quotient(N)
    assert Q.order == 2
    assert project(z6.parse("3")) != Q.identity
    assert project(z6.parse("4")) == Q.identity
    # projection is a homomorphism
    for a in z6.elements():
        for b in z6.elements():
            assert project(a * b) == project(a) * project(b)


def test_quotient_rejects_non_normal(s3):
    H = subgroup_generated(s3, [s3.parse("(1 2)")])
    with pytest.raises(PreconditionError) as err:
        s3.quotient(H)
    assert "not normal" in str(err.value)
    assert "(1 2)" in str(err.value)


def test_center(d7, z6, s3):
    assert d7.center().order == 1
    assert z6.center().order == 6
    assert s3.center().order == 1
    d4 = named_group("D4")
    assert d4.center().order == 2


def test_conjugacy_classes(s3, d7):
    sizes = sorted(len(c) for c in s3.conjugacy_classes())
    assert sizes == [1, 2, 3]
    sizes7 = sorted(len(c) for c in d7.conjugacy_classes())
    assert sizes7 == [1, 2, 2, 2, 7]
    assert sum(sizes7) == 14


def test_conjugate_subgroup_and_normalizer(s3):
    h = subgroup_generated(s3, [s3.parse("(1 2)")])
    x = s3.parse("(1 2 3)")
    hx = s3.conjugate_subgroup(h, x)
    assert hx != h
    assert hx.order == 2
    norm = normalizer_in(s3.whole(), h)
    assert norm.payload_set == h.payload_set


AMBIENT_SPECS = ("S3", "Z6", "A4", "D7", "S4", "S4xZ2", "Z48")


def test_orbit_stabilizer_for_all_subgroups():
    for spec in AMBIENT_SPECS:
        G = named_group(spec)
        for H in all_subgroups(G):
            conjugates = {
                G.conjugate_subgroup(H, x).payload_set for x in G.elements()
            }
            normalizer = normalizer_in(G.whole(), H)
            assert G.order == len(conjugates) * normalizer.order
            normal = G.is_normal(H)
            assert normal == (normalizer.order == G.order)
            assert normal == (G.normality_witness(H, G.elements()) is None)


def test_product_bound_for_all_subgroup_pairs():
    # |H| >= |H1||H2| / |H1 n H2| for subgroups of one group
    for spec in AMBIENT_SPECS:
        G = named_group(spec)
        subs = all_subgroups(G)
        for h1 in subs:
            for h2 in subs:
                inter = len(h1.payload_set & h2.payload_set)
                assert G.order * inter >= h1.order * h2.order


def test_latin_square_property(s3, d7):
    for G in (s3, d7):
        elems = list(G.elements())
        full = {e.payload for e in elems}
        for a in elems:
            assert {(a * x).payload for x in elems} == full
            assert {(x * a).payload for x in elems} == full


# -- odd abelian normal subgroups ----------------------------------------------


def test_odd_abelian_normal_candidates(s3, z6):
    assert [{s3.render(e) for e in N} for N in odd_abelian_normal_candidates(s3)] == [
        {"()", "(1 2 3)", "(1 3 2)"}
    ]
    assert [{z6.render(e) for e in N} for N in odd_abelian_normal_candidates(z6)] == [
        {"0", "2", "4"}
    ]
    assert odd_abelian_normal_candidates(named_group("Z2")) == []


def test_odd_abelian_normal_candidates_properties():
    for spec in ("S3", "Z6", "Z15", "A4", "D7", "Z3xS3", "D3xD3"):
        G = named_group(spec)
        candidates = odd_abelian_normal_candidates(G)
        for N in candidates:
            assert N.order > 1 and N.order % 2 == 1
            assert N.is_abelian()
            assert G.is_normal(N)
        # central subgroups first, each part in (size, canonical set) order
        centre = G.center().payload_set
        central = [N for N in candidates if N.payload_set <= centre]
        assert candidates[: len(central)] == central
        rest = candidates[len(central) :]
        assert central == sorted(central, key=Subgroup.key)
        assert rest == sorted(rest, key=Subgroup.key)
    # Z3xS3: the central Z3 comes before the non-central A3 of equal size,
    # although the A3 has the smaller canonical set
    G = named_group("Z3xS3")
    centre = G.center().payload_set
    shape = [(N.order, N.payload_set <= centre) for N in odd_abelian_normal_candidates(G)]
    assert shape == [(3, True), (3, False), (9, False)]


# -- rendering / parsing ---------------------------------------------------------


def test_render_parse_roundtrip_all_backends(s3, z6, d7):
    W = wreath_cyclic(s3, 2)
    P = named_group("Z2xZ3")
    for G in (s3, z6, d7, W, P):
        for e in G.elements():
            assert G.parse(G.render(e)) == e


def test_parse_errors(s3, z6):
    with pytest.raises(ParseError):
        s3.parse("(1 2 9)")
    with pytest.raises(ParseError):
        z6.parse("banana")
