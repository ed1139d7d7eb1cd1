import gc
import weakref

import pytest

from groupsmith import constructions
from groupsmith.constructions import (
    lemma7_subgroup,
    lemma8_construct,
    levin_root,
    named_group,
    prop1_embedding,
    wreath_cyclic,
)
from groupsmith.core import (
    TABLE_ENTRY_BUDGET,
    ListNamer,
    PermGroup,
    TableGroup,
    mutual_commutator,
    normal_closure,
    perm_closure,
    subgroup_generated,
    verify_group_axioms,
)
from groupsmith.errors import CapExceeded, Falsification, ParseError, PreconditionError


# -- named groups --------------------------------------------------------------


def test_d7_shape(d7):
    assert d7.order == 14
    rot = subgroup_generated(d7, [d7.parse("r^1")])
    outside = [e for e in d7.elements() if e not in rot]
    assert len(outside) == 7
    assert all(e.order() == 2 for e in outside)


def test_permutation_closure_stops_within_the_table_entry_budget():
    # D5003's generators close to 10,006 elements, past the closure cap of
    # 10,000; the walk stops first, at the one past the 3,353 permutations
    # of degree 5003 that fit 2^24
    r = tuple((i + 1) % 5003 for i in range(5003))
    s = tuple((-i) % 5003 for i in range(5003))
    with pytest.raises(CapExceeded, match="closure of D5003 is too large") as info:
        PermGroup(5003, [r, s], name="D5003")
    count = info.value.partial_count
    assert (count - 1) * 5003 <= TABLE_ENTRY_BUDGET < count * 5003


@pytest.mark.parametrize("spec, order", [("D7", 14), ("S7", 5040), ("A7", 2520), ("A3", 3)])
def test_named_families_refuse_by_their_closed_form_order(monkeypatch, spec, order):
    # a cap equal to the order builds the group; one below it refuses the
    # order before any generator is built, where the walk would stop
    monkeypatch.setenv("GROUPSMITH_CAP", str(order))
    assert named_group(spec).order == order
    monkeypatch.setenv("GROUPSMITH_CAP", str(order - 1))
    monkeypatch.setattr(constructions, "PermGroup", None)
    with pytest.raises(CapExceeded, match=f"{spec} has order at least {order}, above {order - 1}") as info:
        named_group(spec)
    assert info.value.partial_count == order


def test_trivial_named_groups_pass_a_cap_of_1(monkeypatch):
    # the empty products: A1, A2 and S1 have order 1
    monkeypatch.setenv("GROUPSMITH_CAP", "1")
    assert named_group("A1").order == named_group("A2").order == named_group("S1").order == 1


def test_d3_is_s3_up_to_relabeling(s3):
    d3 = named_group("D3")
    assert d3.order == s3.order == 6
    assert not d3.is_abelian() and not s3.is_abelian()
    orders = lambda G: sorted(e.order() for e in G.elements())
    assert orders(d3) == orders(s3)


def test_z6_cyclic(z6):
    assert z6.order == 6
    assert z6.parse("1").order() == 6
    assert z6.is_abelian()


def test_named_group_products():
    P = named_group("Z2xZ3")
    assert P.order == 6
    assert P.is_abelian()
    # Z2 x Z3 is cyclic of order 6
    assert max(e.order() for e in P.elements()) == 6
    Q = named_group("S3xZ2")
    assert Q.order == 12 and not Q.is_abelian()


def test_named_group_errors():
    for bad in ("Q8", "D2", "", "Z", "S3x", "M11"):
        with pytest.raises(ParseError):
            named_group(bad)
    with pytest.raises(CapExceeded):
        named_group("S8")  # 40320 exceeds the default cap


# -- wreath products -------------------------------------------------------------


def test_wreath_orders(s3):
    assert wreath_cyclic(s3, 2).order == 72
    z2 = named_group("Z2")
    assert wreath_cyclic(z2, 3).order == 24
    with pytest.raises(PreconditionError):
        wreath_cyclic(s3, 1)
    # 4 * 120^4 is past the wreath order cap: the product builds, but
    # listing its elements is refused
    W = wreath_cyclic(named_group("S5"), 4)
    assert W.order == 829_440_000
    for listing in (lambda: list(W.elements()), W.whole, lambda: verify_group_axioms(W)):
        with pytest.raises(CapExceeded, match="wreath order 829440000 exceeds cap 10000000"):
            listing()
    # built where arity^2 * |base| fits the same cap: 1290^2 * 6 = 9,984,600
    assert wreath_cyclic(s3, 1290).arity == 1290
    with pytest.raises(CapExceeded, match=r"S3 wr Z1291: arity\^2 \* \|base\| exceeds cap 10000000"):
        wreath_cyclic(s3, 1291)


def test_wreath_needs_a_base_that_permutes_points(z6):
    quotient = lemma8_construct(z6, subgroup_generated(z6, [z6.parse("2")])).quotient
    table = TableGroup(range(2), lambda a, b: a ^ b, ListNamer("01"), name="Z2-table")
    for base in (quotient, table):
        with pytest.raises(PreconditionError, match="needs a base that permutes points"):
            wreath_cyclic(base, 2)


def test_a_wreath_product_is_a_wreath_base():
    inner = wreath_cyclic(named_group("Z2"), 2)  # D4 on 4 points
    W = wreath_cyclic(inner, 2)
    assert (W.degree, W.order) == (8, 128)
    assert verify_group_axioms(W).ok
    g = inner.parse("[1,0;1]")
    assert levin_root(W, g) ** 2 == W.diag_embed(g)


def test_wreath_enumeration_matches_order(z6):
    W = wreath_cyclic(named_group("Z2"), 3)
    elems = list(W.elements())
    assert len(elems) == 24 == W.order
    assert len(set(elems)) == 24


def test_diag_embed_is_injective_homomorphism():
    for spec in ("Z4", "Z6", "S3", "D5", "S4"):
        G = named_group(spec)
        W = wreath_cyclic(G, 2)
        images = {}
        for a in G.elements():
            images[a.payload] = W.diag_embed(a)
        assert len(set(e.payload for e in images.values())) == G.order
        for a in G.elements():
            for b in G.elements():
                assert W.diag_embed(a * b) == images[a.payload] * images[b.payload]


def test_levin_root_squares_exhaustively():
    for spec in ("Z4", "Z6", "S3", "D5", "S4"):
        G = named_group(spec)
        W = wreath_cyclic(G, 2)
        for g in G.elements():
            x = levin_root(W, g)
            assert x * x == W.diag_embed(g)


def test_levin_root_identity_is_pure_shift(s3):
    for n in (2, 3, 4):
        W = wreath_cyclic(s3, n)
        x = levin_root(W, s3.identity)
        assert x.payload == W.pack((s3.identity.payload,) * n, 1)
        assert W.unpack(x.payload) == ((s3.identity.payload,) * n, 1)
        assert x.order() == n


def test_levin_root_cube_in_d5(d5):
    W = wreath_cyclic(d5, 3)
    r = d5.parse("r^1")
    x = levin_root(W, r)
    assert x * x * x == W.diag_embed(r)


def test_wreath_render_parse(s3):
    W = wreath_cyclic(s3, 2)
    x = levin_root(W, s3.parse("(1 2)"))
    s = W.render(x)
    assert s == "[(1 2),();1]"
    assert W.parse(s) == x


def test_wreath_cyclic_shares_the_live_product(monkeypatch, s3):
    built = []

    class Counted(constructions.WreathGroup):
        def __init__(self, base, arity):
            built.append(arity)
            super().__init__(base, arity)

    monkeypatch.setattr(constructions, "WreathGroup", Counted)
    was_enabled = gc.isenabled()
    gc.disable()  # the product must be freed by reference counting alone
    try:
        W = wreath_cyclic(s3, 2)
        assert wreath_cyclic(s3, 2) is W
        W3 = wreath_cyclic(s3, 3)
        assert W3 is not W and (W.arity, W3.arity) == (2, 3)
        assert built == [2, 3]
        dead = weakref.ref(W)
        del W
        assert dead() is None
        assert wreath_cyclic(s3, 2).arity == 2
        assert built == [2, 3, 2]
        assert wreath_cyclic(s3, 3) is W3
    finally:
        if was_enabled:
            gc.enable()


def test_wreath_parse_remembers_no_failure(s3):
    W = wreath_cyclic(s3, 2)
    assert W.parse("[(1 2),();1]") is not None
    for _ in range(2):
        for bad in ("[(1 2);0]", "[(1 4),();0]", "[(),();2]", "(1 2)"):
            with pytest.raises(ParseError):
                W.parse(bad)
    assert list(W._read) == ["[(1 2),();1]"]


# -- the closed-form subgroup -----------------------------------------------------


def test_lemma7_s3_transposition(s3):
    res = lemma7_subgroup(s3, s3.parse("(1 2)"))
    assert res.order == 36
    assert res.commutator_part.order == 3
    # contains the diagonal copy and the root
    for a in s3.elements():
        assert res.wreath.diag_embed(a) in res.subgroup
    assert res.root in res.subgroup


def test_lemma7_abelian_doubles(z6, z4):
    for G in (z6, z4):
        for g in G.elements():
            res = lemma7_subgroup(G, g)
            assert res.commutator_part.order == 1
            assert res.order == 2 * G.order


def test_lemma7_d7_reflection_squares_group_order(d7):
    res = lemma7_subgroup(d7, d7.parse("s"))
    assert res.order == 196 == d7.order**2


def test_lemma7_order_formula_everywhere(s3, d5):
    for G in (s3, d5):
        for g in G.elements():
            res = lemma7_subgroup(G, g)
            assert res.order == 2 * G.order * res.commutator_part.order


def _bare_s3():
    """S3 with every element but the identity as a generator."""
    _, s3_perms, _ = perm_closure([(1, 0, 2), (1, 2, 0)], 7)
    bare = PermGroup(3, s3_perms[1:], name="S3-bare")
    assert bare.generators == tuple(bare.elements())[1:]
    return bare


def _z6_quotient(z6):
    quot = lemma8_construct(z6, subgroup_generated(z6, [z6.parse("2")])).quotient
    assert quot.generators
    return quot


def test_lemma7_matches_independent_closure(s3):
    # S3 lists generators; a bare S3 lists every element but the identity;
    # S4 (L up to order 576) and Z3xS3 (a product) by class representative.
    cases = [(s3, s3.parse("(1 2 3)"))]
    bare = _bare_s3()
    cases += [(bare, g) for g in bare.elements()]
    for spec in ("S4", "Z3xS3"):
        G = named_group(spec)
        cases += [(G, cls[0]) for cls in G.conjugacy_classes()]
    for G, g in cases:
        res = lemma7_subgroup(G, g)
        assert "subgroup" not in res.__dict__
        regenerated = subgroup_generated(
            res.wreath,
            [res.wreath.diag_embed(a) for a in G.elements()] + [res.root],
        )
        assert regenerated.payload_set == res.subgroup.payload_set
        assert res.subgroup.order == res.order


def test_commutator_part_matches_all_pairs_oracle(z6):
    groups = [named_group(spec) for spec in ("S3", "S4", "D7", "A4", "A5", "Z3xS3", "S3xZ3", "Z12")]
    groups += [_bare_s3(), _z6_quotient(z6)]
    for G in groups:
        for g in G.elements():
            oracle = mutual_commutator(G, normal_closure(G, [g]), G.whole())
            assert constructions._commutator_part(G, g) == oracle, (G.name, G.render(g))


def test_commutator_part_walks_its_normal_closure_once(monkeypatch):
    # one walk of C makes |C| * (|S| + 2 * #gens) products for the
    # |S| = #gens commutators, which take 3 products each
    G = named_group("A6")
    gens = len(G._generator_payloads())
    count, mul = [0], G._mul

    def counted(p, q):
        count[0] += 1
        return mul(p, q)

    monkeypatch.setattr(G, "_mul", counted)
    C = constructions._commutator_part(G, G.parse("(1 2 3)"))
    assert C.order == 360
    assert count[0] <= C.order * (gens + 2 * gens) + 3 * gens == 4332


def test_lemma7_subgroup_of_a7_is_refused_before_it_is_listed():
    G = named_group("A7")
    res = lemma7_subgroup(G, G.parse("(1 2 3)"))
    assert res.order == 12_700_800
    with pytest.raises(CapExceeded, match="lemma 7 subgroup order 12700800 exceeds cap 10000000"):
        res.subgroup


def test_lemma7_subgroup_past_the_table_entry_budget_is_refused():
    # 4 * 131^2 = 68,644 elements, within the wreath order cap, but each
    # flat payload holds 262 entries
    G = named_group("D131")
    res = lemma7_subgroup(G, G.parse("s*r^0"))
    assert res.order == 68_644
    with pytest.raises(CapExceeded, match="above the table entry budget 16777216"):
        res.subgroup


def test_lemma7_walk_refuses_a_root_move_without_the_inverse(monkeypatch):
    # g of order 3 in Z3: the root sends (c, k) to (g*c^-1, k+1); with
    # g*c instead the walk reaches all 6 labels, (g^2, 0) among them,
    # outside C = {e}
    G = named_group("Z3")
    g = G.parse("1")
    honest = constructions._lemma7_moves

    def root_without_inverse(G, g):
        moves = honest(G, g)[:-1]
        return moves + [lambda c, k: (G._mul(g.payload, c), 1 - k)]

    monkeypatch.setattr(constructions, "_lemma7_moves", root_without_inverse)
    with pytest.raises(Falsification, match="outside the closed-form subgroup"):
        lemma7_subgroup(G, g)


def test_lemma7_walk_refuses_a_walk_without_the_diagonal(monkeypatch, s3):
    # without the moves of diag(G) the walk from (e, 0) reaches only
    # (e, 0) and (g, 1): both satisfy the predicate, but 2 labels are not
    # the 2|C| = 6 of C = A3
    honest = constructions._lemma7_moves
    monkeypatch.setattr(constructions, "_lemma7_moves", lambda G, g: honest(G, g)[-1:])
    with pytest.raises(Falsification, match=r"subgroup order 12 != 2\*\|G\|\*\|C\| = 36"):
        lemma7_subgroup(s3, s3.parse("(1 2)"))


# -- the inversion subgroup and its quotient ---------------------------------------


def test_lemma8_z6_central(z6):
    N = subgroup_generated(z6, [z6.parse("2")])
    res = lemma8_construct(z6, N)
    assert res.subgroup_k.order == 3 == N.order
    assert res.normal is True and res.witness is None
    assert res.quotient.order == 24
    assert res.embed_injective is True
    for g in z6.elements():
        img = res.root_image(g)
        assert img * img == res.embed(g)


def test_lemma8_s3_fails_with_witness(s3):
    N = subgroup_generated(s3, [s3.parse("(1 2 3)")])
    res = lemma8_construct(s3, N)
    assert res.normal is False
    assert res.quotient is None
    member, conjugator = res.witness
    assert member in res.subgroup_k
    assert member.conj(conjugator) not in res.subgroup_k


@pytest.mark.parametrize(
    "spec, normal_gens, member, conjugator",
    [
        ("S3", ["(1 2 3)"], "[(1 2 3),(1 3 2);0]", "[(1 2),();0]"),
        (
            "S4",
            ["(1 2)(3 4)", "(1 3)(2 4)"],
            "[(1 2)(3 4),(1 2)(3 4);0]",
            "[(1 2 3 4),();0]",
        ),
        (
            "D3xD3",
            ["(r^1|r^0)", "(r^0|r^1)"],
            "[(r^0|r^1),(r^0|r^2);0]",
            "[(r^0|s*r^0),(r^0|r^0);0]",
        ),
    ],
)
def test_lemma8_witness_is_first_failing_member(spec, normal_gens, member, conjugator):
    # members of K in canonical order, each against the wreath generators
    # in order: scanning conjugators first reports other pairs for S4 and D3xD3
    G = named_group(spec)
    res = lemma8_construct(G, subgroup_generated(G, [G.parse(s) for s in normal_gens]))
    W = res.wreath
    assert res.normal is False
    assert (W.render(res.witness[0]), W.render(res.witness[1])) == (member, conjugator)


def test_lemma8_on_a_table_group_listing_no_generators(s3):
    # a group built without chosen generators lists every element but the
    # identity; the shift alone would make K look normal in S3 wr Z2
    bare = _bare_s3()
    W = wreath_cyclic(bare, 2)
    assert subgroup_generated(W, W.generators).order == 72
    res = lemma8_construct(bare, subgroup_generated(bare, [bare.parse("(1 2 3)")]))
    assert res.normal is False and res.quotient is None
    member, conjugator = res.witness
    assert (res.wreath.render(member), res.wreath.render(conjugator)) == (
        "[(1 2 3),(1 3 2);0]",
        "[(2 3),();0]",  # the least generator, in sorted order
    )


def test_lemma8_trivial_n(z4):
    N = subgroup_generated(z4, [])
    res = lemma8_construct(z4, N)
    assert res.subgroup_k.order == 1
    assert res.normal is True
    assert res.quotient.order == res.wreath.order == 32


def test_lemma8_intersection_with_diagonal(z6):
    # K n diag(G) is the embedded set of involutions of N
    N = z6.whole()
    res = lemma8_construct(z6, N)
    W = res.wreath
    diag = {W.diag_embed(a).payload for a in z6.elements()}
    inter = {e.payload for e in res.subgroup_k} & diag
    involutions = {
        W.diag_embed(a).payload for a in z6.elements() if (a * a) == z6.identity
    }
    assert inter == involutions
    assert len(inter) == 2  # |N| even here, so the intersection is not trivial
    assert res.normal is True  # N central
    assert res.embed_injective is False


def test_lemma8_odd_n_gives_trivial_intersection(z6):
    N = subgroup_generated(z6, [z6.parse("2")])
    res = lemma8_construct(z6, N)
    W = res.wreath
    diag = {W.diag_embed(a).payload for a in z6.elements()}
    assert len({e.payload for e in res.subgroup_k} & diag) == 1


def test_lemma8_preconditions(s3):
    with pytest.raises(PreconditionError):
        lemma8_construct(s3, subgroup_generated(s3, [s3.parse("(1 2)")]))  # not normal
    with pytest.raises(PreconditionError):
        lemma8_construct(s3, s3.whole())  # not abelian


# -- the strategy chain -------------------------------------------------------------


def test_prop1_lemma7_cases(s3, z6, d7):
    res = prop1_embedding(s3, s3.parse("(1 2)"))
    assert res.strategy == "lemma7" and res.overgroup_order == 36
    assert res.meets_bound

    res = prop1_embedding(z6, z6.parse("3"))
    assert res.strategy == "lemma7" and res.overgroup_order == 12

    res = prop1_embedding(d7, d7.parse("s"))
    assert res.strategy == "lemma7" and res.overgroup_order == 196


def test_prop1_computes_the_commutator_part_once(monkeypatch, s3, d7):
    real = constructions._commutator_part
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(constructions, "_commutator_part", counted)
    for G, g in ((s3, s3.parse("(1 2)")), (d7, d7.parse("s"))):
        calls.clear()
        res = prop1_embedding(G, g)
        assert res.strategy == "lemma7"
        assert len(calls) == 1
        assert "subgroup" not in res.lemma7.__dict__
        alone = lemma7_subgroup(G, g)
        assert res.lemma7.subgroup.payload_set == alone.subgroup.payload_set
        assert res.lemma7.commutator_part == alone.commutator_part


def test_prop1_root_verified(s3):
    for g in s3.elements():
        res = prop1_embedding(s3, g)
        assert res.root * res.root == res.embed(g)


def test_prop1_fallback_on_a5():
    a5 = named_group("A5")
    g = a5.parse("(1 2 3)")
    res = prop1_embedding(a5, g)
    assert res.strategy == "fallback"
    assert res.overgroup_order == 2 * 60 * 60
    assert not res.meets_bound
    assert res.root * res.root == res.embed(g)
