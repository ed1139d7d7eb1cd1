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
from groupsmith.core import TableGroup, subgroup_generated, table_from_generators
from groupsmith.errors import CapExceeded, ParseError, PreconditionError


# -- named groups --------------------------------------------------------------


def test_d7_shape(d7):
    assert d7.order == 14
    rot = subgroup_generated(d7, [d7.parse("r^1")])
    outside = [e for e in d7.elements() if e not in rot]
    assert len(outside) == 7
    assert all(e.order() == 2 for e in outside)


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
    with pytest.raises(CapExceeded):
        wreath_cyclic(named_group("S5"), 4)  # 4 * 120^4 is past the order cap


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
        assert x == W.shift_element()
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


def test_lemma7_matches_independent_closure(s3, z6):
    # S3 lists generators; a bare table lists none (the all-elements
    # fallback); a lemma 8 quotient lists the images of the wreath's.
    cases = [(s3, s3.parse("(1 2 3)"))]
    table = table_from_generators([(1, 0, 2), (1, 2, 0)])
    bare = TableGroup(
        [[table._mul(i, j) for j in range(table.order)] for i in range(table.order)]
    )
    assert bare.generators == ()
    cases += [(bare, g) for g in bare.elements()]
    quot = lemma8_construct(z6, subgroup_generated(z6, [z6.parse("2")])).quotient
    assert quot.generators
    cases += [(quot, g) for g in quot.elements()]
    for G, g in cases:
        res = lemma7_subgroup(G, g)
        regenerated = subgroup_generated(
            res.wreath,
            [res.wreath.diag_embed(a) for a in G.elements()] + [res.root],
        )
        assert regenerated.payload_set == res.subgroup.payload_set


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
    # with no listed base generators the wreath product falls back to every
    # base element; the shift alone would make K look normal in S3 wr Z2
    table = table_from_generators([(1, 0, 2), (1, 2, 0)])
    bare = TableGroup(
        [[table._mul(i, j) for j in range(table.order)] for i in range(table.order)],
        namer=table._namer,
    )
    assert bare.generators == ()
    W = wreath_cyclic(bare, 2)
    assert subgroup_generated(W, W.generators).order == 72
    res = lemma8_construct(bare, subgroup_generated(bare, [bare.parse("(1 2 3)")]))
    assert res.normal is False and res.quotient is None
    member, conjugator = res.witness
    assert (res.wreath.render(member), res.wreath.render(conjugator)) == (
        "[(1 2 3),(1 3 2);0]",
        "[(1 2),();0]",
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
    real = constructions.mutual_commutator
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(constructions, "mutual_commutator", counted)
    for G, g in ((s3, s3.parse("(1 2)")), (d7, d7.parse("s"))):
        calls.clear()
        res = prop1_embedding(G, g)
        assert res.strategy == "lemma7"
        assert len(calls) == 1
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
