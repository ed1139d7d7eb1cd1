"""Property tests for the element kernels: permutation composition and
conjugation, the wreath multiplication law, the flat wreath payloads over
permutation bases, the parse/render round trip and the top-level split
that the parsers use."""

from functools import cache
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from groupsmith import perms
from groupsmith.constructions import WreathGroup, lemma8_construct, named_group, wreath_cyclic
from groupsmith.core import (
    CosetGroup,
    Group,
    PermGroup,
    TableGroup,
    _split_top,
    normal_closure,
    odd_abelian_normal_candidates,
)
from groupsmith.errors import PreconditionError

from helpers import perm_table, split_top_by_walk, wreath_mul_by_coordinates


def perm_triples(max_degree: int = 12):
    """Three permutations of one degree between 0 and max_degree."""
    return st.integers(min_value=0, max_value=max_degree).flatmap(
        lambda m: st.tuples(*[st.permutations(range(m)).map(tuple)] * 3)
    )


@settings(max_examples=200, deadline=None)
@given(perm_triples())
@example(((0,), (0,), (0,)))  # degree 1, where itemgetter would return a scalar
def test_compose_is_the_definition_and_associative(abc):
    a, b, c = abc
    assert perms.compose(a, b) == tuple(a[b[i]] for i in range(len(a)))
    assert perms.compose(perms.compose(a, b), c) == perms.compose(a, perms.compose(b, c))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=12).flatmap(
        lambda m: st.tuples(
            st.lists(st.permutations(range(m)).map(tuple), max_size=4),
            st.permutations(range(m)).map(tuple),
        )
    )
)
@example(([()], ()))  # degree 0, where itemgetter cannot be built
@example(([(0,)], (0,)))  # degree 1, where itemgetter would return a scalar
def test_conjugates_is_the_two_product_conjugate(drawn):
    hs, y = drawn
    yinv, by_y = perms.invert(y), perms.conjugator(y)
    assert [by_y(h) for h in hs] == [perms.compose(perms.compose(yinv, h), y) for h in hs]


def elements_of(G):
    """An element of G; a wreath element is drawn coordinate by coordinate."""
    if isinstance(G, WreathGroup):
        coords = st.tuples(*[st.sampled_from(tuple(G.base._iter_payloads()))] * G.arity)
        payloads = st.tuples(coords, st.integers(min_value=0, max_value=G.arity - 1)).map(
            lambda fk: G.pack(*fk)
        )
    else:
        payloads = st.sampled_from(tuple(G._iter_payloads()))
    return payloads.map(G.element)


@cache
def wreath(spec: str, n: int) -> WreathGroup:
    return wreath_cyclic(named_group(spec), n)


def wreaths(specs) -> st.SearchStrategy:
    """The wreath products `spec wr Zn` for the given (spec, n), each built
    when first drawn, so that a broken kernel fails the tests that draw it
    rather than the collection of this module."""
    return st.sampled_from(specs).map(lambda spec_n: wreath(*spec_n))


# S3 and D5 on their points, Z6 on cycles of 2 and 3, Z3xS3 a product
WREATHS = wreaths([(spec, n) for spec in ("S3", "D5", "Z6", "Z3xS3") for n in (2, 3)])


@settings(max_examples=25, deadline=None)
@given(
    WREATHS.flatmap(
        lambda W: st.tuples(st.tuples(*[elements_of(W)] * 3), elements_of(W.base))
    )
)
def test_wreath_law(drawn):
    (x, y, z), g = drawn
    W = x.group
    assert (x * y) * z == x * (y * z)
    assert x * x.inv() == W.identity == x.inv() * x
    n = W.arity
    root = W.element(W.pack((g.payload,) + (W.base._id(),) * (n - 1), 1))
    assert root**n == W.diag_embed(g)


# -- flat payloads --------------------------------------------------------------------


def coordinate_pairs(W):
    """Every (f, k) of W, k-major, in the order W lists its elements."""
    base_pays = tuple(W.base._iter_payloads())
    return [(f, k) for k in range(W.arity) for f in product(base_pays, repeat=W.arity)]


def assert_flat_kernel_matches_oracle(W, x, y):
    pack = W.pack
    assert W._mul(pack(*x), pack(*y)) == pack(*wreath_mul_by_coordinates(W.base, W.arity, x, y))
    assert W.unpack(pack(*x)) == x
    assert W._contains_payload(pack(*x))


@pytest.mark.parametrize("spec", ["S1", "S3", "D5"])
def test_flat_kernel_matches_oracle_exhaustively(spec):
    W = wreath_cyclic(named_group(spec), 2)
    pairs = coordinate_pairs(W)
    assert len(pairs) == W.order
    for x in pairs:
        for y in pairs:
            assert_flat_kernel_matches_oracle(W, x, y)
    assert [W.pack(*x) for x in pairs] == list(W._iter_payloads())


FLAT_WREATHS = wreaths([("S3", 3), ("D5", 3), ("S4", 2)])


@settings(max_examples=100, deadline=None)
@given(
    FLAT_WREATHS.flatmap(
        lambda W: st.tuples(st.just(W), *[st.sampled_from(coordinate_pairs(W))] * 2)
    )
)
def test_flat_kernel_matches_oracle(drawn):
    W, x, y = drawn
    assert_flat_kernel_matches_oracle(W, x, y)


@cache
def permutation_payload_groups() -> tuple:
    """Groups whose `_conjugator` is `perms.conjugator`: a permutation
    closure and flat wreath products over permutation bases."""
    return named_group("S4"), wreath("S3", 2), wreath("D5", 3)


@settings(max_examples=60, deadline=None)
@given(
    st.deferred(lambda: st.sampled_from(permutation_payload_groups())).flatmap(
        lambda G: st.tuples(elements_of(G), elements_of(G))
    )
)
def test_conjugation_kernel_matches_the_generic_path(drawn):
    h, y = drawn
    G = y.group
    assert G._conjugator(y.payload)(h.payload) == Group._conjugator(G, y.payload)(h.payload)


@cache
def right_multiplication_groups() -> tuple:
    """The permutation-payload groups, S1 (below the itemgetter kernel's
    degree), a table group and a non-abelian coset group, S4/V4."""
    s4 = named_group("S4")
    v4 = normal_closure(s4, [s4.parse("(1 2)(3 4)")])
    quotient, _ = s4.quotient(v4)
    return permutation_payload_groups() + (named_group("S1"), named_group("Z3xS3"), quotient)


@settings(max_examples=60, deadline=None)
@given(
    st.deferred(lambda: st.sampled_from(right_multiplication_groups())).flatmap(
        lambda G: st.tuples(elements_of(G), elements_of(G))
    )
)
def test_times_is_right_multiplication(drawn):
    p, q = drawn
    G = p.group
    assert G._times(q.payload)(p.payload) == G._mul(p.payload, q.payload)


@pytest.mark.parametrize("spec", ["S3", "D5"])
def test_diag_embed_and_identity_are_packed(spec):
    W = wreath(spec, 3)
    assert W.identity.payload == W.pack((W.base._id(),) * 3, 0)
    for g in W.base.elements():
        assert W.diag_embed(g).payload == W.pack((g.payload,) * 3, 0)


def test_flat_payloads_outside_the_wreath_are_rejected(a4):
    W = wreath_cyclic(a4, 2)
    e = a4._id()
    odd = (1, 0, 2, 3)
    assert not a4._contains_payload(odd)
    for k in (0, 1):
        assert W._contains_payload(W.pack((e, e), k))
        assert not W._contains_payload(W.pack((odd, e), k))
        assert not W._contains_payload(W.pack((e, odd), k))
    cross = (0, 1, 2, 4, 3, 5, 6, 7)  # swaps a point of block 0 with one of block 1
    assert perms.is_perm(cross)
    assert not W._contains_payload(cross)
    for bad in ((e, e), ((e, e), 0), (0,) * 8, tuple(range(7)), ("a",) * 8):
        assert not W._contains_payload(bad)
    with pytest.raises(PreconditionError):
        W.element(cross)


@cache
def round_trip_groups() -> tuple:
    """One group per backend and namer: cycle, dihedral, residue, product,
    coset and closure-table names, and wreath products over a symmetric
    and a product base; built when a test first asks for them."""
    z6 = named_group("Z6")
    quotient = lemma8_construct(z6, odd_abelian_normal_candidates(z6)[0]).quotient
    return (
        named_group("S4"),
        named_group("D5"),
        z6,
        named_group("Z3xS3"),
        quotient,
        perm_table([(1, 0, 2, 3), (1, 2, 3, 0)]),
        wreath_cyclic(named_group("S3"), 2),
        wreath_cyclic(named_group("Z3xZ2"), 3),
    )


@settings(max_examples=200, deadline=None)
@given(st.deferred(lambda: st.sampled_from(round_trip_groups())).flatmap(elements_of))
def test_parse_inverts_render_on_every_backend(e):
    G = e.group
    assert G.parse(G.render(e)) == e


def test_round_trip_groups_cover_every_backend():
    backends = {G.backend for G in round_trip_groups()}
    assert backends == {
        cls.backend for cls in (CosetGroup, PermGroup, TableGroup, WreathGroup)
    }


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="()[];,|x "), st.sampled_from(";,|"))
@example("[x;x]", ";")
@example(")x;(x", ";")
def test_split_top_matches_the_character_walk(s, sep):
    assert _split_top(s, sep) == split_top_by_walk(s, sep)
