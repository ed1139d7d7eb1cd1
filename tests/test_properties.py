"""Property tests for the element kernels: permutation composition, the
wreath multiplication law and the parse/render round trip."""

from hypothesis import given, settings, strategies as st

from groupsmith import perms
from groupsmith.constructions import WreathGroup, lemma8_construct, named_group, wreath_cyclic
from groupsmith.core import (
    PermGroup,
    TableGroup,
    odd_abelian_normal_candidates,
    table_from_generators,
)


def perm_triples(max_degree: int = 12):
    """Three permutations of one degree between 1 and max_degree."""
    return st.integers(min_value=1, max_value=max_degree).flatmap(
        lambda m: st.tuples(*[st.permutations(range(m)).map(tuple)] * 3)
    )


@settings(max_examples=200, deadline=None)
@given(perm_triples())
def test_compose_is_the_definition_and_associative(abc):
    a, b, c = abc
    assert perms.compose(a, b) == tuple(a[b[i]] for i in range(len(a)))
    assert perms.compose(perms.compose(a, b), c) == perms.compose(a, perms.compose(b, c))


def elements_of(G):
    """An element of G; a wreath element is drawn coordinate by coordinate."""
    if isinstance(G, WreathGroup):
        coords = st.tuples(*[st.sampled_from(tuple(G.base._iter_payloads()))] * G.arity)
        payloads = st.tuples(coords, st.integers(min_value=0, max_value=G.arity - 1))
    else:
        payloads = st.sampled_from(tuple(G._iter_payloads()))
    return payloads.map(G.element)


# S3 and D5 are permutation bases, Z6 and Z3xS3 table bases
WREATHS = [
    wreath_cyclic(named_group(spec), n) for spec in ("S3", "D5", "Z6", "Z3xS3") for n in (2, 3)
]


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(WREATHS).flatmap(
        lambda W: st.tuples(st.tuples(*[elements_of(W)] * 3), elements_of(W.base))
    )
)
def test_wreath_law(drawn):
    (x, y, z), g = drawn
    W = x.group
    assert (x * y) * z == x * (y * z)
    assert x * x.inv() == W.identity == x.inv() * x
    n = W.arity
    root = W.element(((g.payload,) + (W.base._id(),) * (n - 1), 1))
    assert root**n == W.diag_embed(g)


def round_trip_groups() -> tuple:
    """One group per backend and namer: cycle, dihedral, integer, product,
    coset and closure-table names, and wreath products over both bases."""
    z6 = named_group("Z6")
    quotient = lemma8_construct(z6, odd_abelian_normal_candidates(z6)[0]).quotient
    return (
        named_group("S4"),
        named_group("D5"),
        z6,
        named_group("Z3xS3"),
        quotient,
        table_from_generators([(1, 0, 2, 3), (1, 2, 3, 0)]),
        wreath_cyclic(named_group("S3"), 2),
        wreath_cyclic(named_group("Z3xZ2"), 3),
    )


ROUND_TRIP_GROUPS = round_trip_groups()


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(ROUND_TRIP_GROUPS).flatmap(elements_of))
def test_parse_inverts_render_on_every_backend(e):
    G = e.group
    assert G.parse(G.render(e)) == e


def test_round_trip_groups_cover_every_backend():
    backends = {G.backend for G in ROUND_TRIP_GROUPS}
    assert backends == {cls.backend for cls in (PermGroup, TableGroup, WreathGroup)}
