import math
import random
import tracemalloc
from itertools import islice

import pytest

from groupsmith import core, perms
from groupsmith.constructions import cyclic_group, lemma8_construct, named_group, wreath_cyclic
from groupsmith.core import (
    TABLE_ENTRY_BUDGET,
    Group,
    ListNamer,
    PermGroup,
    Subgroup,
    TableGroup,
    check_table_order,
    conjugates_in,
    direct_product,
    mutual_commutator,
    normal_closure,
    normalizer_in,
    odd_abelian_normal_candidates,
    perm_closure,
    subgroup_generated,
    verify_group_axioms,
)
from groupsmith.errors import CapExceeded, Falsification, ParseError, PreconditionError
from groupsmith.search import closure_order_capped, embed_dihedral, square_roots_in_Sm

from helpers import (
    all_subgroups,
    associativity_by_triples,
    brute_commutator_closure,
    brute_normal_closure,
    conjugacy_classes_by_scan,
    conjugates_by_scan,
    perm_table,
    quotient_by_products,
)


# -- axioms across the backends -------------------------------------------


AXIOM_SPECS = ["Z1", "Z2", "Z6", "S3", "D5", "D7", "A4", "Z2xZ3", "D7xZ2"]


@pytest.mark.parametrize("spec", AXIOM_SPECS)
def test_group_axioms_named(spec):
    G = named_group(spec)
    rep = verify_group_axioms(G)
    assert rep.ok, rep.detail
    assert rep.ok == associativity_by_triples(G)


def test_group_axioms_wreath_small(s3):
    W = wreath_cyclic(s3, 2)
    rep = verify_group_axioms(W)
    assert rep.ok and rep.order == 72
    assert rep.ok == associativity_by_triples(W)


def test_group_axioms_wreath_sampled(d7):
    """Order 392, where associativity was once sampled: now exact."""
    W = wreath_cyclic(d7, 2)
    rep = verify_group_axioms(W)
    assert rep.ok and rep.order == 392
    assert rep.detail == ""


def test_group_axioms_quotient(z6):
    N = subgroup_generated(z6, [z6.parse("2")])
    Q, _ = z6.quotient(N)
    rep = verify_group_axioms(Q)
    assert rep.ok and rep.order == 2


class _BareTable(Group):
    """A product read from a table and trusted as given, so that
    `verify_group_axioms` meets what `TableGroup` would refuse."""

    backend = "bare-table"

    def __init__(self, name, rows, generators=()):
        super().__init__(name)
        self._rows = rows
        self._gens = tuple(generators)

    @property
    def order(self):
        return len(self._rows)

    def _mul(self, p, q):
        return self._rows[p][q]

    def _inv(self, p):
        return self._rows[p].index(0)

    def _id(self):
        return 0

    def _iter_payloads(self):
        return iter(range(len(self._rows)))

    def _render(self, p):
        return str(p)

    def _generator_payloads(self):
        return self._gens


def _loop5(generators=()):
    return _BareTable("loop5", [[int(c) for c in row] for row in LOOP5], generators)


@pytest.mark.parametrize("generators", [(), (1, 2)])
def test_group_axioms_refuse_a_loop(generators):
    """Light's test rejects the order-5 loop both with every element as a
    generator and with a pair that reaches every element."""
    L = _loop5(generators)
    rep = verify_group_axioms(L)
    assert not rep.ok and not associativity_by_triples(L)
    assert rep.detail == "the product of loop5 is not associative"


def test_group_axioms_refuse_generators_that_miss_an_element():
    Z4 = _BareTable("Z4", [[(i + j) % 4 for j in range(4)] for i in range(4)], (2,))
    rep = verify_group_axioms(Z4)
    assert associativity_by_triples(Z4)
    assert not rep.ok
    assert rep.detail == "the generators of Z4 reach 2 of its 4 elements"


def _z4(rows=None, **overrides):
    """Z4 as a bare table, with some of its methods replaced."""
    G = _BareTable("Z4", rows or [[(i + j) % 4 for j in range(4)] for i in range(4)])
    G.__dict__.update(overrides)
    return G


@pytest.mark.parametrize(
    "G, detail",
    [
        (_z4(), ""),
        (_z4(_inv=lambda p: p), "inverse failed for 1"),
        (_z4([[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 5]]), "5 is not an element of Z4"),
        (_z4(_id=lambda: 2), "2 is not the identity of Z4"),
        (_z4(_iter_payloads=lambda: iter([0, 1, 2, 3, 1])), "1 is listed twice in Z4"),
    ],
    ids=["honest", "wrong-inverse", "product-outside", "identity-not-first", "listed-twice"],
)
def test_group_axioms_report_each_broken_law(G, detail):
    """Each law that G can break, checked by the table or against it."""
    rep = verify_group_axioms(G)
    assert rep.ok == (detail == "")
    assert rep.detail == detail


def _lemma8_quotient(spec):
    G = named_group(spec)
    N = odd_abelian_normal_candidates(G)[0]
    res = lemma8_construct(G, N)
    return res.wreath, res.subgroup_k, res.quotient


def _z6_mod_2(z6):
    N = subgroup_generated(z6, [z6.parse("2")])
    return z6, N, z6.quotient(N)[0]


@pytest.mark.parametrize("case", ["Z6/<2>", "Z6", "Z3xS3", "S3xZ3", "Z12"])
def test_quotient_matches_the_all_pairs_fill(case, z6):
    G, N, Q = _z6_mod_2(z6) if case == "Z6/<2>" else _lemma8_quotient(case)
    want = quotient_by_products(G, N)
    n = Q.order
    assert n == want.order and Q.name == want.name
    assert [Q._mul(i, j) for i in range(n) for j in range(n)] == [
        want._mul(i, j) for i in range(n) for j in range(n)
    ]
    assert Q._generator_payloads() == want._generator_payloads()
    assert [Q.render(e) for e in Q.elements()] == [want.render(e) for e in want.elements()]


@pytest.mark.parametrize("case", ["Z6", "Z3xS3", "S3xZ3", "Z12"])
def test_lemma8_quotients_satisfy_the_group_laws(case):
    """`Group.quotient` does not test the laws it derives from normality;
    `test_group_axioms_quotient` checks Z6/<2>."""
    rep = verify_group_axioms(_lemma8_quotient(case)[2])
    assert rep.ok, rep.detail


def test_quotient_refuses_generators_that_miss_a_coset():
    Z4 = _BareTable("Z4", [[(i + j) % 4 for j in range(4)] for i in range(4)], (2,))
    with pytest.raises(Falsification, match="reach 2 of the 4 cosets"):
        Z4.quotient(Subgroup(Z4, [Z4.identity]))


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


def _payload_cases():
    """(group, a member's payload, look-alikes equal to it that are not
    payloads) for each backend: floats and bools compare equal to ints."""
    s3 = named_group("S3")
    flat = wreath_cyclic(s3, 2)
    member = flat.pack(((1, 0, 2), (0, 1, 2)), 0)
    return {
        "perm-closure": (s3, (1, 0, 2), [(1.0, 0.0, 2.0), (True, False, 2), [1, 0, 2]]),
        "dense-table": (_z3_table(), 1, [1.0, True]),
        "flat-wreath": (flat, member, [tuple(map(float, member)), (True, False) + member[2:]]),
    }


def _z3_table():
    return TableGroup(range(3), lambda a, b: (a + b) % 3, ListNamer("012"), name="Z3")


@pytest.mark.parametrize("backend", ["perm-closure", "dense-table", "flat-wreath"])
def test_element_takes_exact_int_payloads_only(backend):
    G, member, look_alikes = _payload_cases()[backend]
    assert G.render(G.element(member))
    for p in look_alikes:
        with pytest.raises(PreconditionError, match="is not valid for"):
            G.element(p)


@pytest.mark.parametrize("specs", ["D7,S7", "S7,D7"])
def test_perm_groups_keep_their_own_names(specs):
    want = {"D7": "r^1", "S7": "(1 2 3 4 5 6 7)"}
    groups = [(spec, named_group(spec)) for spec in specs.split(",")]
    for _ in range(2):
        for spec, G in groups:
            assert G.render(G.element((1, 2, 3, 4, 5, 6, 0))) == want[spec]


def test_perm_group_parses_no_remembered_non_member():
    s4, a4 = named_group("S4"), named_group("A4")
    assert s4.parse("(1 2)").payload == (1, 0, 2, 3)
    for _ in range(2):
        with pytest.raises(ParseError, match="not an element of A4"):
            a4.parse("(1 2)")
        with pytest.raises(ParseError):
            s4.parse("(1 5)")


@pytest.mark.parametrize("spec", ["S4", "D7", "A5"])
def test_perm_group_names_match_the_namer(spec):
    G = named_group(spec)
    for _ in range(2):
        for p in G._iter_payloads():
            assert G.parse(G._render(p)).payload == p
    assert G._names == {p: G._namer.render(p) for p in G._iter_payloads()}


# -- tables on permutation closures ----------------------------------------------


def test_table_from_generators_s3():
    G = perm_table([(1, 0, 2), (1, 2, 0)])
    assert G.order == 6
    assert G.backend == "dense-table"
    rep = verify_group_axioms(G)
    assert rep.ok


def test_table_from_generators_empty():
    G = perm_table([])
    assert G.order == 1


def test_table_from_generators_seven_cycle():
    c7 = tuple(list(range(1, 7)) + [0])
    assert perm_table([c7]).order == 7


def test_table_numbering_deterministic():
    G1 = perm_table([(1, 0, 2), (1, 2, 0)])
    G2 = perm_table([(1, 2, 0), (1, 0, 2)])
    names1 = [G1.render(e) for e in G1.elements()]
    names2 = [G2.render(e) for e in G2.elements()]
    assert names1 == names2
    # breadth-first from the identity, generators first
    assert names1[0] == "()"
    assert names1[1:3] == ["(1 2)", "(1 2 3)"]


def test_table_cap_carries_partial_count(monkeypatch):
    monkeypatch.setenv("GROUPSMITH_CAP", "3")
    c7 = tuple(list(range(1, 7)) + [0])
    with pytest.raises(CapExceeded) as err:
        perm_table([c7])
    assert err.value.partial_count is not None
    assert err.value.partial_count >= 3


class _UnbuiltTable:
    """An element list that reports its length but fails if an element is
    ever read."""

    def __init__(self, n):
        self.n = n

    def __len__(self):
        return self.n

    def __getitem__(self, i):
        raise AssertionError("an element was read")


def test_table_order_above_16_bits_is_a_cap(monkeypatch):
    # entries are stored as array("H"): order 65537 would overflow them, and
    # the entry budget refuses every order above 4096
    assert math.isqrt(TABLE_ENTRY_BUDGET) <= 1 << 16
    monkeypatch.setenv("GROUPSMITH_CAP", "70000")
    with pytest.raises(CapExceeded) as err:
        TableGroup(_UnbuiltTable(65537), max, ListNamer("01"), name="unbuilt")
    assert err.value.partial_count == 65537
    assert "above the table entry budget 16777216" in str(err.value)
    with pytest.raises(CapExceeded):
        cyclic_group(65537)


def _peak_traced_bytes(fn):
    """Run fn, which must raise CapExceeded; return (error, peak bytes
    allocated meanwhile)."""
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded) as err:
            fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return err.value, peak


def test_tables_are_refused_before_they_are_built(monkeypatch):
    monkeypatch.setenv("GROUPSMITH_CAP", "10")
    # a built Z1000 table holds 10^6 entries, 2 MB as array("H")
    err, peak = _peak_traced_bytes(lambda: cyclic_group(1000))
    assert str(err) == "table group order 1000 exceeds cap 10 (partial count: 1000)"
    assert peak < 1 << 20
    z5 = cyclic_group(5)
    err, peak = _peak_traced_bytes(lambda: direct_product(z5, cyclic_group(3)))
    assert str(err) == "table group order 15 exceeds cap 10 (partial count: 15)"
    # the entry budget comes first: Z300xZ300 would hold 8.1 * 10^9 entries
    monkeypatch.setenv("GROUPSMITH_CAP", "100000")
    z300 = cyclic_group(300)
    err, peak = _peak_traced_bytes(lambda: direct_product(z300, z300))
    assert str(err) == (
        "table group order 90000 needs 8100000000 entries, "
        "above the table entry budget 16777216 (partial count: 90000)"
    )
    assert peak < 1 << 20


def test_table_entry_budget_is_checked_before_the_cap(monkeypatch):
    monkeypatch.delenv("GROUPSMITH_CAP", raising=False)
    assert TABLE_ENTRY_BUDGET == 1 << 24
    check_table_order(4096)  # exactly 2^24 entries
    with pytest.raises(CapExceeded) as err:
        check_table_order(4097)
    assert str(err.value) == (
        "table group order 4097 needs 16785409 entries, above the table entry "
        "budget 16777216 (partial count: 4097)"
    )
    # a built Z5000 table holds 2.5 * 10^7 entries, 50 MB as array("H")
    err, peak = _peak_traced_bytes(lambda: named_group("Z5000"))
    assert "order 5000 needs 25000000 entries" in str(err)
    assert peak < 1 << 20


def test_a_table_is_filled_without_nested_lists():
    # Z400 acts on its cycles of 16 and 25 points: 400 payloads of 41
    # entries. A dense table of order 400 holds 160,000 entries, 0.32 MB as
    # array("H"); building them as nested lists first peaks at about 3.5 MB
    builders = [
        lambda: cyclic_group(400),
        lambda: TableGroup(
            range(400), lambda a, b: (a + b) % 400, ListNamer(map(str, range(400))),
            name="Z400", generators=[1],
        ),
    ]
    for build in builders:
        tracemalloc.start()
        try:
            z400 = build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert z400.order == 400 and z400.parse("399").inv() == z400.parse("1")
        assert peak < 1 << 20


def test_the_closure_fills_the_entry_budget_exactly(monkeypatch):
    # Z4 is one 4-cycle: its 4 payloads of 4 entries fill a budget of 16
    monkeypatch.setattr(core, "TABLE_ENTRY_BUDGET", 16)
    assert cyclic_group(4).order == 4
    with pytest.raises(CapExceeded, match="order 5 needs 25 entries"):
        cyclic_group(5)
    with pytest.raises(CapExceeded, match="closure of S4 is too large") as err:
        PermGroup(4, [(1, 0, 2, 3), (1, 2, 3, 0)], name="S4")
    assert err.value.partial_count == 5


@pytest.mark.parametrize(
    "elements, mul, message",
    [
        (range(3), lambda a, b: a + b, "3 is not an element of bad"),
        ([0, 1, 1], lambda a, b: (a + b) % 2, "1 is listed twice in bad"),
        ([1, 0, 2], lambda a, b: (a + b) % 3, "1 is not a two-sided identity of bad"),
        # the monoid ({0, 1}, max): the row of 1 holds no 0
        ([0, 1], max, "1 lacks a unique two-sided inverse in bad"),
    ],
)
def test_table_input_checks(elements, mul, message):
    with pytest.raises(PreconditionError) as err:
        TableGroup(elements, mul, ListNamer("012"), name="bad")
    assert str(err.value) == message


# a loop of order 5 that is not a group: every non-identity element squares
# to 0, so a subgroup query on it would fail Lagrange's theorem
LOOP5 = ("01234", "10342", "24013", "32401", "43120")


@pytest.mark.parametrize(
    "generators, message",
    [
        ((), "the product of loop5 is not associative"),
        ((1,), "the generators of loop5 reach 2 of its 5 elements"),
    ],
)
def test_table_refuses_what_generator_queries_would_get_wrong(generators, message):
    with pytest.raises(PreconditionError) as err:
        TableGroup(
            range(5), lambda a, b: int(LOOP5[a][b]), ListNamer("01234"),
            name="loop5", generators=generators,
        )
    assert str(err.value) == message


def _listing_every_element(G: PermGroup) -> PermGroup:
    """G again, with every element but the identity as a generator."""
    bare = PermGroup(G.degree, list(G._iter_payloads())[1:], name=f"{G.name}-bare")
    assert bare.generators == tuple(bare.elements())[1:]
    return bare


def test_direct_product_keeps_a_factor_without_generators():
    # a factor built without chosen generators lists every element but the identity
    product = direct_product(_listing_every_element(named_group("S3")), cyclic_group(3))
    assert not product.is_abelian()
    assert product.center().order == 3


def test_perm_closure_lists_each_point_once_breadth_first():
    # S4 under a transposition and a 4-cycle, levelled here by distance
    # from the identity
    gens = [(1, 0, 2, 3), (1, 2, 3, 0)]
    e = perms.identity_perm(4)
    dist, frontier = {e: 0}, [e]
    while frontier:
        level = {perms.compose(p, g) for p in frontier for g in gens} - dist.keys()
        for q in level:
            dist[q] = dist[frontier[0]] + 1
        frontier = list(level)
    _, ordered, complete = perm_closure(gens, 25)
    assert complete and ordered[0] == e
    assert sorted(ordered) == sorted(dist)
    assert all(dist[p] <= dist[q] for p, q in zip(ordered, ordered[1:]))
    for abort_at in (1, 2, 13, 24):
        _, partial, complete = perm_closure(gens, abort_at)
        assert not complete and partial == ordered[:abort_at]


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


def test_orders_match_sympy_schreier_sims(monkeypatch):
    combinatorics = pytest.importorskip("sympy.combinatorics")
    monkeypatch.setenv("GROUPSMITH_CAP", "40320")
    rng = random.Random(20111)
    orders = set()
    for m in (5, 6, 7, 8):
        transposition, cycle = (1, 0) + tuple(range(2, m)), tuple(range(1, m)) + (0,)
        Sm = PermGroup(m, [transposition, cycle])
        for _ in range(4):
            gens = _random_generators(rng, m)
            want = combinatorics.PermutationGroup(
                [combinatorics.Permutation(list(g)) for g in gens]
            ).order()
            orders.add(want)
            assert PermGroup(m, gens).order == want
            assert subgroup_generated(Sm, [Sm.element(g) for g in gens]).order == want
            assert closure_order_capped(gens, want + 1) == (want, True)
            assert closure_order_capped(gens, want) == (want, False)
    assert len(orders) >= 6  # the seeded sets are not all one group
    for p, m in ((5, 10), (7, 14)):  # the search's own ambients <r, s, x>
        r, s = embed_dihedral(p, m)
        for x in islice(square_roots_in_Sm(m, s), 10):
            gens = [r, s, x]
            want = combinatorics.PermutationGroup(
                [combinatorics.Permutation(list(g)) for g in gens]
            ).order()
            orders.add(want)
            assert closure_order_capped(gens, want + 1) == (want, True)
            assert closure_order_capped(gens, want) == (want, False)
    assert max(orders) > 40320  # beyond the degree-8 sets: some ambient is large


def test_subgroup_generated_examples(d7, s3):
    assert subgroup_generated(d7, [d7.parse("r^1")]).order == 7
    assert subgroup_generated(d7, [d7.parse("s"), d7.parse("r^1")]).order == 14
    a3 = subgroup_generated(s3, [s3.parse("(1 2 3)")])
    assert a3.order == 3
    assert {s3.render(e) for e in a3} == {"()", "(1 2 3)", "(1 3 2)"}


def test_subgroup_validation(s3):
    with pytest.raises(PreconditionError, match="must contain the identity"):
        Subgroup(s3, [s3.parse("(1 2)")])
    with pytest.raises(PreconditionError, match="must contain the identity"):
        Subgroup(s3, [])
    with pytest.raises(PreconditionError, match="not closed"):
        Subgroup(s3, [s3.identity, s3.parse("(1 2 3)")])


def test_the_checked_and_unchecked_subgroup_constructors_agree(s3, z6):
    rng = random.Random(7)
    W = wreath_cyclic(s3, 2)  # its payloads are not listed in sorted order
    for G in (s3, z6, W):
        for gens in ([], *([g] for g in G.generators), G.generators):
            pays = list(subgroup_generated(G, gens).payloads)
            mixed = pays + rng.sample(pays, min(2, len(pays)))
            rng.shuffle(mixed)
            checked = Subgroup(G, [G.element(p) for p in mixed])
            unchecked = Subgroup.of_payloads(G, iter(mixed))
            assert checked.payloads == unchecked.payloads == tuple(sorted(set(pays)))
            assert checked.elements == unchecked.elements == tuple(unchecked)
            assert checked == unchecked and hash(checked) == hash(unchecked)
            assert checked.key() == unchecked.key()
    four = [s3.identity.payload] + [s3.parse(t).payload for t in ("(1 2)", "(1 3)", "(2 3)")]
    with pytest.raises(Falsification, match="size 4 does not divide group order 6"):
        Subgroup.of_payloads(s3, four)


def test_lagrange_for_generated_subgroups(s3, d5, z6, a4):
    for G in (s3, d5, z6, a4):
        for e in G.elements():
            H = subgroup_generated(G, [e])
            assert G.order % H.order == 0


def test_normal_closure_against_oracle(s3):
    t = s3.parse("(1 2)")
    c = s3.parse("(1 2 3)")
    assert normal_closure(s3, [t]).payload_set == brute_normal_closure(s3, {t})
    assert normal_closure(s3, [t]).order == 6
    assert normal_closure(s3, [c]).payload_set == brute_normal_closure(s3, {c})
    assert normal_closure(s3, [c]).order == 3
    assert normal_closure(s3, [s3.identity]).order == 1
    assert normal_closure(s3, []).order == 1
    z3 = normal_closure(s3, [c])
    assert normal_closure(s3, [c, c.inv(), s3.identity]) == z3
    assert normal_closure(s3, [c, t]).order == 6
    for G in conjugation_inputs():
        for g in G.elements():
            assert normal_closure(G, [g]).payload_set == brute_normal_closure(G, {g})
    rng = random.Random(1)
    groups = [named_group(spec) for spec in ("S4", "A5", "D7", "Z3xS3")]
    for G in groups + [_lemma8_quotient("Z3xS3")[2]]:
        elems = list(G.elements())
        for size in (2, 2, 3, 3):
            S = set(rng.sample(elems, size))
            assert normal_closure(G, S).payload_set == brute_normal_closure(G, S), G.name


def test_normal_closure_is_normal(s3, d5, d7, a4):
    for G in (s3, d5, d7, a4):
        for e in G.elements():
            assert G.is_normal(normal_closure(G, [e]))


def test_mutual_commutator_examples(s3, d7):
    whole = s3.whole()
    derived = mutual_commutator(s3, whole, whole)
    assert derived.order == 3
    assert derived.payload_set == brute_commutator_closure(
        s3, whole.payloads, whole.payloads
    )

    g = d7.parse("s")
    C = mutual_commutator(d7, normal_closure(d7, [g]), d7.whole())
    rotations = subgroup_generated(d7, [d7.parse("r^1")])
    assert C.payload_set == rotations.payload_set

    trivial = subgroup_generated(s3, [])
    assert mutual_commutator(s3, trivial, whole).order == 1


def test_mutual_commutator_is_normal(s3, d7):
    for G in (s3, d7):
        for e in G.elements():
            C = mutual_commutator(G, normal_closure(G, [e]), G.whole())
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


def test_center_orders(d7, z6, s3):
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
    for G in conjugation_inputs():
        classes = G.conjugacy_classes()
        assert [frozenset(e.payload for e in c) for c in classes] == conjugacy_classes_by_scan(G)
        assert all(list(c) == sorted(c) for c in classes)


def test_class_walk_maps_each_member_to_a_conjugator():
    S4 = named_group("S4")
    V4 = subgroup_generated(S4, [S4.parse("(1 2)(3 4)"), S4.parse("(1 3)(2 4)")])
    groups = [
        S4,
        named_group("Z12"),
        perm_table(S4._generator_payloads()),
        S4.quotient(V4)[0],
        wreath_cyclic(named_group("S3"), 2),
    ]
    for G in groups:
        mul = G._mul
        for cls in conjugacy_classes_by_scan(G):
            for p in cls:
                walk = G._class_walk(p)
                assert set(walk) == cls
                assert next(iter(walk)) == p
                for q, h in walk.items():
                    assert mul(mul(G._inv(h), p), h) == q


def test_conjugate_subgroup_and_normalizer(s3):
    h = subgroup_generated(s3, [s3.parse("(1 2)")])
    x = s3.parse("(1 2 3)")
    hx = frozenset(e.conj(x).payload for e in h)
    scanned = [c.payload_set for c in conjugates_by_scan(s3.whole(), h)]
    assert hx in scanned and hx != h.payload_set
    assert len(hx) == 2 and len(scanned) == 3
    norm = normalizer_in(s3.whole(), h)
    assert norm.payload_set == h.payload_set


AMBIENT_SPECS = ("S3", "Z6", "A4", "D7", "S4", "S4xZ2", "Z48")


def conjugation_inputs():
    """The ambient groups, S4 listing every element but the identity as a
    generator, and D3 wr Z2."""
    named = [named_group(spec) for spec in AMBIENT_SPECS]
    return named + [_listing_every_element(named[4]), wreath_cyclic(named_group("D3"), 2)]


def test_orbit_stabilizer_for_all_subgroups():
    for G in conjugation_inputs():
        for H in all_subgroups(G):
            conjugates = conjugates_by_scan(G.whole(), H)
            walked = conjugates_in(G.whole(), H, G.generators)
            assert sorted(walked, key=Subgroup.key) == sorted(conjugates, key=Subgroup.key)
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
