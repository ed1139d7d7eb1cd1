"""Independent oracles used to cross-check the library.

Everything here is deliberately written against different algorithms than
the production code: pairwise-product fixed points instead of generator
BFS, all-pairs products and all triples instead of generator actions,
counting formulas instead of enumeration, inversion counts instead of
cycle types, scans over every group element where production code
acts by generators only, and a walk over every character where
production code splits and rejoins.
"""

from collections import Counter
from math import factorial

from groupsmith import perms
from groupsmith.constructions import lemma7_subgroup, wreath_cyclic
from groupsmith.core import (
    CycleNamer,
    Element,
    Group,
    ListNamer,
    Subgroup,
    TableGroup,
    perm_closure,
    subgroup_generated,
)
from groupsmith.equations import PositiveEquation, evaluate
from groupsmith.search import (
    SearchReport,
    embed_dihedral,
    square_roots_in_Sm,
)


def perm_table(generator_perms) -> TableGroup:
    """A dense-table group on the closure of permutations, numbered as
    `perm_closure` walks it: breadth first from the identity, in discovery
    order. The table's own checks refuse it above the cap."""
    gens, ordered, complete = perm_closure(generator_perms, 1 << 16)
    assert complete
    return TableGroup(
        ordered,
        perms.compose,
        CycleNamer(len(ordered[0])),
        name=f"closure-{len(ordered)}",
        generators=gens,
    )


def split_top_by_walk(s: str, sep: str) -> list[str]:
    """Split at every `sep` outside (...) and [...] brackets, one character
    at a time, tracking the bracket depth; `core._split_top` must agree,
    on unbalanced input too."""
    parts = []
    depth = 0
    current = []
    for ch in s:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return parts


def wreath_mul_by_coordinates(base: Group, n: int, x: tuple, y: tuple) -> tuple:
    """The wreath law on (f, k) pairs, one base product per coordinate:
    (f, k) * (f', k') = (h, k + k' mod n) with h(i) = f(i) * f'((i - k) mod n)."""
    (f, k), (f2, k2) = x, y
    return tuple(base._mul(f[i], f2[(i - k) % n]) for i in range(n)), (k + k2) % n


def pairwise_closure(G: Group, seed_payloads) -> frozenset:
    """Close a payload set under products by brute fixed-point iteration."""
    current = set(seed_payloads)
    current.add(G._id())
    while True:
        nxt = set(current)
        for p in current:
            nxt.add(G._inv(p))
            for q in current:
                nxt.add(G._mul(p, q))
        if nxt == current:
            return frozenset(current)
        current = nxt


def brute_normal_closure(G: Group, S) -> frozenset:
    """Conjugate-then-close oracle for the normal closure of the elements S."""
    conjugates = {
        G._mul(G._mul(G._inv(y), g.payload), y) for g in S for y in G._iter_payloads()
    }
    return pairwise_closure(G, conjugates)


def brute_commutator_closure(G: Group, a_payloads, b_payloads) -> frozenset:
    comms = set()
    for a in a_payloads:
        for b in b_payloads:
            comms.add(
                G._mul(G._mul(G._mul(G._inv(a), G._inv(b)), a), b)
            )
    return pairwise_closure(G, comms)


def quotient_by_products(G: Group, N: Subgroup) -> TableGroup:
    """G/N with one product of representatives per pair of cosets; the
    cosets are numbered, named and listed as generators as
    `Group.quotient` does."""
    coset_index: dict = {}
    reps: list = []
    for p in G._iter_payloads():
        if p not in coset_index:
            for n in N.payloads:
                coset_index[G._mul(n, p)] = len(reps)
            reps.append(p)
    gens: list = []
    for g in G._generator_payloads():
        if coset_index[g] and coset_index[g] not in gens:
            gens.append(coset_index[g])
    return TableGroup(
        range(len(reps)),
        lambda i, j: coset_index[G._mul(reps[i], reps[j])],
        ListNamer([f"[{G._render(p)}]" for p in reps]),
        name=f"{G.name}/{N.describe()}",
        generators=gens,
    )


def associativity_by_triples(G: Group) -> bool:
    """Whether (a*b)*c == a*(b*c) for every triple of elements."""
    pays = list(G._iter_payloads())
    mul = G._mul
    return all(
        mul(ab, c) == mul(a, mul(b, c))
        for a in pays
        for b in pays
        for ab in (mul(a, b),)
        for c in pays
    )


def all_subgroups(G: Group) -> list[Subgroup]:
    """Every subgroup, by extending known subgroups one cyclic subgroup at
    a time; each extension closes the generators that built the subgroup
    plus a generator of the cyclic one."""
    cyclic = {}
    for e in G.elements():
        cyclic.setdefault(subgroup_generated(G, [e]).payload_set, e)
    trivial = subgroup_generated(G, [])
    found = {trivial.payload_set: trivial}
    frontier = [(trivial, [])]
    while frontier:
        nxt = []
        for H, gens in frontier:
            for pays, e in cyclic.items():
                if pays <= H.payload_set:
                    continue
                bigger = subgroup_generated(G, gens + [e])
                if bigger.payload_set not in found:
                    found[bigger.payload_set] = bigger
                    nxt.append((bigger, gens + [e]))
        frontier = nxt
    return sorted(found.values(), key=lambda s: s.key())


def conjugacy_classes_by_scan(G: Group) -> list[frozenset]:
    """The conjugacy classes in order of their first listed member, each
    found by conjugating that member with every element of G."""
    classes: list[frozenset] = []
    seen: set = set()
    for p in G._iter_payloads():
        if p not in seen:
            cls = frozenset(G._mul(G._mul(G._inv(y), p), y) for y in G._iter_payloads())
            seen |= cls
            classes.append(cls)
    return classes


def conjugates_by_scan(universe: Subgroup, H: Subgroup) -> list[Subgroup]:
    """Every distinct conjugate of H, by conjugating with each element of
    the universe in turn."""
    parent = universe.parent
    seen: dict[frozenset, Subgroup] = {}
    for y in universe.payloads:
        yinv = parent._inv(y)
        pays = frozenset(parent._mul(parent._mul(yinv, h), y) for h in H.payloads)
        if pays not in seen:
            seen[pays] = Subgroup.of_payloads(parent, pays)
    return list(seen.values())


def vertex_perm_by_sets(graph, y: Element) -> perms.Perm:
    """The permutation of a conjugate graph's vertex indices induced by
    conjugation by y, by conjugating every member of each vertex with two
    products and looking the image set up among the vertices."""
    parent = graph.ambient.parent
    index_of = {v.payload_set: i for i, v in enumerate(graph.vertices)}
    yp = y.payload
    yinv = parent._inv(yp)
    return tuple(
        index_of[frozenset(parent._mul(parent._mul(yinv, h), yp) for h in v.payloads)]
        for v in graph.vertices
    )


def colors_preserved_by_scan(graph) -> bool:
    """Whether conjugation by every element of a conjugate graph's ambient
    group maps each edge to an edge of the same color, with the vertex
    action from `vertex_perm_by_sets`."""
    K = len(graph.vertices)
    for y in graph.ambient.elements:
        pi = vertex_perm_by_sets(graph, y)
        for i in range(K):
            for j in range(i + 1, K):
                if graph.color(pi[i], pi[j]) != graph.color(i, j):
                    return False
    return True


def parity_by_inversions(p: perms.Perm) -> int:
    inv = 0
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                inv += 1
    return inv % 2


def square_roots_by_scan(m: int, g: perms.Perm) -> list[perms.Perm]:
    """Every x in S_m with x*x = g, by scanning all of S_m in lexicographic
    image order."""
    roots = []
    for x in perms.all_perms_lex(m):
        for i in range(m):
            if x[x[i]] != g[i]:
                break
        else:
            roots.append(x)
    return roots


def _double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def sqrt_count_by_cycle_type(g: perms.Perm) -> int:
    """Number of square roots of a permutation, from its cycle type alone.

    Even-length cycles must pair up (each pair comes from one cycle of
    doubled length, in `length` ways); odd-length cycles either keep their
    length (one root each) or pair up the same way.
    """
    counts = Counter(len(c) for c in perms.cycles(g))
    counts[1] += len(g) - sum(l * k for l, k in counts.items())
    total = 1
    for length, mult in counts.items():
        if mult == 0:
            continue
        if length % 2 == 0:
            if mult % 2:
                return 0
            total *= _double_factorial(mult - 1) * length ** (mult // 2)
        else:
            ways = 0
            for k in range(mult // 2 + 1):
                ways += (
                    factorial(mult)
                    // (factorial(k) * factorial(mult - 2 * k) * 2**k)
                    * length**k
                )
            total *= ways
    return total


def min_overgroup_search_by_scan(p: int, m: int, cap: int = 1000) -> SearchReport:
    """The ambient search without the orbit reduction: close <r, s, x>
    breadth first (`perm_closure`, aborted at the cap) for every square
    root x, keep the first root of least exact order, and decide the
    verdict from the whole histogram."""
    r, s = embed_dihedral(p, m)
    roots = list(square_roots_in_Sm(m, s))
    exact: dict[int, int] = {}
    capped = 0
    best = None
    for x in roots:
        _, ordered, complete = perm_closure([r, s, x], cap)
        size = len(ordered)
        if complete:
            exact[size] = exact.get(size, 0) + 1
            if best is None or size < best[0]:
                best = (size, x)
        else:
            capped += 1
    bound = 4 * p * p
    if p % 4 != 3:
        verdict = "not-applicable (p = 1 mod 4)"
    elif not roots:
        verdict = "vacuous"
    elif best is not None and best[0] < bound:
        verdict = "below the bound"  # the production search raises here
    elif capped and cap < bound:
        verdict = f"inconclusive (cap {cap} below bound {bound})"
    else:
        verdict = "bound holds in universe"
    return SearchReport(
        p=p, m=m, cap=cap, reflection=s, root_count=len(roots),
        exact_counts=exact, capped_count=capped, minimum=best and best[0],
        min_witness=best and best[1], verdict=verdict, bound=bound,
    )


def lemma7_rows_by_scan(G: Group) -> tuple[dict, list[dict]]:
    """The `lemma7-check` result and assertions for all of G, by closing
    every element's subgroup with `lemma7_subgroup` instead of one per
    conjugacy class."""
    rows, assertions = [], []
    for g in G.elements():
        res = lemma7_subgroup(G, g)
        rows.append(
            {
                "element": G.render(g),
                "subgroup_order": res.order,
                "commutator_order": res.commutator_part.order,
                "order_formula": 2 * G.order * res.commutator_part.order,
            }
        )
        assertions.append({"name": f"formula-equals-closure[{G.render(g)}]", "status": "pass"})
    return {"group": G.name, "checked": len(rows), "subgroups": rows}, assertions


def levin_solve_by_scan(eq: PositiveEquation, G: Group, shift: int | None = None) -> Element | None:
    """The first element of G wr Z_n, n = eq.degree >= 2, in its own
    enumeration order (shift k, then f), that `evaluate` maps to the
    identity; only elements of shift `shift`, when given."""
    W = wreath_cyclic(G, eq.degree)
    for x in W.elements():
        if shift is not None and W.unpack(x.payload)[1] != shift:
            continue
        if evaluate(eq, W, W.diag_embed, x) == W.identity:
            return x
    return None
