"""Lower-bound machinery for dihedral subgroups with an adjoined square
root of a reflection: the conjugate-subgroup graph with its green/yellow/
red coloring, the individual lemma checks, and a full proof-replay trace.

Everything here recomputes its numbers from the groups it is handed. The
one input taken as given is a `DihedralShape`, which `dihedral_shape`
builds only after verifying the copy; the lemma checks take it in place of
a raw subgroup, so the copy is verified once per replay. Ambient groups are
passed as subgroups (`G.whole()` for a whole group), and every conjugation
goes through `core`: the conjugates are `core.conjugates_in`'s orbit.

A vertex of the conjugate graph is named by two of its members that no
other vertex holds together, so conjugation sends it to the one vertex
holding both images. The records here are `NamedTuple`s.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from . import perms
from .core import Element, Subgroup, conjugates_in, normalizer_in, subgroup_generated
from .errors import Falsification, PreconditionError
from .perms import is_prime

GREEN, YELLOW, RED = "green", "yellow", "red"


def odd_primes_below(limit: int) -> Iterator[int]:
    for n in range(3, limit):
        if n % 2 and is_prime(n):
            yield n


def minus_one_is_square_mod_p(p: int) -> bool:
    """Whether -1 is a quadratic residue mod p, by brute-force scan."""
    if p % 2 == 0 or not is_prime(p):
        raise PreconditionError(f"expected an odd prime, got {p}")
    return any(t * t % p == p - 1 for t in range(1, p))


# -- dihedral recognition ------------------------------------------------------


class DihedralShape(NamedTuple):
    """A verified copy of D_p: its rotation subgroup and reflection list."""

    subgroup: Subgroup
    p: int
    rotations: Subgroup
    reflections: tuple[Element, ...]

    @property
    def rotation(self) -> Element:
        """The first non-identity rotation in sorted order; with any
        reflection it generates the whole copy."""
        idp = self.subgroup.parent._id()
        return next(r for r in self.rotations if r.payload != idp)


def dihedral_shape(G: Subgroup) -> DihedralShape:
    """Check that a subgroup is dihedral of order 2p, p an odd prime, and
    split it into rotations and reflections.

    Only the element orders are checked, and they suffice once every
    element has order 1, 2 or p. A Sylow p-subgroup has index 2, so it is
    normal, the only one, and holds every element of order 1 or p: those
    are its p elements, the rotations, and the other p are the
    reflections. A reflection s, of order 2, conjugates a rotation r to r^k
    with k^2 = 1 mod p; k = 1 would give rs order 2p, so s inverts r."""
    parent = G.parent
    if G.order % 2 != 0:
        raise PreconditionError(f"order {G.order} is odd, not dihedral")
    p = G.order // 2
    if p < 3 or not is_prime(p):
        raise PreconditionError(f"order {G.order} is not twice an odd prime")
    rot = []
    refl = []
    for e in G:
        k = parent.element_order(e)
        if k in (1, p):
            rot.append(e.payload)
        elif k == 2:
            refl.append(e)
        else:
            raise PreconditionError(
                f"element {parent.render(e)} has order {k}, impossible in D_{p}"
            )
    rotations = Subgroup.of_payloads(parent, rot)
    return DihedralShape(subgroup=G, p=p, rotations=rotations, reflections=tuple(refl))


# -- individual lemma checks ---------------------------------------------------


class Lemma2Verdict(NamedTuple):
    universe: Subgroup  # <G, x>, closed over (r, x)
    normal: bool
    intersection_order: int
    intersection_is_root_pair: bool

    @property
    def holds(self) -> bool:
        return self.normal or self.intersection_is_root_pair


def lemma2_check(shape: DihedralShape, x: Element) -> Lemma2Verdict:
    """Dichotomy for a dihedral copy with an adjoined root: either G is
    normal in <G, x>, or G meets its x-conjugate exactly in <x^2>.

    x^2 must be a reflection, so the rotation r and x generate <G, x>;
    that closure is returned as the verdict's universe.
    """
    G = shape.subgroup
    parent = G.parent
    parent._check(x)
    g = x * x
    if g not in set(shape.reflections):
        raise PreconditionError(
            f"x^2 = {parent.render(g)} is not a reflection of the dihedral copy"
        )
    gens = (shape.rotation, x)
    universe = subgroup_generated(parent, gens)
    normal = parent.normality_witness(G, gens) is None
    inter = G.payload_set & parent._conjugate_set(G.payloads, x.payload)
    pair = frozenset((parent._id(), g.payload))
    verdict = Lemma2Verdict(
        universe=universe,
        normal=normal,
        intersection_order=len(inter),
        intersection_is_root_pair=inter == pair,
    )
    if not verdict.holds:
        raise Falsification(
            f"dichotomy violated: G not normal and |G ^ G^x| = {len(inter)}"
        )
    return verdict


def lemma3_check(universe: Subgroup, shape: DihedralShape) -> bool:
    """For a normal dihedral copy with p = 3 mod 4, confirm by exhaustive
    scan that no reflection is a square in the ambient group."""
    parent = universe.parent
    if shape.p % 4 != 3:
        raise PreconditionError(
            f"p = {shape.p} is not 3 mod 4; the no-square criterion does not apply"
        )
    if parent.normality_witness(shape.subgroup, universe.elements) is not None:
        raise PreconditionError("the dihedral copy must be normal in the ambient group")
    reflection_pays = {s.payload for s in shape.reflections}
    for y in universe.payloads:
        if parent._mul(y, y) in reflection_pays:
            raise Falsification(
                f"reflection square found: ({parent._render(y)})^2 is a reflection"
            )
    return True


# -- the conjugate graph -------------------------------------------------------


def _intersection_colors(vertices, p: int) -> dict[tuple[int, int], str | None]:
    """Each pair i < j of vertices colored by the size of its intersection:
    2 green, p yellow, 1 red, None for any other size."""
    by_size = {2: GREEN, p: YELLOW, 1: RED}
    return {
        (i, j): by_size.get(len(vertices[i].payload_set & vertices[j].payload_set))
        for i in range(len(vertices))
        for j in range(i + 1, len(vertices))
    }


class ConjugateGraph(NamedTuple):
    """Complete graph on the conjugates of a dihedral copy, edges colored
    by intersection size: 2 green, p yellow, 1 red. `holders` maps each
    member of a vertex to the vertices that hold it; `names[i]` is a pair
    of members of vertex i that no other vertex holds together."""

    ambient: Subgroup
    shape: DihedralShape
    base_index: int
    vertices: tuple[Subgroup, ...]
    colors: dict[tuple[int, int], str]
    holders: dict[object, frozenset[int]]
    names: tuple[tuple, ...]

    def color(self, i: int, j: int) -> str:
        if i == j:
            raise PreconditionError("no self-edges in the conjugate graph")
        return self.colors[(i, j) if i < j else (j, i)]

    def census(self) -> dict[str, int]:
        out = {GREEN: 0, YELLOW: 0, RED: 0}
        for c in self.colors.values():
            out[c] += 1
        return out

    def colors_match_intersections(self) -> bool:
        """Whether `colors` holds exactly the pairs i < j of vertices, each
        colored by the size of the pair's intersection."""
        return self.colors == _intersection_colors(self.vertices, self.shape.p)

    def green_degree(self, i: int) -> int:
        return sum(
            1 for j in range(len(self.vertices)) if j != i and self.color(i, j) == GREEN
        )

    def vertex_perm(self, y: Element) -> perms.Perm:
        """The permutation of vertex indices induced by conjugation by y:
        vertex i goes to the one vertex that holds both images of its
        naming pair."""
        parent = self.ambient.parent
        parent._check(y)
        if y.payload not in self.ambient.payload_set:
            raise PreconditionError("conjugator lies outside the ambient group")
        out, by_y, holders = [], parent._conjugator(y.payload), self.holders
        for i, (a, b) in enumerate(self.names):
            found = holders[by_y(a)] & holders[by_y(b)]
            if len(found) != 1:
                raise Falsification(
                    f"conjugation by {parent.render(y)} sends the naming pair of "
                    f"vertex {i} into {len(found)} vertices, not one"
                )
            out += found
        return tuple(out)

    def colors_preserved_by(self, conjugators) -> bool:
        """Whether conjugation by each given element maps every edge to an
        edge of the same color. Conjugation acts on the vertices as a
        homomorphism and color automorphisms compose, so a generating set
        of the ambient group decides the question for all of it."""
        K = len(self.vertices)
        for y in conjugators:
            pi = self.vertex_perm(y)
            for i in range(K):
                for j in range(i + 1, K):
                    if self.color(pi[i], pi[j]) != self.color(i, j):
                        return False
        return True


def build_conjugate_graph(
    universe: Subgroup, shape: DihedralShape, conjugators
) -> ConjugateGraph:
    """The conjugate graph of the dihedral copy; `conjugators`, which must
    generate the universe, is passed to `conjugates_in`."""
    G = shape.subgroup
    if not G.payload_set <= universe.payload_set:
        raise PreconditionError("the dihedral copy must lie inside the ambient group")
    p = shape.p
    vertices = sorted(conjugates_in(universe, G, conjugators), key=lambda s: s.key())
    colors = _intersection_colors(vertices, p)
    for (i, j), color in colors.items():
        if color is None:
            size = len(vertices[i].payload_set & vertices[j].payload_set)
            raise Falsification(
                f"unexpected intersection size {size} between conjugates "
                f"{i} and {j}; only 1, 2, {p} can occur off-diagonal"
            )
    holders: dict = {}
    for i, v in enumerate(vertices):
        for h in v.payloads:
            holders[h] = holders.get(h, frozenset()) | {i}
    return ConjugateGraph(
        ambient=universe,
        shape=shape,
        base_index=vertices.index(G),
        vertices=tuple(vertices),
        colors=colors,
        holders=holders,
        names=tuple(_naming_pair(v, i, holders) for i, v in enumerate(vertices)),
    )


def _naming_pair(vertex: Subgroup, i: int, holders) -> tuple:
    """Vertex i's least non-identity member a, and the least other member b
    such that vertex i is the only vertex holding both. A reflection b
    always qualifies: with a nontrivial rotation, or with a second
    reflection, it generates the whole copy, which no other conjugate is."""
    idp = vertex.parent._id()
    a = next(h for h in vertex.payloads if h != idp)
    for b in vertex.payloads:
        if b not in (idp, a) and holders[a] & holders[b] == {i}:
            return a, b
    raise Falsification(f"no two members of conjugate {i} name it alone")


class Lemma56Result(NamedTuple):
    red_edges_present: bool
    u: int | None = None
    v: int | None = None
    green_degree: int | None = None
    checks_run: tuple[str, ...] = ()


def lemma5_lemma6_checks(graph: ConjugateGraph) -> Lemma56Result:
    """Yellow components must be complete graphs of one common size, and
    green degrees positive multiples of p; gated on the absence of red
    edges, exactly like the case split it supports."""
    n = len(graph.vertices)
    p = graph.shape.p
    if any(c == RED for c in graph.colors.values()):
        return Lemma56Result(red_edges_present=True)
    checks = []

    # the yellow components are complete exactly when every vertex shares
    # its closed yellow neighbourhood N[i] with each of its yellow
    # neighbours; the components are then the distinct N[i]
    closed = [
        frozenset(j for j in range(n) if j == i or graph.color(i, j) == YELLOW)
        for i in range(n)
    ]
    for i, near in enumerate(closed):
        for j in near:
            if closed[j] != near:
                raise Falsification(
                    f"yellow component of {i} is not complete: its yellow "
                    f"neighbour {j} has closed yellow neighbourhood "
                    f"{sorted(closed[j])}, not {sorted(near)}"
                )
    checks.append("yellow-components-complete")
    components = set(closed)

    sizes = {len(comp) for comp in components}
    if len(sizes) != 1:
        raise Falsification(f"yellow components differ in size: {sorted(sizes)}")
    checks.append("yellow-components-equal-size")
    u = sizes.pop()
    v = len(components)

    degrees = {graph.green_degree(i) for i in range(n)}
    if len(degrees) != 1:
        raise Falsification(f"green degrees differ across vertices: {sorted(degrees)}")
    checks.append("green-degree-uniform")
    deg = degrees.pop()
    if deg > 0:
        if deg % p != 0:
            raise Falsification(
                f"green degree {deg} is not a positive multiple of p = {p}"
            )
        checks.append("green-degree-multiple-of-p")
        if deg != (v - 1) * u:
            raise Falsification(
                f"green degree {deg} != (v-1)*u = {(v - 1) * u}; graph is inconsistent"
            )
        checks.append("green-degree-matches-components")
        if deg == p:
            checks.append("p-equals-v1-times-u")

    return Lemma56Result(
        red_edges_present=False, u=u, v=v, green_degree=deg, checks_run=tuple(checks)
    )


class ParityRecord(NamedTuple):
    element_name: str
    vertex_perm: perms.Perm
    parity: int  # 0 even, 1 odd
    fixed_points: int

    @property
    def parity_name(self) -> str:
        return "odd" if self.parity else "even"

    def to_dict(self) -> dict:
        return {
            "element": self.element_name,
            "parity": self.parity_name,
            "fixed_points": self.fixed_points,
        }


def conjugation_parity(graph: ConjugateGraph, y: Element) -> ParityRecord:
    """Permutation of the graph's vertices induced by y, with its parity
    (from the cycle type) and fixed-point count."""
    pi = graph.vertex_perm(y)
    record = ParityRecord(
        element_name=graph.ambient.parent.render(y),
        vertex_perm=pi,
        parity=perms.parity(pi),
        fixed_points=sum(1 for i, img in enumerate(pi) if i == img),
    )
    n = len(graph.vertices)
    all_green = n >= 2 and all(c == GREEN for c in graph.colors.values())
    p = graph.shape.p
    if (
        all_green
        and n == p + 1
        and y in graph.shape.reflections
        and p % 4 == 3
    ):
        if record.fixed_points != 2 or record.parity != 1:
            raise Falsification(
                "complete-green configuration: reflection must fix exactly 2 "
                f"vertices and act oddly, got {record.fixed_points} fixed, "
                f"{record.parity_name}"
            )
    return record


# -- the full proof replay -----------------------------------------------------


class Theorem1Report(NamedTuple):
    ambient_order: int
    dihedral_order: int
    p: int
    case: str
    bound_lhs: int
    bound_rhs: int
    bound_ok: bool
    conjugate_count: int | None
    color_census: dict[str, int] | None
    u: int | None
    v: int | None
    green_degree: int | None
    normalizer_order: int | None
    lemma2_normal: bool
    lemma2_intersection_order: int
    parity_records: list[ParityRecord]
    closure_note: str | None
    assertions: list[dict]

    def bound_line(self) -> str:
        cmp = ">=" if self.bound_ok else "<"
        return f"{self.bound_lhs} {cmp} {self.bound_rhs}"

    def to_dict(self) -> dict:
        return {
            "ambient_order": self.ambient_order,
            "dihedral_order": self.dihedral_order,
            "p": self.p,
            "case": self.case,
            "bound": self.bound_line(),
            "bound_ok": self.bound_ok,
            "conjugate_count": self.conjugate_count,
            "color_census": self.color_census,
            "u": self.u,
            "v": self.v,
            "green_degree": self.green_degree,
            "normalizer_order": self.normalizer_order,
            "lemma2_normal": self.lemma2_normal,
            "lemma2_intersection_order": self.lemma2_intersection_order,
            "parities": [r.to_dict() for r in self.parity_records],
            "closure_note": self.closure_note,
        }


def theorem1_trace(ambient: Subgroup, G: Subgroup, x: Element) -> Theorem1Report:
    """Replay the whole lower-bound argument on a concrete ambient group.

    Every step is recomputed and asserted; a falsified step raises, since
    valid inputs can never produce one. The final claim is that the ambient
    order is at least (2p)^2.
    """
    parent = G.parent
    parent._check(x)
    shape = dihedral_shape(G)
    p = shape.p
    if p % 4 != 3:
        raise PreconditionError(f"p = {p} is not 3 mod 4; the bound does not apply")

    if not G.payload_set <= ambient.payload_set:
        raise PreconditionError("the dihedral copy must lie inside the ambient group")
    if x.payload not in ambient.payload_set:
        raise PreconditionError("x must lie inside the ambient group")
    verdict = lemma2_check(shape, x)
    universe = verdict.universe
    gens = (shape.rotation, x)  # lemma2_check closed <G, x> over these
    g = x * x
    closure_note = None
    if universe.payload_set != ambient.payload_set:
        closure_note = (
            f"ambient order {ambient.order}; trace runs on <G,x> "
            f"of order {universe.order}"
        )

    assertions: list[dict] = []

    def check(name: str, ok: bool, witness: str | None = None):
        entry = {"name": name, "status": "pass" if ok else "fail"}
        if witness is not None:
            entry["witness"] = witness
        assertions.append(entry)
        if not ok:
            raise Falsification(f"{name} failed" + (f": {witness}" if witness else ""))

    check("lemma2-dichotomy", verdict.holds)

    if verdict.normal:
        # x itself squares to a reflection, so the exhaustive no-square scan
        # must trip; reaching this branch at all means broken input data.
        lemma3_check(universe, shape)
        raise Falsification(
            "G is normal yet the no-square scan passed despite x^2 being a reflection"
        )

    graph = build_conjugate_graph(universe, shape, gens)
    K = len(graph.vertices)
    census = graph.census()

    check("color-census-symmetric", graph.colors_match_intersections())

    norm = normalizer_in(universe, G)
    check(
        "orbit-stabilizer-equality",
        universe.order == K * norm.order,
        f"|ambient| {universe.order} vs |K|*|normalizer| {K * norm.order}",
    )
    check("lemma4-bound", universe.order >= K * G.order)

    check("conjugation-preserves-colors", graph.colors_preserved_by(gens))

    parity_records = [conjugation_parity(graph, g), conjugation_parity(graph, x)]
    check(
        "square-acts-evenly",
        parity_records[0].parity == 0,
        f"conjugation by {parent.render(g)} has parity {parity_records[0].parity_name}",
    )

    u = v = deg = None
    if census[RED] > 0:
        case = "red-edge"
        # two conjugates meeting trivially force the product-set bound
        check("lemma1-red-edge-bound", universe.order >= G.order * G.order)
    else:
        l56 = lemma5_lemma6_checks(graph)
        u, v, deg = l56.u, l56.v, l56.green_degree
        for name in l56.checks_run:
            assertions.append({"name": name, "status": "pass"})
        check("green-edge-exists", deg is not None and deg > 0)
        if deg >= 2 * p:
            case = "large-K"
            check("large-K-count", K > 2 * p, f"|K| = {K}")
        elif deg == p and v == 2:
            case = "v2-up"
            check("v2-up-structure", u == p and K == 2 * p, f"u={u}, v={v}, |K|={K}")
        elif deg == p and v == p + 1:
            case = "vp1-u1"
            check(
                "excluded-configuration",
                False,
                "complete-green p+1 configuration reached although the square "
                "of x conjugates evenly",
            )
        else:
            case = "degenerate"
            check("green-degree-structure", False, f"degree {deg}, u={u}, v={v}")

    bound_rhs = 4 * p * p
    check("final-bound", universe.order >= bound_rhs, f"|ambient| = {universe.order}")

    return Theorem1Report(
        ambient_order=universe.order,
        dihedral_order=G.order,
        p=p,
        case=case,
        bound_lhs=universe.order,
        bound_rhs=bound_rhs,
        bound_ok=universe.order >= bound_rhs,
        conjugate_count=K,
        color_census=census,
        u=u,
        v=v,
        green_degree=deg,
        normalizer_order=norm.order,
        lemma2_normal=verdict.normal,
        lemma2_intersection_order=verdict.intersection_order,
        parity_records=parity_records,
        closure_note=closure_note,
        assertions=assertions,
    )
