"""Finite group engine with three interchangeable backends.

A Group exposes one contract (multiply, invert, identity, enumerate,
render/parse) over three element representations:

* dense-table: elements are indices into a flat Cayley table,
* perm-closure: elements are permutation image tuples,
* wreath-structured: elements are (base tuple, shift) pairs, no table
  is ever materialized (see constructions.WreathGroup).

Subgroups are explicit sorted element sets; at desk scale set semantics
beat generator-only laziness and keep fixtures stable.
"""

from __future__ import annotations

import os
import random
from array import array
from dataclasses import dataclass
from itertools import product as iproduct
from typing import Callable, Iterable, Iterator, Sequence

from . import perms
from .errors import CapExceeded, Falsification, ParseError, PreconditionError

DEFAULT_CAP = 10_000
TABLE_ORDER_LIMIT = 1 << 16  # dense table entries are stored as array("H")


def default_cap() -> int:
    """Closure cap, overridable through GROUPSMITH_CAP."""
    raw = os.environ.get("GROUPSMITH_CAP")
    if raw is None:
        return DEFAULT_CAP
    try:
        value = int(raw)
    except ValueError:
        raise PreconditionError(f"GROUPSMITH_CAP must be an integer, got {raw!r}") from None
    if value < 1:
        raise PreconditionError(f"GROUPSMITH_CAP must be positive, got {value}")
    return value


@dataclass(frozen=True)
class Exact:
    """A closure that finished: the order is known exactly."""

    count: int

    @property
    def is_exact(self) -> bool:
        return True


@dataclass(frozen=True)
class AtLeast:
    """A closure that hit its cap: only a lower bound is known."""

    bound: int

    @property
    def is_exact(self) -> bool:
        return False


class Element:
    """Opaque element of one particular Group.

    Elements of different groups never combine; payloads are only
    meaningful to the owning backend.
    """

    __slots__ = ("group", "payload")

    def __init__(self, group: "Group", payload):
        self.group = group
        self.payload = payload

    @property
    def key(self):
        return self.group._key(self.payload)

    def __mul__(self, other: "Element") -> "Element":
        return self.group.mul(self, other)

    def __pow__(self, k: int) -> "Element":
        return self.group.power(self, k)

    def inv(self) -> "Element":
        return self.group.inv(self)

    def order(self) -> int:
        return self.group.element_order(self)

    def conj(self, y: "Element") -> "Element":
        """y^-1 * self * y."""
        return self.group.conjugate(self, y)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Element)
            and other.group is self.group
            and other.payload == self.payload
        )

    def __hash__(self) -> int:
        return hash((id(self.group), self.payload))

    def __lt__(self, other: "Element") -> bool:
        if not isinstance(other, Element) or other.group is not self.group:
            raise PreconditionError("cannot order elements of different groups")
        return self.key < other.key

    def __repr__(self) -> str:
        return f"<{self.group.name}:{self.group.render(self)}>"


class Group:
    """Abstract finite group over backend-specific payloads."""

    backend = "abstract"

    def __init__(self, name: str):
        self.name = name
        self._identity_element: Element | None = None
        self._whole: "Subgroup | None" = None
        self._center: "Subgroup | None" = None

    # -- payload-level API implemented by each backend --

    @property
    def order(self) -> int:
        raise NotImplementedError

    def _mul(self, p, q):
        raise NotImplementedError

    def _inv(self, p):
        raise NotImplementedError

    def _id(self):
        raise NotImplementedError

    def _iter_payloads(self) -> Iterator:
        """Canonical enumeration; the identity comes first."""
        raise NotImplementedError

    def _key(self, p):
        raise NotImplementedError

    def _contains_payload(self, p) -> bool:
        raise NotImplementedError

    def _render(self, p) -> str:
        raise NotImplementedError

    def _parse(self, s: str):
        raise NotImplementedError

    def _generator_payloads(self) -> tuple:
        return ()

    def _generating_payloads(self) -> tuple:
        """The listed generators, or every element when the group lists none."""
        return self._generator_payloads() or tuple(self._iter_payloads())

    # -- uniform element-level API --

    def _check(self, a: Element) -> None:
        if not isinstance(a, Element) or a.group is not self:
            raise PreconditionError(
                f"operand {a!r} does not belong to group {self.name!r}"
            )

    def element(self, payload) -> Element:
        if not self._contains_payload(payload):
            raise PreconditionError(f"payload {payload!r} is not valid for {self.name!r}")
        return Element(self, payload)

    @property
    def identity(self) -> Element:
        if self._identity_element is None:
            self._identity_element = Element(self, self._id())
        return self._identity_element

    @property
    def generators(self) -> tuple[Element, ...]:
        return tuple(Element(self, p) for p in self._generator_payloads())

    def mul(self, a: Element, b: Element) -> Element:
        self._check(a)
        self._check(b)
        return Element(self, self._mul(a.payload, b.payload))

    def inv(self, a: Element) -> Element:
        self._check(a)
        return Element(self, self._inv(a.payload))

    def power(self, a: Element, k: int) -> Element:
        self._check(a)
        if k < 0:
            base = self._inv(a.payload)
            k = -k
        else:
            base = a.payload
        out = self._id()
        while k:
            if k & 1:
                out = self._mul(out, base)
            base = self._mul(base, base)
            k >>= 1
        return Element(self, out)

    def elements(self) -> Iterator[Element]:
        for p in self._iter_payloads():
            yield Element(self, p)

    def element_order(self, a: Element) -> int:
        self._check(a)
        idp = self._id()
        p = a.payload
        k = 1
        while p != idp:
            p = self._mul(p, a.payload)
            k += 1
            if k > self.order:
                raise Falsification(f"element order exceeded group order in {self.name}")
        return k

    def conjugate(self, a: Element, y: Element) -> Element:
        self._check(a)
        self._check(y)
        yp = y.payload
        return Element(self, self._mul(self._mul(self._inv(yp), a.payload), yp))

    def commutator(self, a: Element, b: Element) -> Element:
        self._check(a)
        self._check(b)
        pa, pb = a.payload, b.payload
        left = self._mul(self._inv(pa), self._inv(pb))
        return Element(self, self._mul(self._mul(left, pa), pb))

    def render(self, a: Element) -> str:
        self._check(a)
        return self._render(a.payload)

    def parse(self, s: str) -> Element:
        return Element(self, self._parse(s))

    def whole(self) -> "Subgroup":
        if self._whole is None:
            self._whole = Subgroup(self, list(self.elements()), _trusted=True)
        return self._whole

    def is_abelian(self) -> bool:
        gens = self._generating_payloads()
        for p in gens:
            for q in gens:
                if self._mul(p, q) != self._mul(q, p):
                    return False
        return True

    # -- structural queries --

    def center(self) -> "Subgroup":
        if self._center is None:
            gens = self._generating_payloads()
            members = [
                Element(self, p)
                for p in self._iter_payloads()
                if all(self._mul(p, g) == self._mul(g, p) for g in gens)
            ]
            self._center = Subgroup(self, members, _trusted=True)
        return self._center

    def conjugacy_classes(self) -> list[tuple[Element, ...]]:
        gen_pairs = [(g, self._inv(g)) for g in self._generating_payloads()]
        seen: set = set()
        classes = []
        for p in self._iter_payloads():
            if p in seen:
                continue
            orbit = {p}
            frontier = [p]
            while frontier:
                q = frontier.pop()
                for g, ginv in gen_pairs:
                    c = self._mul(self._mul(ginv, q), g)
                    if c not in orbit:
                        orbit.add(c)
                        frontier.append(c)
            seen |= orbit
            classes.append(tuple(sorted((Element(self, q) for q in orbit), key=lambda e: e.key)))
        return classes

    def normality_witness(self, H: "Subgroup", conjugators=None):
        """None if H is normal, else a violating (conjugator, member) pair.

        `conjugators` must generate the group H is asked to be normal in
        (default: this group's generating set); a finite H mapped into
        itself by each generator is normal. Members are scanned in
        canonical order, each against every conjugator in turn, so the
        witness is the first member that leaves H.
        """
        if H.parent is not self:
            raise PreconditionError("subgroup belongs to a different group")
        if conjugators is None:
            ys = self._generating_payloads()
        else:
            ys = [y.payload for y in conjugators]
        pairs = [(self._inv(y), y) for y in ys]
        for h in H.payloads:
            for yinv, y in pairs:
                if self._mul(self._mul(yinv, h), y) not in H.payload_set:
                    return Element(self, y), Element(self, h)
        return None

    def is_normal(self, H: "Subgroup") -> bool:
        return self.normality_witness(H) is None

    def conjugate_subgroup(self, H: "Subgroup", x: Element) -> "Subgroup":
        if H.parent is not self:
            raise PreconditionError("subgroup belongs to a different group")
        self._check(x)
        xp, xinv = x.payload, self._inv(x.payload)
        members = [
            Element(self, self._mul(self._mul(xinv, h), xp)) for h in H.payloads
        ]
        return Subgroup(self, members, _trusted=True)

    def quotient(self, N: "Subgroup") -> tuple["TableGroup", Callable[[Element], Element]]:
        """Cosets of a normal subgroup as a dense-table group, plus the
        projection map."""
        witness = self.normality_witness(N)
        if witness is not None:
            y, h = witness
            raise PreconditionError(
                f"subgroup is not normal in {self.name}: conjugating "
                f"{self.render(h)} by {self.render(y)} leaves it"
            )
        coset_index: dict = {}
        reps: list = []
        for p in self._iter_payloads():
            if p in coset_index:
                continue
            idx = len(reps)
            reps.append(p)
            for n_pay in N.payloads:
                coset_index[self._mul(n_pay, p)] = idx
        m = len(reps)
        table = [[coset_index[self._mul(reps[i], reps[j])] for j in range(m)] for i in range(m)]
        names = [f"[{self._render(p)}]" for p in reps]
        gen_images = []
        for g in self._generator_payloads():
            idx = coset_index[g]
            if idx not in gen_images and idx != coset_index[self._id()]:
                gen_images.append(idx)
        quot = TableGroup(
            table,
            namer=ListNamer(names),
            name=f"{self.name}/{N.describe()}",
            generator_indices=gen_images,
        )

        def project(a: Element) -> Element:
            self._check(a)
            return Element(quot, coset_index[a.payload])

        return quot, project

    def __repr__(self) -> str:
        return f"<Group {self.name} order {self.order} backend {self.backend}>"


class Subgroup:
    """Subgroup as a canonical sorted element set with its parent group."""

    __slots__ = ("parent", "elements", "_pset")

    def __init__(self, parent: Group, elements: Iterable[Element], *, _trusted: bool = False):
        elems = list(elements)
        if not elems:
            raise PreconditionError("a subgroup needs at least the identity")
        for e in elems:
            parent._check(e)
        uniq = {e.payload: e for e in elems}
        ordered = tuple(
            Element(parent, p) for p in sorted(uniq, key=parent._key)
        )
        self.parent = parent
        self.elements = ordered
        self._pset = frozenset(uniq)
        if not _trusted:
            self._validate()
        if parent.order % len(ordered) != 0:
            raise Falsification(
                f"subgroup size {len(ordered)} does not divide group order {parent.order}"
            )

    def _validate(self) -> None:
        if self.parent._id() not in self._pset:
            raise PreconditionError("subgroup must contain the identity")
        mul = self.parent._mul
        for p in self._pset:
            for q in self._pset:
                if mul(p, q) not in self._pset:
                    raise PreconditionError(
                        f"set is not closed: {self.parent._render(p)} * "
                        f"{self.parent._render(q)} falls outside"
                    )

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def payloads(self) -> tuple:
        return tuple(e.payload for e in self.elements)

    @property
    def payload_set(self) -> frozenset:
        return self._pset

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Element]:
        return iter(self.elements)

    def __contains__(self, e: Element) -> bool:
        return isinstance(e, Element) and e.group is self.parent and e.payload in self._pset

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subgroup)
            and other.parent is self.parent
            and other._pset == self._pset
        )

    def __hash__(self) -> int:
        return hash((id(self.parent), self._pset))

    def key(self) -> tuple:
        """Canonical sort key: (size, ordered element keys)."""
        return (len(self.elements), tuple(e.key for e in self.elements))

    def is_abelian(self) -> bool:
        mul = self.parent._mul
        pays = self.payloads
        for i, p in enumerate(pays):
            for q in pays[i + 1 :]:
                if mul(p, q) != mul(q, p):
                    return False
        return True

    def describe(self) -> str:
        shown = ",".join(self.parent._render(p) for p in self.payloads[:4])
        suffix = ",..." if len(self.elements) > 4 else ""
        return f"<{shown}{suffix}>"

    def __repr__(self) -> str:
        return f"<Subgroup of {self.parent.name} order {self.order}>"


# -- namers ---------------------------------------------------------------


class ListNamer:
    """Explicit name list; parsing is exact lookup."""

    def __init__(self, names: Sequence[str]):
        self.names = list(names)
        self._index = {n: i for i, n in enumerate(self.names)}

    def render(self, i: int) -> str:
        return self.names[i]

    def parse(self, s: str) -> int:
        key = s.strip()
        if key not in self._index:
            raise ParseError(s, "unknown element name")
        return self._index[key]


class IntegerNamer:
    """Cyclic group naming: the residue itself."""

    def __init__(self, n: int):
        self.n = n

    def render(self, i: int) -> str:
        return str(i)

    def parse(self, s: str) -> int:
        try:
            return int(s.strip()) % self.n
        except ValueError:
            raise ParseError(s, "expected an integer residue") from None


class PermTableNamer:
    """Cycle-notation names for a table group built from permutations."""

    def __init__(self, perm_list: Sequence[perms.Perm], degree: int, base: int = 1):
        self.perm_list = list(perm_list)
        self.degree = degree
        self.base = base
        self._index = {p: i for i, p in enumerate(self.perm_list)}

    def render(self, i: int) -> str:
        return perms.render_cycles(self.perm_list[i], base=self.base)

    def parse(self, s: str) -> int:
        p = perms.parse_cycles(s, self.degree, base=self.base)
        if p not in self._index:
            raise ParseError(s, "permutation is not an element of this group")
        return self._index[p]


class CycleNamer:
    """Cycle-notation names for a perm-closure group."""

    def __init__(self, degree: int, base: int = 1):
        self.degree = degree
        self.base = base

    def render(self, p: perms.Perm) -> str:
        return perms.render_cycles(p, base=self.base)

    def parse(self, s: str) -> perms.Perm:
        return perms.parse_cycles(s, self.degree, base=self.base)


# -- dense Cayley table backend -------------------------------------------


class TableGroup(Group):
    """Group given by a dense multiplication table on indices 0..n-1.

    Entries are stored 16-bit; the constructor refuses orders above
    TABLE_ORDER_LIMIT or the configured cap (quotients and products stay
    well below both).
    """

    backend = "dense-table"

    def __init__(
        self,
        table: Sequence[Sequence[int]],
        *,
        namer=None,
        name: str = "table-group",
        generator_indices: Sequence[int] = (),
        cap: int | None = None,
    ):
        super().__init__(name)
        n = len(table)
        if n > TABLE_ORDER_LIMIT:
            raise CapExceeded(
                f"table group order {n} exceeds the 16-bit table limit {TABLE_ORDER_LIMIT}", n
            )
        limit = cap if cap is not None else default_cap()
        if n > limit:
            raise CapExceeded(f"table group order {n} exceeds cap {limit}", n)
        if n == 0:
            raise PreconditionError("a group needs at least the identity")
        flat = array("H")
        for i, row in enumerate(table):
            if len(row) != n:
                raise PreconditionError(f"table row {i} has length {len(row)}, expected {n}")
            for v in row:
                if not 0 <= v < n:
                    raise PreconditionError(f"table entry {v} out of range 0..{n - 1}")
                flat.append(v)
        self._n = n
        self._table = flat
        identity = None
        for e in range(n):
            if all(flat[e * n + x] == x and flat[x * n + e] == x for x in range(n)):
                identity = e
                break
        if identity is None:
            raise PreconditionError("table has no two-sided identity")
        self._identity_index = identity
        inv = array("H", [0] * n)
        for a in range(n):
            hits = [b for b in range(n) if flat[a * n + b] == identity]
            if len(hits) != 1 or flat[hits[0] * n + a] != identity:
                raise PreconditionError(f"element {a} lacks a unique two-sided inverse")
            inv[a] = hits[0]
        self._invtab = inv
        self._namer = namer if namer is not None else ListNamer([str(i) for i in range(n)])
        self._gen_indices = tuple(generator_indices)

    @property
    def order(self) -> int:
        return self._n

    def _mul(self, p: int, q: int) -> int:
        return self._table[p * self._n + q]

    def _inv(self, p: int) -> int:
        return self._invtab[p]

    def _id(self) -> int:
        return self._identity_index

    def _iter_payloads(self) -> Iterator[int]:
        return iter(range(self._n))

    def _key(self, p: int) -> int:
        return p

    def _contains_payload(self, p) -> bool:
        return isinstance(p, int) and 0 <= p < self._n

    def _render(self, p: int) -> str:
        return self._namer.render(p)

    def _parse(self, s: str) -> int:
        return self._namer.parse(s)

    def _generator_payloads(self) -> tuple:
        return self._gen_indices


# -- permutation closure backend -------------------------------------------


class PermGroup(Group):
    """Group of permutations closed under composition, computed eagerly."""

    backend = "perm-closure"

    def __init__(
        self,
        degree: int,
        generator_perms: Sequence[perms.Perm],
        *,
        namer=None,
        name: str = "perm-group",
        cap: int | None = None,
    ):
        super().__init__(name)
        if degree < 0:
            raise PreconditionError("degree must be nonnegative")
        for g in generator_perms:
            if len(g) != degree or not perms.is_perm(g):
                raise PreconditionError(f"{g!r} is not a permutation of degree {degree}")
        self.degree = degree
        limit = cap if cap is not None else default_cap()
        ordered, complete = closure_payloads(
            perms.identity_perm(degree),
            sorted(set(generator_perms)),
            perms.compose,
            abort_at=limit + 1,
        )
        if not complete:
            raise CapExceeded(
                f"closure of {name} is too large (cap {limit})", len(ordered)
            )
        self._sorted_payloads = tuple(sorted(ordered))
        self._pset = frozenset(ordered)
        self._gens = tuple(sorted(set(generator_perms)))
        self._namer = namer if namer is not None else CycleNamer(degree, base=1)

    @property
    def order(self) -> int:
        return len(self._sorted_payloads)

    def _mul(self, p, q):
        return perms.compose(p, q)

    def _inv(self, p):
        return perms.invert(p)

    def _id(self):
        return perms.identity_perm(self.degree)

    def _iter_payloads(self) -> Iterator[perms.Perm]:
        return iter(self._sorted_payloads)

    def _key(self, p):
        return p

    def _contains_payload(self, p) -> bool:
        return p in self._pset

    def _render(self, p) -> str:
        return self._namer.render(p)

    def _parse(self, s: str):
        p = self._namer.parse(s)
        if p not in self._pset:
            raise ParseError(s, f"not an element of {self.name}")
        return p

    def _generator_payloads(self) -> tuple:
        return self._gens


# -- closure machinery ------------------------------------------------------


def closure_payloads(
    identity_payload,
    generator_payloads: Sequence,
    mul: Callable,
    *,
    abort_at: int | None = None,
    key: Callable | None = None,
) -> tuple[list, bool]:
    """Breadth-first product closure from the identity.

    Returns (ordered list, completed). Discovery is level by level with new
    elements of each level sorted (by `key`, default natural order), which
    pins a deterministic numbering. When `abort_at` is given the walk stops
    as soon as the partial set reaches that size, returning completed=False.
    """
    sort_key = key if key is not None else (lambda p: p)
    seen = {identity_payload}
    ordered = [identity_payload]
    frontier = [identity_payload]
    gens = list(generator_payloads)
    if abort_at is not None and len(seen) >= abort_at:
        return ordered, False
    while frontier:
        level = set()
        for p in frontier:
            for g in gens:
                q = mul(p, g)
                if q not in seen and q not in level:
                    level.add(q)
        if not level:
            break
        new = sorted(level, key=sort_key)
        for q in new:
            seen.add(q)
            ordered.append(q)
            if abort_at is not None and len(seen) >= abort_at:
                return ordered, False
        frontier = new
    return ordered, True


def table_from_generators(
    generator_perms: Iterable[perms.Perm],
    *,
    cap: int | None = None,
    name: str | None = None,
    cycle_base: int = 1,
) -> TableGroup:
    """Dense-table group on the closure of a set of permutations.

    Numbering is breadth-first from the identity with lexicographic
    tie-breaks on the image tuples, so fixtures are reproducible.
    """
    gens = sorted(set(generator_perms))
    degrees = {len(g) for g in gens}
    if len(degrees) > 1:
        raise PreconditionError(f"generators mix degrees {sorted(degrees)}")
    degree = degrees.pop() if degrees else 0
    for g in gens:
        if not perms.is_perm(g):
            raise PreconditionError(f"{g!r} is not a permutation")
    limit = cap if cap is not None else default_cap()
    ordered, complete = closure_payloads(
        perms.identity_perm(degree), gens, perms.compose, abort_at=limit + 1
    )
    if not complete:
        raise CapExceeded(f"closure too large (cap {limit})", len(ordered))
    index = {p: i for i, p in enumerate(ordered)}
    n = len(ordered)
    table = [[index[perms.compose(ordered[i], ordered[j])] for j in range(n)] for i in range(n)]
    return TableGroup(
        table,
        namer=PermTableNamer(ordered, degree, base=cycle_base),
        name=name if name is not None else f"closure-{n}",
        generator_indices=[index[g] for g in gens],
        cap=limit,
    )


def subgroup_generated(G: Group, S: Iterable[Element], cap: int | None = None):
    """Least subgroup of G containing S.

    With a cap, a closure that outgrows it yields an AtLeast marker
    instead of a Subgroup.
    """
    gens = []
    for e in S:
        G._check(e)
        gens.append(e.payload)
    gens = sorted(set(gens), key=G._key)
    ordered, complete = closure_payloads(
        G._id(), gens, G._mul, abort_at=None if cap is None else cap + 1, key=G._key
    )
    if not complete:
        return AtLeast(cap)
    return Subgroup(G, [Element(G, p) for p in ordered], _trusted=True)


def normal_closure(G: Group, g: Element) -> Subgroup:
    """Least normal subgroup of G containing g."""
    G._check(g)
    conjugates = set()
    gp = g.payload
    for y in G._iter_payloads():
        conjugates.add(G._mul(G._mul(G._inv(y), gp), y))
    result = subgroup_generated(G, [Element(G, p) for p in conjugates])
    assert isinstance(result, Subgroup)
    return result


def normalizer_in(universe: Subgroup, H: Subgroup) -> Subgroup:
    """Elements of `universe` that conjugate H onto itself, by exhaustive
    scan, so that it can cross-check orbits built from generators."""
    parent = universe.parent
    if H.parent is not parent:
        raise PreconditionError("subgroups live in different parent groups")
    members = []
    for y in universe.payloads:
        yinv = parent._inv(y)
        if all(
            parent._mul(parent._mul(yinv, h), y) in H.payload_set for h in H.payloads
        ):
            members.append(Element(parent, y))
    return Subgroup(parent, members, _trusted=True)


def mutual_commutator(G: Group, A: Subgroup, B: Subgroup) -> Subgroup:
    """Subgroup generated by all commutators [a, b], a in A, b in B."""
    if A.parent is not G or B.parent is not G:
        raise PreconditionError("subgroups belong to a different group")
    gens = set()
    for a in A.payloads:
        a_inv = G._inv(a)
        for b in B.payloads:
            gens.add(G._mul(G._mul(G._mul(a_inv, G._inv(b)), a), b))
    result = subgroup_generated(G, [Element(G, p) for p in gens])
    assert isinstance(result, Subgroup)
    return result


# -- odd abelian normal subgroups ------------------------------------------


def odd_abelian_normal_candidates(G: Group) -> list[Subgroup]:
    """Nontrivial abelian normal subgroups of odd order, found as normal
    closures of odd-order elements: the central ones first, then the rest,
    each part sorted by (size, canonical set)."""
    found: dict = {}
    for g in G.elements():
        if g.payload == G._id():
            continue
        if G.element_order(g) % 2 == 0:
            continue
        N = normal_closure(G, g)
        if N.order > 1 and N.order % 2 == 1 and N.is_abelian():
            found[N.payload_set] = N
    centre = G.center().payload_set
    return sorted(found.values(), key=lambda s: (not s.payload_set <= centre, s.key()))


# -- axiom verification ------------------------------------------------------


@dataclass
class AxiomReport:
    group_name: str
    order: int
    identity_ok: bool
    inverses_ok: bool
    latin_ok: bool
    assoc_ok: bool
    assoc_mode: str
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.identity_ok and self.inverses_ok and self.latin_ok and self.assoc_ok


def verify_group_axioms(
    G: Group,
    *,
    assoc_exhaustive_limit: int = 200,
    assoc_samples: int = 10_000,
    seed: int = 0,
) -> AxiomReport:
    """Check the group axioms on every element.

    Associativity is exhaustive up to `assoc_exhaustive_limit` elements and
    sampled on `assoc_samples` random triples above it; everything else is
    always exhaustive.
    """
    pays = list(G._iter_payloads())
    n = len(pays)
    mul = G._mul
    idp = G._id()
    detail = ""

    identity_ok = all(mul(idp, p) == p and mul(p, idp) == p for p in pays)

    inverses_ok = True
    for p in pays:
        q = G._inv(p)
        if mul(p, q) != idp or mul(q, p) != idp:
            inverses_ok = False
            detail = f"inverse failed for {G._render(p)}"
            break

    full = set(pays)
    latin_ok = True
    for p in pays:
        if {mul(p, q) for q in pays} != full or {mul(q, p) for q in pays} != full:
            latin_ok = False
            detail = f"translation by {G._render(p)} is not a bijection"
            break

    assoc_ok = True
    if n <= assoc_exhaustive_limit:
        assoc_mode = "exhaustive"
        for a in pays:
            for b in pays:
                ab = mul(a, b)
                for c in pays:
                    if mul(ab, c) != mul(a, mul(b, c)):
                        assoc_ok = False
                        detail = "associativity failed"
                        break
                if not assoc_ok:
                    break
            if not assoc_ok:
                break
    else:
        assoc_mode = f"sampled-{assoc_samples}"
        rng = random.Random(seed)
        for _ in range(assoc_samples):
            a = pays[rng.randrange(n)]
            b = pays[rng.randrange(n)]
            c = pays[rng.randrange(n)]
            if mul(mul(a, b), c) != mul(a, mul(b, c)):
                assoc_ok = False
                detail = "associativity failed on sampled triple"
                break

    return AxiomReport(
        group_name=G.name,
        order=n,
        identity_ok=identity_ok,
        inverses_ok=inverses_ok,
        latin_ok=latin_ok,
        assoc_ok=assoc_ok,
        assoc_mode=assoc_mode,
        detail=detail,
    )


def direct_product(A: Group, B: Group, *, name: str | None = None, cap: int | None = None) -> TableGroup:
    """Direct product as a dense-table group with "(a|b)" element names."""
    limit = cap if cap is not None else default_cap()
    if A.order * B.order > limit:
        raise CapExceeded(
            f"product order {A.order * B.order} exceeds cap {limit}", A.order * B.order
        )
    a_pays = list(A._iter_payloads())
    b_pays = list(B._iter_payloads())
    nb = len(b_pays)
    index = {(pa, pb): i * nb + j for i, pa in enumerate(a_pays) for j, pb in enumerate(b_pays)}
    names = [
        f"({A._render(pa)}|{B._render(pb)})" for pa in a_pays for pb in b_pays
    ]
    n = len(names)
    table = []
    for pa, pb in iproduct(a_pays, b_pays):
        row = [
            index[(A._mul(pa, qa), B._mul(pb, qb))]
            for qa, qb in iproduct(a_pays, b_pays)
        ]
        table.append(row)
    gen_indices = []
    for g in A._generator_payloads():
        gen_indices.append(index[(g, B._id())])
    for g in B._generator_payloads():
        gen_indices.append(index[(A._id(), g)])

    class _PairNamer:
        def __init__(self):
            self.names = names
            self._lookup = {nm: i for i, nm in enumerate(names)}

        def render(self, i: int) -> str:
            return self.names[i]

        def parse(self, s: str) -> int:
            text = s.strip()
            if not (text.startswith("(") and text.endswith(")")):
                raise ParseError(s, "product elements look like (a|b)")
            body = text[1:-1]
            depth = 0
            split_at = -1
            for i, ch in enumerate(body):
                if ch in "([":
                    depth += 1
                elif ch in ")]":
                    depth -= 1
                elif ch == "|" and depth == 0:
                    split_at = i
                    break
            if split_at < 0:
                raise ParseError(s, "missing top-level '|'")
            pa = A._parse(body[:split_at])
            pb = B._parse(body[split_at + 1 :])
            return index[(pa, pb)]

    return TableGroup(
        table,
        namer=_PairNamer(),
        name=name if name is not None else f"{A.name}x{B.name}",
        generator_indices=gen_indices,
        cap=limit,
    )
