"""Finite group engine with three interchangeable backends, and a dense
table that checks the group laws.

A Group exposes one contract (multiply, invert, identity, enumerate,
render/parse) over three element representations:

* perm-closure: elements are permutation image tuples; every named group
  is one, and a direct product acts on the disjoint union of its factors'
  points,
* coset: elements are the indices of a quotient's cosets, multiplied
  through their representatives in the parent group (see Group.quotient),
* wreath-structured: an element (base tuple, shift) is one permutation of
  the arity times the base's points, and no table is ever materialized
  (see constructions.WreathGroup).

Both permutation backends render each element, and parse each input
string, once per group.

A `TableGroup` lists a group's elements and fills one flat 16-bit Cayley
table, refused before its first row is filled; `verify_group_axioms`
builds one to check the laws of any group.

Subgroups are explicit sorted payload tuples; at desk scale set semantics
beat generator-only laziness and keep fixtures stable. An `Element` is a
view, built when a caller reads one; no group holds its own.

Every conjugation goes through one kernel per backend, `Group._conjugator`
(`_conjugate_set` maps a set through one); right multiplication by a fixed
payload, `Group._times`, is one too. Both permutation backends take these
kernels (`perms.conjugator`, an `itemgetter`), the inverse, the degree and
the identity, built once, from one base, `_PermPayloadGroup`; elsewhere
they are two products of `_mul`. Every orbit (the class of an element,
the conjugates of a subgroup) is the breadth-first walk of
`closure_payloads` under a generating set. A walk lists its points in
discovery order; only what is reported is sorted. Records, such as
`AxiomReport`, are `NamedTuple`s.
"""

from __future__ import annotations

import os
from array import array
from functools import cached_property
from itertools import repeat
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence
from weakref import WeakValueDictionary

from . import perms
from .errors import CapExceeded, Falsification, ParseError, PreconditionError

# The limits on building groups, for every backend. A permutation closure
# stops as it outgrows the closure cap or the entry budget, at about 8 B per
# entry (one pointer each); a quotient above the cap is refused before its
# cosets are listed, and a dense table, at 2 B per entry, before its first
# row is filled (the entry budget, then the cap). `cyclic_group` and
# `direct_product` refuse their orders as a table of that order is refused.
# A wreath listing is refused by its own order cap and the entry budget, and
# a wreath product by the order cap where arity^2 * |base| passes it.
DEFAULT_CAP = 10_000
# n*n entries, 32 MB as array("H"); n <= 4096 also keeps each entry in 16 bits
TABLE_ENTRY_BUDGET = 1 << 24
WREATH_ORDER_CAP = 10_000_000


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


def check_table_order(n: int) -> None:
    """Refuse a dense table of order n before its first row is filled:
    with more than the entry budget of n*n entries, then above the closure
    cap."""
    if n * n > TABLE_ENTRY_BUDGET:
        raise CapExceeded(
            f"table group order {n} needs {n * n} entries, "
            f"above the table entry budget {TABLE_ENTRY_BUDGET}",
            n,
        )
    limit = default_cap()
    if n > limit:
        raise CapExceeded(f"table group order {n} exceeds cap {limit}", n)


class Element:
    """Opaque element of one particular Group.

    Elements of different groups never combine; payloads are only
    meaningful to the owning backend.
    """

    __slots__ = ("group", "payload")

    def __init__(self, group: "Group", payload):
        self.group = group
        self.payload = payload

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
        return self.payload < other.payload

    def __repr__(self) -> str:
        return f"<{self.group.name}:{self.group.render(self)}>"


class Group:
    """Abstract finite group over backend-specific payloads."""

    backend = "abstract"

    def __init__(self, name: str):
        self.name = name

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

    def _contains_payload(self, p) -> bool:
        raise NotImplementedError

    def _render(self, p) -> str:
        raise NotImplementedError

    def _parse(self, s: str):
        raise NotImplementedError

    def _generator_payloads(self) -> tuple:
        """A generating set; empty only for the trivial group."""
        raise NotImplementedError

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
        return Element(self, self._id())

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
        return Element(self, self._conjugator(y.payload)(a.payload))

    def render(self, a: Element) -> str:
        self._check(a)
        return self._render(a.payload)

    def parse(self, s: str) -> Element:
        return Element(self, self._parse(s))

    def whole(self) -> "Subgroup":
        return Subgroup.of_payloads(self, self._iter_payloads())

    def is_abelian(self) -> bool:
        gens = self._generator_payloads()
        for p in gens:
            for q in gens:
                if self._mul(p, q) != self._mul(q, p):
                    return False
        return True

    # -- structural queries --

    def center(self) -> "Subgroup":
        gens, mul = self._generator_payloads(), self._mul
        return Subgroup.of_payloads(
            self, (p for p in self._iter_payloads() if all(mul(p, g) == mul(g, p) for g in gens))
        )

    def _class_walk(self, p) -> dict:
        """The conjugacy class of payload p, walked breadth first under
        conjugation q -> a^-1 q a by each generating payload a; the inverse
        of a generator is one of its powers, so the walk reaches the whole
        class. Maps each member q, in discovery order, to a conjugator h
        with q = h^-1 p h: p to the identity, and a member first reached
        from q by a to q's conjugator times a."""
        mul, found = self._mul, {p: self._id()}

        def walk(q, move):
            a, by_a = move
            r = by_a(q)
            if r not in found:
                found[r] = mul(found[q], a)
            return r

        closure_payloads(p, [(a, self._conjugator(a)) for a in self._generator_payloads()], walk)
        return found

    def _times(self, q) -> Callable:
        """p -> p*q, for a payload q."""
        return lambda p: self._mul(p, q)

    def _conjugator(self, y) -> Callable:
        """h -> y^-1 h y, for a payload y: two products, y inverted once."""
        return lambda h, mul=self._mul, yinv=self._inv(y): mul(mul(yinv, h), y)

    def _conjugate_set(self, payloads, y) -> frozenset:
        """{y^-1 h y : h in payloads}, for a payload y."""
        return frozenset(map(self._conjugator(y), payloads))

    def conjugacy_classes(self) -> list[tuple[Element, ...]]:
        """The classes in order of their first listed member, each sorted."""
        seen: set = set()
        classes = []
        for p in self._iter_payloads():
            if p not in seen:
                orbit = self._class_walk(p)
                seen.update(orbit)
                classes.append(tuple(Element(self, q) for q in sorted(orbit)))
        return classes

    def normality_witness(self, H: "Subgroup", conjugators=None):
        """None if H is normal, else a violating (conjugator, member) pair.

        `conjugators` must generate the group H is asked to be normal in
        (default: this group's generating set); a finite H mapped into
        itself by each generator is normal. Members are scanned in
        sorted order, each against every conjugator in turn, so the
        witness is the first member that leaves H.
        """
        if H.parent is not self:
            raise PreconditionError("subgroup belongs to a different group")
        ys = self._generator_payloads() if conjugators is None else [y.payload for y in conjugators]
        pairs = [(y, self._conjugator(y)) for y in ys]
        for h in H.payloads:
            for y, by_y in pairs:
                if by_y(h) not in H.payload_set:
                    return Element(self, y), Element(self, h)
        return None

    def is_normal(self, H: "Subgroup") -> bool:
        return self.normality_witness(H) is None

    def quotient(self, N: "Subgroup") -> tuple["CosetGroup", Callable[[Element], Element]]:
        """Cosets of a normal subgroup as a `CosetGroup`, plus the
        projection map.

        N must be normal, and G/N within the closure cap, before any coset
        is listed; cosets are numbered by their first listed members, N
        first, and must hold |G| elements together. The right action of
        each generator's coset must reach every coset. No product is
        tabulated or tested: as N is normal, n*x * n'*y = n*(x*n'*x^-1) *
        x*y lies in N*x*y, so the coset of a product does not depend on the
        representatives, and the cosets inherit associativity, the identity
        N and the inverses N*x^-1 from G.
        """
        witness = self.normality_witness(N)
        if witness is not None:
            y, h = witness
            raise PreconditionError(
                f"subgroup is not normal in {self.name}: conjugating "
                f"{self.render(h)} by {self.render(y)} leaves it"
            )
        m, limit = self.order // N.order, default_cap()
        if m > limit:
            raise CapExceeded(f"quotient order {m} exceeds cap {limit}", m)
        coset_index: dict = {}
        reps: list = []
        for p in self._iter_payloads():
            if p in coset_index:
                continue
            idx = len(reps)
            reps.append(p)
            for n_pay in N.payloads:
                coset_index[self._mul(n_pay, p)] = idx
        if len(coset_index) != self.order:
            raise Falsification(f"the cosets of N in {self.name} hold {len(coset_index)} elements")
        mul = self._mul
        actions: dict = {}  # the coset of g -> its right action c -> coset of reps[c] * g
        for g in self._generator_payloads():
            idx = coset_index[g]
            if idx and idx not in actions:
                actions[idx] = [coset_index[mul(r, g)] for r in reps]
        reached, _ = closure_payloads(0, actions.values(), lambda c, act: act[c])
        if len(reached) != m:
            raise Falsification(
                f"the generators of {self.name} reach {len(reached)} of the {m} cosets"
            )
        quot = CosetGroup(
            self, coset_index, reps,
            name=f"{self.name}/{N.describe()}",
            generators=tuple(actions),
        )

        def project(a: Element) -> Element:
            self._check(a)
            return Element(quot, coset_index[a.payload])

        return quot, project

    def __repr__(self) -> str:
        return f"<Group {self.name} order {self.order} backend {self.backend}>"


class Subgroup:
    """Subgroup of `parent` as its payloads, sorted, and their set; its
    `Element`s are built only when they are read."""

    __slots__ = ("parent", "payloads", "payload_set")

    def __init__(self, parent: Group, elements: Iterable[Element]):
        """The checked constructor: the elements must hold the identity and
        be closed under the product."""
        pays = []
        for e in elements:
            parent._check(e)
            pays.append(e.payload)
        pset = frozenset(pays)
        if parent._id() not in pset:
            raise PreconditionError("subgroup must contain the identity")
        mul = parent._mul
        for p in pset:
            for q in pset:
                if mul(p, q) not in pset:
                    raise PreconditionError(
                        f"set is not closed: {parent._render(p)} * "
                        f"{parent._render(q)} falls outside"
                    )
        self._fill(parent, pset)

    @classmethod
    def of_payloads(cls, parent: Group, payloads: Iterable) -> "Subgroup":
        """The unchecked constructor, for payloads that form a subgroup by
        construction; only their number must divide the group order."""
        H = cls.__new__(cls)
        H._fill(parent, frozenset(payloads))
        return H

    def _fill(self, parent: Group, pset: frozenset) -> None:
        if not pset or parent.order % len(pset):
            raise Falsification(
                f"subgroup size {len(pset)} does not divide group order {parent.order}"
            )
        self.parent = parent
        self.payloads = tuple(sorted(pset))
        self.payload_set = pset

    @property
    def order(self) -> int:
        return len(self.payloads)

    @property
    def elements(self) -> tuple[Element, ...]:
        return tuple(self)

    def __len__(self) -> int:
        return len(self.payloads)

    def __iter__(self) -> Iterator[Element]:
        return (Element(self.parent, p) for p in self.payloads)

    def __contains__(self, e: Element) -> bool:
        return isinstance(e, Element) and e.group is self.parent and e.payload in self.payload_set

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subgroup)
            and other.parent is self.parent
            and other.payload_set == self.payload_set
        )

    def __hash__(self) -> int:
        return hash((id(self.parent), self.payload_set))

    def key(self) -> tuple:
        """Canonical sort key: (size, sorted payloads)."""
        return (len(self.payloads), self.payloads)

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
        suffix = ",..." if len(self.payloads) > 4 else ""
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


class CycleNamer:
    """Cycle-notation names for a perm-closure group."""

    def __init__(self, degree: int):
        self.degree = degree

    def render(self, p: perms.Perm) -> str:
        return perms.render_cycles(p, base=1)

    def parse(self, s: str) -> perms.Perm:
        return perms.parse_cycles(s, self.degree, base=1)


class PairNamer:
    """"(a|b)" names for the payloads of a direct product A x B: a's images
    on A's d points, then b's shifted past them."""

    def __init__(self, A: "PermGroup", B: "PermGroup"):
        self.A, self.B, self.d = A, B, A.degree

    def render(self, p) -> str:
        d = self.d
        return f"({self.A._render(p[:d])}|{self.B._render(tuple([x - d for x in p[d:]]))})"

    def parse(self, s: str) -> tuple:
        text = s.strip()
        if not (text.startswith("(") and text.endswith(")")):
            raise ParseError(s, "product elements look like (a|b)")
        head, *tail = _split_top(text[1:-1], "|")
        if not tail:
            raise ParseError(s, "missing top-level '|'")
        d = self.d
        return self.A._parse(head) + tuple([d + x for x in self.B._parse("|".join(tail))])


# -- index backends: dense Cayley tables and cosets -----------------------


class _IndexedGroup(Group):
    """Payloads are the indices 0..n-1 (n in `_n`), the identity is 0 and
    the listed generators are in `_gens`."""

    @property
    def order(self) -> int:
        return self._n

    def _id(self) -> int:
        return 0

    def _iter_payloads(self) -> Iterator[int]:
        return iter(range(self._n))

    def _contains_payload(self, p) -> bool:
        return type(p) is int and 0 <= p < self._n

    def _generator_payloads(self) -> tuple:
        return self._gens


class TableGroup(_IndexedGroup):
    """Group on a list of elements, stored as a dense Cayley table.

    `elements` lists every element once, the identity first; a payload is
    an element's index in that list, so the identity is 0. `mul` is the
    product of two listed elements and `namer` renders and parses listed
    elements; `generators` are listed elements too, and without them every
    element but the identity is a generator. `check_table_order`
    refuses the order before any element is read. The table is one flat
    array("H") filled row by row with the indices of the products. Listed
    generators must reach every element and the product must pass Light's
    associativity test, since generator-based queries rely on both.
    """

    backend = "dense-table"

    def __init__(
        self,
        elements: Sequence,
        mul: Callable,
        namer,
        *,
        name: str,
        generators: Iterable = (),
    ):
        super().__init__(name)
        n = len(elements)
        check_table_order(n)
        if n == 0:
            raise PreconditionError("a group needs at least the identity")
        elements = tuple(elements)
        index = {e: i for i, e in enumerate(elements)}
        if len(index) != n:
            twice = next(e for i, e in enumerate(elements) if index[e] != i)
            raise PreconditionError(f"{twice!r} is listed twice in {name}")
        flat = array("H")
        try:
            for a in elements:
                flat.extend(map(index.__getitem__, map(mul, repeat(a), elements)))
            gens = tuple(index[g] for g in generators) or tuple(range(1, n))
        except KeyError as exc:
            raise PreconditionError(f"{exc.args[0]!r} is not an element of {name}") from None
        identity_row = array("H", range(n))
        if flat[:n] != identity_row or flat[::n] != identity_row:
            raise PreconditionError(f"{elements[0]!r} is not a two-sided identity of {name}")
        inverses = array("H")
        for a in range(n):
            row = flat[a * n : (a + 1) * n]
            b = row.index(0) if row.count(0) == 1 else None
            if b is None or flat[b * n + a] != 0:
                raise PreconditionError(
                    f"{elements[a]!r} lacks a unique two-sided inverse in {name}"
                )
            inverses.append(b)
        # Light's test: when the generators reach every element, the product
        # is associative exactly when row[x*g] = row[x] o row[g] for every x
        # and generator g
        reached, _ = closure_payloads(0, gens, lambda x, g: flat[x * n + g])
        if len(reached) != n:
            raise PreconditionError(
                f"the generators of {name} reach {len(reached)} of its {n} elements"
            )
        # the identity passes by its checks above; any other row has the two
        # or more entries that make itemgetter return a tuple
        for g in set(gens) - {0}:
            times_g = itemgetter(*flat[g * n : (g + 1) * n])
            for x in range(n):
                xg = flat[x * n + g]
                if array("H", times_g(flat[x * n : (x + 1) * n])) != flat[xg * n : (xg + 1) * n]:
                    raise PreconditionError(f"the product of {name} is not associative")
        self._n = n
        self._table = flat
        self._invtab = inverses
        self._elements = elements
        self._index = index
        self._namer = namer
        self._gens = gens

    def _mul(self, p: int, q: int) -> int:
        return self._table[p * self._n + q]

    def _inv(self, p: int) -> int:
        return self._invtab[p]

    def _render(self, p: int) -> str:
        return self._namer.render(self._elements[p])

    def _parse(self, s: str) -> int:
        e = self._namer.parse(s)
        if e not in self._index:
            raise ParseError(s, f"not an element of {self.name}")
        return self._index[e]


class CosetGroup(_IndexedGroup):
    """The cosets of a normal subgroup of `parent`, numbered, named and
    checked by `Group.quotient`. A product or inverse is taken on the
    representatives `reps` in the parent and mapped back by `coset_index`,
    so no table is stored; the names are rendered when first needed."""

    backend = "coset"

    def __init__(self, parent: Group, coset_index: dict, reps: list, *, name: str, generators):
        super().__init__(name)
        self._parent, self._coset_index, self._reps = parent, coset_index, reps
        self._n, self._gens = len(reps), generators

    @cached_property
    def _namer(self) -> ListNamer:
        return ListNamer([f"[{self._parent._render(p)}]" for p in self._reps])

    def _mul(self, p: int, q: int) -> int:
        return self._coset_index[self._parent._mul(self._reps[p], self._reps[q])]

    def _inv(self, p: int) -> int:
        return self._coset_index[self._parent._inv(self._reps[p])]

    def _render(self, p: int) -> str:
        return self._namer.render(p)

    def _parse(self, s: str) -> int:
        return self._namer.parse(s)


# -- permutation payloads: the closure backend and wreath products --------


class _PermPayloadGroup(Group):
    """Payloads are permutations of the points 0..degree-1: the identity,
    built once, and the inverse, conjugator and right-multiplier kernels
    of `perms`. Each payload is rendered, and each input string parsed,
    once: a subclass names a payload in `_name` and reads a member in
    `_member`, which raises on a string that names none."""

    def __init__(self, name: str, degree: int):
        super().__init__(name)
        self.degree = degree
        self._identity = perms.identity_perm(degree)
        # per group, never shared: D7 and S7 name one 7-cycle differently
        self._names: dict = {}  # payload -> name
        self._read: dict = {}  # input string -> member payload
        # arity -> the live G wr Z_arity; weak, so no reference cycle forms
        self._wreaths = WeakValueDictionary()

    def _id(self):
        return self._identity

    def _inv(self, p):
        return perms.invert(p)

    _conjugator = staticmethod(perms.conjugator)

    def _times(self, q):
        return itemgetter(*q) if len(q) > 1 else super()._times(q)

    def _render(self, p) -> str:
        name = self._names.get(p)
        if name is None:
            name = self._names[p] = self._name(p)
        return name

    def _parse(self, s: str):
        # a failed parse raises before it is stored, so it raises again
        p = self._read.get(s)
        if p is None:
            p = self._read[s] = self._member(s)
        return p


class PermGroup(_PermPayloadGroup):
    """Group of permutations closed under composition, computed eagerly."""

    backend = "perm-closure"

    def __init__(
        self,
        degree: int,
        generator_perms: Sequence[perms.Perm],
        *,
        namer=None,
        name: str = "perm-group",
    ):
        if degree < 0:
            raise PreconditionError("degree must be nonnegative")
        super().__init__(name, degree)
        # the walk stops past the cap, or past the entry budget's points
        limit = default_cap()
        abort_at = min(limit, TABLE_ENTRY_BUDGET // max(degree, 1)) + 1
        gens, ordered, complete = perm_closure(generator_perms, abort_at, degree)
        if not complete:
            raise CapExceeded(
                f"closure of {name} is too large (cap {limit}, or {TABLE_ENTRY_BUDGET} points)",
                len(ordered),
            )
        self._sorted_payloads = tuple(sorted(ordered))
        self._pset = frozenset(ordered)
        self._gens = gens
        self._namer = namer if namer is not None else CycleNamer(degree)

    @property
    def order(self) -> int:
        return len(self._sorted_payloads)

    def _mul(self, p, q):
        return perms.compose(p, q)

    def _iter_payloads(self) -> Iterator[perms.Perm]:
        return iter(self._sorted_payloads)

    def _contains_payload(self, p) -> bool:
        # exact ints: a tuple of floats or bools can equal a member
        return type(p) is tuple and all(type(x) is int for x in p) and p in self._pset

    def _name(self, p) -> str:
        return self._namer.render(p)

    def _member(self, s: str):
        p = self._namer.parse(s)
        if p not in self._pset:
            raise ParseError(s, f"not an element of {self.name}")
        return p

    def _generator_payloads(self) -> tuple:
        return self._gens


# -- closure machinery ------------------------------------------------------


def closure_payloads(
    start,
    generators: Sequence,
    act: Callable,
    *,
    abort_at: int | None = None,
) -> tuple[list, bool]:
    """Breadth-first orbit of `start` under `act(point, generator)`.

    With the identity as start and the multiplication as action this is
    the product closure; with an element or a subgroup and a conjugation
    action it is a conjugacy class. Returns (ordered list, completed): the
    points in discovery order, unsorted. The loop walks the list while it
    grows, so each point is acted on after every point found before it,
    which is breadth first.
    When `abort_at` is given the walk stops as soon as the list reaches
    that size, returning completed=False.
    """
    gens = list(generators)
    ordered, seen = [start], {start}
    if abort_at is not None and len(ordered) >= abort_at:
        return ordered, False
    for p in ordered:
        for g in gens:
            q = act(p, g)
            if q not in seen:
                seen.add(q)
                ordered.append(q)
                if abort_at is not None and len(ordered) >= abort_at:
                    return ordered, False
    return ordered, True


def perm_closure(
    generator_perms: Iterable[perms.Perm], abort_at: int, degree: int | None = None
) -> tuple[tuple, list, bool]:
    """Check permutation generators (`perms._checked_generators`) and close
    them from the identity: the generators, then `closure_payloads`'
    (ordered list, completed) for a walk stopped at `abort_at` elements."""
    gens, degree = perms._checked_generators(generator_perms, degree)
    ordered, complete = closure_payloads(
        perms.identity_perm(degree), gens, perms.compose, abort_at=abort_at
    )
    return gens, ordered, complete


def subgroup_generated(G: Group, S: Iterable[Element]) -> Subgroup:
    """Least subgroup of G containing S."""
    gens = {}
    for e in S:
        G._check(e)
        gens[e.payload] = None
    ordered, _ = closure_payloads(G._id(), gens, G._mul)
    return Subgroup.of_payloads(G, ordered)


def normal_closure(G: Group, S: Iterable[Element]) -> Subgroup:
    """Least normal subgroup <<S>> of G containing S: the walk of e under
    right multiplication by each member of S and conjugation x -> a^-1 x a
    by each generating payload a of G. The reached set X contains e and is
    closed under conjugation by G and right multiplication by S, hence by
    every conjugate: c*(y^-1 s y) = y^-1 (y c y^-1 * s) y. As G is finite,
    X contains <<S>>, and every move stays inside <<S>>.
    """
    moves = [G._conjugator(a) for a in G._generator_payloads()]
    pays = {}
    for e in S:
        G._check(e)
        pays[e.payload] = None
    pays.pop(G._id(), None)
    moves += [G._times(s) for s in pays]
    ordered, _ = closure_payloads(G._id(), moves, lambda x, move: move(x))
    return Subgroup.of_payloads(G, ordered)


def normalizer_in(universe: Subgroup, H: Subgroup) -> Subgroup:
    """Elements of `universe` that conjugate H onto itself, by exhaustive
    scan, so that it can cross-check orbits built from generators. Each
    element is tried on the members of H outside the span of the members
    before them in sorted order; they generate H."""
    parent = universe.parent
    if H.parent is not parent:
        raise PreconditionError("subgroups live in different parent groups")
    idp = parent._id()
    gens, span = [], {idp}
    for h in H.payloads:
        if h not in span:
            gens.append(h)
            span = set(closure_payloads(idp, gens, parent._mul)[0])
    return Subgroup.of_payloads(
        parent, (y for y in universe.payloads if parent._conjugate_set(gens, y) <= H.payload_set)
    )


def conjugates_in(universe: Subgroup, H: Subgroup, conjugators) -> list[Subgroup]:
    """The orbit of H under conjugation, breadth first from H.

    `conjugators` must generate the universe; the orbit under a generating
    set is the full conjugacy class, since the inverse of each conjugator
    is one of its positive powers.
    """
    parent = universe.parent
    if H.parent is not parent:
        raise PreconditionError("subgroups live in different parent groups")
    orbit, _ = closure_payloads(
        H.payload_set, [y.payload for y in conjugators], parent._conjugate_set
    )
    return [Subgroup.of_payloads(parent, pays) for pays in orbit]


def mutual_commutator(G: Group, A: Subgroup, B: Subgroup) -> Subgroup:
    """Subgroup generated by all commutators [a, b], a in A, b in B; the
    all-pairs oracle for the lemma 7 commutator part [<<g>>, G], which
    `constructions` takes from g's commutators with G's generators."""
    if A.parent is not G or B.parent is not G:
        raise PreconditionError("subgroups belong to a different group")
    gens = set()
    for a in A.payloads:
        a_inv = G._inv(a)
        for b in B.payloads:
            gens.add(G._mul(G._mul(G._mul(a_inv, G._inv(b)), a), b))
    return subgroup_generated(G, [Element(G, p) for p in gens])


# -- odd abelian normal subgroups ------------------------------------------


def odd_abelian_normal_candidates(G: Group) -> list[Subgroup]:
    """Nontrivial abelian normal subgroups of odd order, found as normal
    closures of odd-order elements, one per conjugacy class: the central
    ones first, then the rest, each part sorted by (size, canonical set)."""
    found: dict = {}
    for cls in G.conjugacy_classes():
        g = cls[0]  # conjugates share their order and their normal closure
        if g.payload == G._id() or G.element_order(g) % 2 == 0:
            continue
        N = normal_closure(G, [g])
        if N.order > 1 and N.order % 2 == 1 and N.is_abelian():
            found[N.payload_set] = N
    centre = G.center().payload_set
    return sorted(found.values(), key=lambda s: (not s.payload_set <= centre, s.key()))


# -- axiom verification ------------------------------------------------------


class AxiomReport(NamedTuple):
    group_name: str
    order: int
    detail: str = ""

    @property
    def ok(self) -> bool:
        return not self.detail


def verify_group_axioms(G: Group) -> AxiomReport:
    """Check the group axioms on a table of G.

    The constructor of `TableGroup` is the one check of the group laws,
    Light's associativity test included; a law it refuses is the report's
    detail. G's identity and inverses are then compared with the table's.
    A table above the entry budget or the cap raises `CapExceeded` before
    its first product.
    """
    pays = list(G._iter_payloads())
    try:
        T = TableGroup(pays, G._mul, None, name=G.name, generators=G._generator_payloads())
    except PreconditionError as exc:
        return AxiomReport(G.name, len(pays), str(exc))
    wrong = [p for i, p in enumerate(pays) if G._inv(p) != pays[T._inv(i)]]
    if pays[0] != G._id():
        detail = f"{G._id()!r} is not the identity of {G.name}"
    elif wrong:
        detail = f"inverse failed for {G._render(wrong[0])}"
    else:
        detail = ""
    return AxiomReport(G.name, len(pays), detail)


def _split_top(s: str, sep: str) -> list[str]:
    """Split at every `sep` outside (...) and [...] brackets: the pieces of
    `s.split(sep)`, each joined back onto the one before while the running
    count of opening minus closing brackets is not zero."""
    parts: list[str] = []
    depth = 0
    for piece in s.split(sep):
        if depth:
            parts[-1] += sep + piece
        else:
            parts.append(piece)
        depth += piece.count("(") + piece.count("[") - piece.count(")") - piece.count("]")
    return parts


def direct_product(A: PermGroup, B: PermGroup) -> PermGroup:
    """A x B on the disjoint union of their points, B's after A's, with
    "(a|b)" element names; its order is refused as a table's would be."""
    check_table_order(A.order * B.order)
    d, e = A.degree, B.degree
    gens = [g + tuple(range(d, d + e)) for g in A._generator_payloads()]
    gens += [tuple(range(d)) + tuple([d + x for x in g]) for g in B._generator_payloads()]
    return PermGroup(d + e, gens, namer=PairNamer(A, B), name=f"{A.name}x{B.name}")
