"""Named group families, wreath products, and the economical overgroup
constructions built from them.

The wreath multiplication convention is fixed once here and inherited by
every other module:

    (f, k) * (f', k') = (h, k + k' mod n)   with   h(i) = f(i) * f'((i - k) mod n)

Under this law the element ((g, 1, ..., 1), 1) raised to the n-th power is
the diagonal image of g, which is the root every construction below relies
on.

`WreathGroup` takes its permutation kernels, and its once-per-payload names
and parses, from `PermGroup`'s payload base and keeps only its (f, k)
structure, its own flat product and its diagonal payloads, each built once.
`wreath_cyclic` hands out the live product of a base and arity, which the
base holds weakly, so every construction over one G and n in a command
shares one product. The results of the constructions are `NamedTuple`s;
`_replace` derives a changed copy.
"""

from __future__ import annotations

import re
from functools import cached_property
from itertools import accumulate, product as iproduct
from operator import itemgetter
from typing import Callable, Iterator, NamedTuple

from . import perms
from .core import (
    CosetGroup,
    Element,
    Group,
    PermGroup,
    Subgroup,
    TABLE_ENTRY_BUDGET,
    WREATH_ORDER_CAP,
    _PermPayloadGroup,
    _split_top,
    check_table_order,
    closure_payloads,
    direct_product,
    normal_closure,
    odd_abelian_normal_candidates,
)
from .errors import CapExceeded, Falsification, ParseError, PreconditionError


# -- named groups ------------------------------------------------------------


class DihedralNamer:
    """Dihedral naming on p points: rotations "r^k", reflections "s*r^k"."""

    _FORM = re.compile(r"^(e|r(?:\^?(\d+))?|s(?:\*r\^?(\d+))?)$")

    def __init__(self, p: int):
        self.p = p

    def render(self, t: perms.Perm) -> str:
        p = self.p
        if all(t[i] == (i + t[0]) % p for i in range(p)):
            return f"r^{t[0]}"
        if all(t[i] == (t[0] - i) % p for i in range(p)):
            return f"s*r^{(-t[0]) % p}"
        raise PreconditionError(f"{t!r} is not a dihedral element on {p} points")

    def parse(self, s: str) -> perms.Perm:
        text = s.strip().replace(" ", "")
        m = self._FORM.match(text)
        if not m:
            raise ParseError(s, "dihedral elements look like r^k or s*r^k")
        p = self.p
        if text == "e":
            return perms.identity_perm(p)
        if text.startswith("s"):
            k = int(m.group(3)) if m.group(3) is not None else 0
            return tuple((-i - k) % p for i in range(p))
        k = int(m.group(2)) if m.group(2) is not None else 1
        return tuple((i + k) % p for i in range(p))


class CyclicNamer:
    """Residue names for Z_n acting on one cycle per prime-power factor q
    of n, the cycles in increasing order of their primes: residue i steps
    i places along each. Z1 acts on one fixed point."""

    def __init__(self, n: int):
        self.n = n
        orders, m, p = [], n, 2
        while m > 1:
            q = 1
            while m % p == 0:
                m, q = m // p, q * p
            if q > 1:
                orders.append(q)
            p += 1
        orders = orders or [1]
        self.degree = sum(orders)
        self.blocks = list(zip(accumulate([0] + orders), orders))  # (first point, length)
        # the residue that is 1 mod q and 0 mod n/q, for each cycle
        self._units = [n // q * pow(n // q, -1, q) for q in orders]

    def payload(self, i: int) -> perms.Perm:
        out: list = []
        for s, q in self.blocks:
            out += [s + (x + i) % q for x in range(q)]
        return tuple(out)

    def render(self, t: perms.Perm) -> str:
        return str(sum(u * (t[s] - s) for u, (s, _) in zip(self._units, self.blocks)) % self.n)

    def parse(self, s: str) -> perms.Perm:
        try:
            return self.payload(int(s.strip()) % self.n)
        except ValueError:
            raise ParseError(s, "expected an integer residue") from None


def cyclic_group(n: int) -> PermGroup:
    """Z_n on `CyclicNamer`'s cycles, the least faithful degree for n > 1
    (Johnson 1971); its order is refused as a table's would be."""
    if n < 1:
        raise PreconditionError(f"cyclic order must be positive, got {n}")
    check_table_order(n)
    namer = CyclicNamer(n)
    gens = [namer.payload(1)] if n > 1 else []
    return PermGroup(namer.degree, gens, namer=namer, name=f"Z{n}")


def _refuse_generators(name: str, entries: int) -> None:
    """Refuse, before any is built, generators above the table entry budget."""
    if entries > TABLE_ENTRY_BUDGET:
        raise CapExceeded(
            f"{name} needs {entries} generator entries, "
            f"above the table entry budget {TABLE_ENTRY_BUDGET}"
        )


def dihedral_group(p: int) -> PermGroup:
    """D_p of order 2p on p points: r the p-cycle, s the reflection fixing 0."""
    if p < 3:
        raise PreconditionError(f"dihedral groups need p >= 3, got {p}")
    _refuse_generators(f"D{p}", 2 * p)
    r = tuple((i + 1) % p for i in range(p))
    s = tuple((-i) % p for i in range(p))
    return PermGroup(p, [r, s], namer=DihedralNamer(p), name=f"D{p}")


def symmetric_group(m: int) -> PermGroup:
    if m < 1:
        raise PreconditionError(f"symmetric groups need m >= 1, got {m}")
    _refuse_generators(f"S{m}", 2 * m)
    # a transposition and an m-cycle, one and the same for m = 2
    gens = [(1, 0, *range(2, m)), (*range(1, m), 0)] if m >= 2 else []
    return PermGroup(m, gens, name=f"S{m}")


def alternating_group(m: int) -> PermGroup:
    if m < 1:
        raise PreconditionError(f"alternating groups need m >= 1, got {m}")
    _refuse_generators(f"A{m}", (m - 2) * m)
    # the 3-cycles (i i+1 i+2)
    gens = [(*range(i), i + 1, i + 2, i, *range(i + 3, m)) for i in range(m - 2)]
    return PermGroup(m, gens, name=f"A{m}")


_FAMILY = re.compile(r"^([ZDSA])(\d+)$")


def named_group(spec: str) -> Group:
    """Build a group from a spec string: Z<n> | D<p> | S<m> | A<m>,
    combined with x for direct products."""
    text = spec.strip()
    if not text:
        raise ParseError(spec, "empty group spec")
    parts = text.split("x")
    groups = []
    for part in parts:
        m = _FAMILY.match(part.strip())
        if not m:
            raise ParseError(spec, f"unsupported family {part.strip()!r}")
        family, raw_n = m.group(1), int(m.group(2))
        builder = {
            "Z": cyclic_group,
            "D": dihedral_group,
            "S": symmetric_group,
            "A": alternating_group,
        }[family]
        try:
            groups.append(builder(raw_n))
        except PreconditionError as exc:
            raise ParseError(spec, str(exc)) from None
    out = groups[0]
    for rhs in groups[1:]:
        out = direct_product(out, rhs)
    if len(groups) > 1:
        out.name = text
    return out


# -- wreath products ---------------------------------------------------------


class WreathGroup(_PermPayloadGroup):
    """Wreath product of a permutation base with the cyclic shift of n
    coordinates.

    Elements are (f, k) with f a tuple of n base elements and k a shift mod
    n; the order is n * |base|^n. The base must act on d >= 1 points (a
    `PermGroup`, or another wreath product), and the payload of (f, k) is
    the permutation of n*d points, n blocks of d,
    that sends i*d + j to ((i+k) % n)*d + f[(i+k) % n][j]. This is a
    homomorphism under `perms.compose`, so a product is one `itemgetter`
    call of degree n*d; `pack` and `unpack` convert between (f, k) and the
    payload. No table is materialized, and listing the elements is refused
    above the order cap, or where the payloads would hold more entries
    than the table entry budget. Building is refused where n^2 * |base|
    exceeds that cap, as `levin_root` and `evaluate` make O(n) products of
    n blocks.
    """

    backend = "wreath-structured"

    def __init__(self, base: Group, arity: int):
        if arity < 2:
            raise PreconditionError(f"wreath arity must be at least 2, got {arity}")
        name = f"{base.name} wr Z{arity}"
        d = getattr(base, "degree", 0)  # the block size
        if not d:
            raise PreconditionError(f"{name} needs a base that permutes points")
        if arity * arity * base.order > WREATH_ORDER_CAP:
            raise CapExceeded(f"{name}: arity^2 * |base| exceeds cap {WREATH_ORDER_CAP}")
        super().__init__(name, arity * d)
        self.base = base
        self.arity = arity
        self._d = d
        self._order = arity * base.order**arity
        self._base_id = base._id()
        # where each block of a payload starts
        self._offsets = range(0, self.degree, d)
        self._diag: dict = {}  # base payload -> its diagonal payload

    @property
    def order(self) -> int:
        return self._order

    def pack(self, f: tuple, k: int) -> perms.Perm:
        """The payload of (f, k)."""
        n, d = self.arity, self._d
        out: list = []
        for i in range(n):
            src = (i + k) % n
            out += [src * d + x for x in f[src]]
        return tuple(out)

    def unpack(self, p: perms.Perm) -> tuple:
        """The (f, k) of a payload; the inverse of `pack`."""
        # k sends block 0 to block k; rotating the blocks back by k leaves
        # block i as i*d + f[i]
        n, d = self.arity, self._d
        k = p[0] // d
        r = (n - k) % n * d
        blocks = p[r:] + p[:r]
        f = tuple(
            tuple([x - i * d for x in blocks[i * d : (i + 1) * d]]) for i in range(n)
        )
        return f, k

    def _mul(self, p, q):
        # n*d >= 2 points, so itemgetter returns a tuple
        return itemgetter(*q)(p)

    def _iter_payloads(self) -> Iterator:
        self._refuse_listing("wreath", self._order)
        base_pays = list(self.base._iter_payloads())
        for k in range(self.arity):
            for combo in iproduct(base_pays, repeat=self.arity):
                yield self.pack(combo, k)

    def _contains_payload(self, p) -> bool:
        # a permutation of n*d points is a payload when every f[i] of its
        # unpacking is a base element: each block then maps onto the block
        # k further on, and 0 <= k < n
        if not (
            isinstance(p, tuple)
            and len(p) == self.degree
            and all(type(x) is int for x in p)
        ):
            return False
        f, _ = self.unpack(p)
        return all(self.base._contains_payload(x) for x in f)

    def _name(self, p) -> str:
        f, k = self.unpack(p)
        inner = ",".join(self.base._render(x) for x in f)
        return f"[{inner};{k}]"

    def _member(self, s: str):
        text = s.strip()
        if not (text.startswith("[") and text.endswith("]")):
            raise ParseError(s, "wreath elements look like [f0,...,f_{n-1};k]")
        body = text[1:-1]
        pieces = _split_top(body, ";")
        if len(pieces) != 2:
            raise ParseError(s, "expected exactly one top-level ';'")
        coords = _split_top(pieces[0], ",")
        if len(coords) != self.arity:
            raise ParseError(s, f"expected {self.arity} coordinates, got {len(coords)}")
        try:
            k = int(pieces[1])
        except ValueError:
            raise ParseError(s, "shift must be an integer") from None
        if not 0 <= k < self.arity:
            raise ParseError(s, f"shift {k} out of range 0..{self.arity - 1}")
        return self.pack(tuple(self.base._parse(c) for c in coords), k)

    def _generator_payloads(self) -> tuple:
        idp = self._base_id
        gens = []
        for g in self.base._generator_payloads():
            f = [idp] * self.arity
            f[0] = g
            gens.append(self.pack(tuple(f), 0))
        gens.append(self.pack((idp,) * self.arity, 1))
        return tuple(gens)

    def _refuse_listing(self, what: str, order: int) -> None:
        """Refuse to list `order` elements of this product above the wreath
        order cap, or when their payloads, n*d entries each, hold more
        entries than the table entry budget."""
        if order > WREATH_ORDER_CAP:
            raise CapExceeded(f"{what} order {order} exceeds cap {WREATH_ORDER_CAP}", order)
        entries = order * self.degree
        if entries > TABLE_ENTRY_BUDGET:
            raise CapExceeded(
                f"{what} order {order} needs {entries} payload entries, "
                f"above the table entry budget {TABLE_ENTRY_BUDGET}",
                order,
            )

    def diag_embed(self, g: Element) -> Element:
        """The diagonal copy of a base element: constant tuple, zero shift."""
        self.base._check(g)
        p = self._diag.get(g.payload)
        if p is None:
            p = self._diag[g.payload] = tuple([o + x for o in self._offsets for x in g.payload])
        return Element(self, p)


def wreath_cyclic(G: Group, n: int) -> WreathGroup:
    """G wr Z_n with the shift convention documented at module top: the
    live one, while G holds one of arity n (G holds them weakly)."""
    live = getattr(G, "_wreaths", {})  # a base that permutes no points is refused below
    W = live.get(n)
    if W is None:
        W = live[n] = WreathGroup(G, n)
    return W


def levin_root(W: WreathGroup, g: Element) -> Element:
    """The canonical n-th root ((g, 1, ..., 1), 1) of the diagonal image
    of g, verified by direct multiplication before returning."""
    W.base._check(g)
    f = [W._base_id] * W.arity
    f[0] = g.payload
    x = Element(W, W.pack(tuple(f), 1))
    acc = x
    for _ in range(W.arity - 1):
        acc = acc * x
    if acc != W.diag_embed(g):
        raise Falsification(
            "wreath root failed to power to the diagonal image; "
            "the multiplication law is broken"
        )
    return x


# -- economical constructions -------------------------------------------------


class _Lemma7Fields(NamedTuple):
    wreath: WreathGroup
    labels: tuple  # (c, k): c a payload of the base group, k the shift
    root: Element
    commutator_part: Subgroup  # [<<g>>, G] inside the base group
    embed: Callable[[Element], Element]


class Lemma7Result(_Lemma7Fields):
    """The subgroup L of G wr Z2 generated by the diagonal copy D of G and
    the canonical square root of g, held as its left cosets of D.

    The coset of (f0, f1; k) is labelled (f0*f1^-1, k). `labels` are the
    labels of L/D, each verified against the closed form, so that
    |L| = |G| * len(labels). `subgroup` builds L itself on first access
    and caches it in the instance dict: the class declares no `__slots__`.
    """

    @property
    def order(self) -> int:
        return self.wreath.base.order * len(self.labels)

    @cached_property
    def subgroup(self) -> Subgroup:
        """L = {(c*f, f; k) : (c, k) a label, f in G}."""
        W, G = self.wreath, self.wreath.base
        W._refuse_listing("lemma 7 subgroup", self.order)
        return Subgroup.of_payloads(
            W, (W.pack((G._mul(c, f), f), k) for c, k in self.labels for f in G._iter_payloads())
        )


def lemma7_subgroup(G: Group, g: Element) -> Lemma7Result:
    """L = <diag(G), root of diag(g)> in G wr Z2, verified against its
    closed form {(f,0): f0*f1^-1 in C} u {(f,1): f0*f1^-1 in g*C} with
    C = [<<g>>, G].

    The check walks the left cosets of diag(G) in L (`_lemma7_from`), not
    the elements of L. A mismatch is a hard error, not a degraded result.
    """
    G._check(g)
    return _lemma7_from(G, g, _commutator_part(G, g))


def _lemma7_from(G: Group, g: Element, C: Subgroup) -> Lemma7Result:
    """`lemma7_subgroup` with C = [<<g>>, G] already computed.

    (f0, f1; k) * diag(h) = (f0*h, f1*h; k), so the label (f0*f1^-1, k)
    names the left coset of (f0, f1; k) modulo D = diag(G). L acts
    transitively on L/D, so the walk of the label (e, 0) under the moves of
    L's generators (`_lemma7_moves`) is all of L/D and |L| = |G| * |orbit|.
    The closed form's predicate depends only on the label: every label must
    satisfy it, and there must be the closed form's 2|C| of them.
    """
    W = wreath_cyclic(G, 2)
    root = levin_root(W, g)
    labels, _ = closure_payloads(
        (G._id(), 0), _lemma7_moves(G, g), lambda label, move: move(*label)
    )
    # where f0*f1^-1 lies in the closed form at shift 0 and 1: C and gC
    cosets = C.payload_set, frozenset(G._mul(g.payload, c) for c in C.payloads)
    for c, k in labels:
        if c not in cosets[k]:
            coset = W._render(W.pack((c, G._id()), k))
            raise Falsification(
                f"the closure of diag(G) and the root of g = {G.render(g)} in {G.name} "
                f"holds {coset}, outside the closed-form subgroup"
            )
    if len(labels) != 2 * C.order:
        raise Falsification(
            f"subgroup order {G.order * len(labels)} != 2*|G|*|C| = {2 * G.order * C.order}"
        )
    return Lemma7Result(
        wreath=W, labels=tuple(labels), root=root, commutator_part=C, embed=W.diag_embed
    )


def _lemma7_moves(G: Group, g: Element) -> list[Callable]:
    """Left multiplication by L's generators on the labels (c, k) of L/D:
    diag(a), for each generating payload a of G, sends (c, k) to
    (a*c*a^-1, k); the root ((g, e); 1) sends it to (g*c^-1, k+1)."""
    mul, inv = G._mul, G._inv
    moves = [lambda c, k, by=G._conjugator(inv(a)): (by(c), k) for a in G._generator_payloads()]
    return moves + [lambda c, k: (mul(g.payload, inv(c)), 1 - k)]


def _commutator_part(G: Group, g: Element) -> Subgroup:
    """C = [<<g>>, G], as the normal closure M of the commutators [g, x]
    with G's generating payloads x.

    Modulo M, g commutes with every generator, so g is central mod M; so
    is each conjugate of g, which is g mod M, hence <<g>> is central mod M
    and [<<g>>, G] <= M. Conversely each [g, x] lies in [<<g>>, G], which
    is normal, so M <= [<<g>>, G]. `mutual_commutator` is the all-pairs
    oracle for this. Each [g, x] is g^-1 times the conjugate of g by x.
    """
    p, pinv = g.payload, G._inv(g.payload)
    return normal_closure(
        G, [Element(G, G._mul(pinv, G._conjugator(x)(p))) for x in G._generator_payloads()]
    )


def lemma7_by_class(G: Group) -> list[tuple[Element, Lemma7Result]]:
    """`lemma7_subgroup` for every element of G, in `G.elements()` order,
    walking one representative per conjugacy class.

    The first member g of each class is walked and compared with its closed
    form by `lemma7_subgroup`. Every other member g' = h^-1 g h, with h
    from `Group._class_walk`, shares its verified labels once two checks
    pass: its root equals diag(h)^-1 * root(g) * diag(h), and diag(h) lies
    in L(g), so its generated closure is L(g); and g^-1 g' lies in C, so
    g'C = gC and its closed form is the same set.
    """
    verified: dict = {}
    for g in G.elements():
        if g.payload in verified:
            continue
        rep = verified[g.payload] = lemma7_subgroup(G, g)
        W, C = rep.wreath, rep.commutator_part
        ginv = G._inv(g.payload)
        for q, h in G._class_walk(g.payload).items():
            if q == g.payload:
                continue
            member = Element(G, q)
            root = levin_root(W, member)
            if root != rep.root.conj(W.diag_embed(Element(G, h))):
                raise Falsification(
                    f"the root of {G.render(member)} is not the root of "
                    f"{G.render(g)} conjugated by diag({G._render(h)}) in {G.name}"
                )
            if G._mul(ginv, q) not in C.payload_set:
                raise Falsification(
                    f"{G.render(member)} is not in {G.render(g)}*C for C = [<<g>>, G] in {G.name}"
                )
            verified[q] = rep._replace(root=root)
    return [(g, verified[g.payload]) for g in G.elements()]


class Lemma8Result(NamedTuple):
    """Inversion subgroup K = {((x, x^-1), 0) : x in N} and, when K turns
    out to be normal in the wreath product, the quotient data."""

    wreath: WreathGroup
    subgroup_k: Subgroup
    normal: bool
    witness: tuple[Element, Element] | None  # (member of K, conjugator)
    quotient: CosetGroup | None
    project: Callable[[Element], Element] | None = None
    embed: Callable[[Element], Element] | None = None
    embed_injective: bool | None = None

    def root_image(self, g: Element) -> Element:
        """Image of the canonical root in the quotient; its square is
        verified to be the embedded g."""
        if self.quotient is None:
            raise PreconditionError("no quotient: K was not normal")
        x = self.project(levin_root(self.wreath, g))
        if x * x != self.embed(g):
            raise Falsification("projected root does not square to the projected element")
        return x


def lemma8_construct(G: Group, N: Subgroup) -> Lemma8Result:
    """Build K from an abelian normal subgroup N of G and test, by explicit
    conjugation, whether K is normal in G wr Z2.

    Normality is never assumed: conjugating (x, x^-1) by a base pair (a, b)
    gives (x^a, (x^-1)^b), which stays in K only when x^a = x^b, so the
    claim is sensitive to whether N is central. If the check fails, the
    witness pair is reported and no quotient is produced.
    """
    if N.parent is not G:
        raise PreconditionError("N must be a subgroup of G")
    if not N.is_abelian():
        raise PreconditionError("N must be abelian")
    if not G.is_normal(N):
        raise PreconditionError("N must be normal in G")
    W = wreath_cyclic(G, 2)
    k_members = [Element(W, W.pack((x, G._inv(x)), 0)) for x in N.payloads]
    K = Subgroup(W, k_members)
    witness = W.normality_witness(K)
    if witness is not None:
        conjugator, member = witness
        return Lemma8Result(
            wreath=W, subgroup_k=K, normal=False, witness=(member, conjugator), quotient=None
        )
    quot, project = W.quotient(K)
    expected = 2 * G.order**2 // N.order
    if quot.order != expected:
        raise Falsification(
            f"quotient order {quot.order} != 2|G|^2/|N| = {expected}"
        )

    def embed(a: Element) -> Element:
        return project(W.diag_embed(a))

    images = {embed(a).payload for a in G.elements()}
    return Lemma8Result(
        wreath=W,
        subgroup_k=K,
        normal=True,
        witness=None,
        quotient=quot,
        project=project,
        embed=embed,
        embed_injective=len(images) == G.order,
    )


class Prop1Result(NamedTuple):
    """Overgroup in which g is a square, with the strategy that produced it.

    Strategies, first success wins: "lemma7" (proper subgroup of the wreath
    product), "lemma8" (proper quotient over an odd abelian normal
    subgroup), "fallback" (the full wreath product of order 2|G|^2, which
    does not meet the |G|^2 bound; the tag makes that explicit).
    """

    strategy: str
    overgroup_order: int
    meets_bound: bool
    root: Element
    embed: Callable[[Element], Element]
    lemma7: Lemma7Result | None = None
    lemma8: Lemma8Result | None = None
    wreath: WreathGroup | None = None


def prop1_embedding(G: Group, g: Element) -> Prop1Result:
    """An overgroup of G in which g is a square, by the first strategy of
    `Prop1Result` that succeeds.

    The lemma 8 branch is reached only for a perfect G with a nontrivial
    odd abelian normal subgroup: the lemma 7 test 2|G||C| <= |G|^2 fails
    only when |C| > |G|/2, and as |C| divides |G| that means
    C = [<<g>>, G] = G, so G = [G, G]. No group `named_group` builds is
    one: a perfect product of named groups has only A<m> (m >= 5) and
    trivial factors, and no abelian normal subgroup. On such a group the
    chain goes from lemma 7 straight to the fallback (on A5, for every g
    but the identity).
    """
    G._check(g)
    target = G.order**2

    # (i) the closed-form subgroup, whenever it is small enough
    C = _commutator_part(G, g)
    if 2 * G.order * C.order <= target:
        res = _lemma7_from(G, g, C)
        return Prop1Result(
            strategy="lemma7",
            overgroup_order=res.order,
            meets_bound=True,
            embed=res.embed,
            root=res.root,
            lemma7=res,
        )

    # (ii) quotient over an odd abelian normal subgroup, central ones first
    for N in odd_abelian_normal_candidates(G):
        res8 = lemma8_construct(G, N)
        if not res8.normal:
            continue
        if res8.quotient.order > target or not res8.embed_injective:
            continue
        root = res8.root_image(g)
        return Prop1Result(
            strategy="lemma8",
            overgroup_order=res8.quotient.order,
            meets_bound=True,
            embed=res8.embed,
            root=root,
            lemma8=res8,
        )

    # (iii) the full wreath product always works, at twice the bound
    W = wreath_cyclic(G, 2)
    root = levin_root(W, g)
    return Prop1Result(
        strategy="fallback",
        overgroup_order=W.order,
        meets_bound=W.order <= target,
        embed=W.diag_embed,
        root=root,
        wreath=W,
    )
