"""Named group families, wreath products, and the economical overgroup
constructions built from them.

The wreath multiplication convention is fixed once here and inherited by
every other module:

    (f, k) * (f', k') = (h, k + k' mod n)   with   h(i) = f(i) * f'((i - k) mod n)

Under this law the element ((g, 1, ..., 1), 1) raised to the n-th power is
the diagonal image of g, which is the root every construction below relies
on.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import product as iproduct
from typing import Callable, Iterator

from . import perms
from .core import (
    Element,
    Group,
    PermGroup,
    Subgroup,
    TableGroup,
    IntegerNamer,
    TABLE_ORDER_LIMIT,
    direct_product,
    mutual_commutator,
    normal_closure,
    odd_abelian_normal_candidates,
    subgroup_generated,
)
from .errors import CapExceeded, Falsification, ParseError, PreconditionError

WREATH_ORDER_CAP = 10_000_000


# -- named groups ------------------------------------------------------------


class DihedralNamer:
    """Dihedral naming on p points: rotations "r^k", reflections "s*r^k"."""

    _FORM = re.compile(r"^(e|r\^?(\d+)?|s(?:\*r\^?(\d+))?)$")

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


def cyclic_group(n: int) -> TableGroup:
    if n < 1:
        raise PreconditionError(f"cyclic order must be positive, got {n}")
    if n > TABLE_ORDER_LIMIT:
        raise CapExceeded(
            f"table group order {n} exceeds the 16-bit table limit {TABLE_ORDER_LIMIT}", n
        )
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return TableGroup(
        table,
        namer=IntegerNamer(n),
        name=f"Z{n}",
        generator_indices=[1] if n > 1 else [],
    )


def dihedral_group(p: int) -> PermGroup:
    """D_p of order 2p on p points: r the p-cycle, s the reflection fixing 0."""
    if p < 3:
        raise PreconditionError(f"dihedral groups need p >= 3, got {p}")
    r = tuple((i + 1) % p for i in range(p))
    s = tuple((-i) % p for i in range(p))
    return PermGroup(p, [r, s], namer=DihedralNamer(p), name=f"D{p}")


def symmetric_group(m: int) -> PermGroup:
    if m < 1:
        raise PreconditionError(f"symmetric groups need m >= 1, got {m}")
    gens: list[perms.Perm] = []
    if m >= 2:
        gens.append(tuple([1, 0] + list(range(2, m))))
    if m >= 3:
        gens.append(tuple(list(range(1, m)) + [0]))
    return PermGroup(m, gens, name=f"S{m}")


def alternating_group(m: int) -> PermGroup:
    if m < 1:
        raise PreconditionError(f"alternating groups need m >= 1, got {m}")
    gens = []
    for i in range(m - 2):
        images = list(range(m))
        images[i], images[i + 1], images[i + 2] = images[i + 1], images[i + 2], images[i]
        gens.append(tuple(images))
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


def _split_top(s: str, sep: str) -> list[str]:
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


class WreathGroup(Group):
    """Wreath product of a base group with the cyclic shift of n coordinates.

    Elements are (f, k) with f a tuple of n base elements and k a shift mod
    n; the order is n * |base|^n. No table is materialized, so orders in
    the millions are representable as long as nothing enumerates them.
    """

    backend = "wreath-structured"

    def __init__(self, base: Group, arity: int, *, order_cap: int | None = None):
        if arity < 2:
            raise PreconditionError(f"wreath arity must be at least 2, got {arity}")
        super().__init__(f"{base.name} wr Z{arity}")
        self.base = base
        self.arity = arity
        self._order = arity * base.order**arity
        limit = order_cap if order_cap is not None else WREATH_ORDER_CAP
        if self._order > limit:
            raise CapExceeded(
                f"wreath order {self._order} exceeds cap {limit}", self._order
            )
        self._base_id = base._id()

    @property
    def order(self) -> int:
        return self._order

    def _mul(self, p, q):
        f, k = p
        f2, k2 = q
        n = self.arity
        bmul = self.base._mul
        return (
            tuple(bmul(f[i], f2[(i - k) % n]) for i in range(n)),
            (k + k2) % n,
        )

    def _inv(self, p):
        f, k = p
        n = self.arity
        binv = self.base._inv
        return (tuple(binv(f[(j + k) % n]) for j in range(n)), (-k) % n)

    def _id(self):
        return ((self._base_id,) * self.arity, 0)

    def _iter_payloads(self) -> Iterator:
        base_pays = list(self.base._iter_payloads())
        for k in range(self.arity):
            for combo in iproduct(base_pays, repeat=self.arity):
                yield (combo, k)

    def _key(self, p):
        f, k = p
        return (k, tuple(self.base._key(x) for x in f))

    def _contains_payload(self, p) -> bool:
        if not (isinstance(p, tuple) and len(p) == 2):
            return False
        f, k = p
        return (
            isinstance(k, int)
            and 0 <= k < self.arity
            and isinstance(f, tuple)
            and len(f) == self.arity
            and all(self.base._contains_payload(x) for x in f)
        )

    def _render(self, p) -> str:
        f, k = p
        inner = ",".join(self.base._render(x) for x in f)
        return f"[{inner};{k}]"

    def _parse(self, s: str):
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
        return (tuple(self.base._parse(c) for c in coords), k)

    def _generator_payloads(self) -> tuple:
        idp = self._base_id
        gens = []
        for g in self.base._generating_payloads():
            f = [idp] * self.arity
            f[0] = g
            gens.append((tuple(f), 0))
        gens.append(((idp,) * self.arity, 1))
        return tuple(gens)

    def diag_embed(self, g: Element) -> Element:
        """The diagonal copy of a base element: constant tuple, zero shift."""
        self.base._check(g)
        return Element(self, ((g.payload,) * self.arity, 0))

    def shift_element(self) -> Element:
        return Element(self, ((self._base_id,) * self.arity, 1))


def wreath_cyclic(G: Group, n: int, *, order_cap: int | None = None) -> WreathGroup:
    """G wr Z_n with the shift convention documented at module top."""
    return WreathGroup(G, n, order_cap=order_cap)


def levin_root(W: WreathGroup, g: Element) -> Element:
    """The canonical n-th root ((g, 1, ..., 1), 1) of the diagonal image
    of g, verified by direct multiplication before returning."""
    W.base._check(g)
    f = [W._base_id] * W.arity
    f[0] = g.payload
    x = Element(W, (tuple(f), 1))
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


@dataclass
class Lemma7Result:
    """Subgroup of G wr Z2 generated by the diagonal copy of G and the
    canonical square root of g, together with its closed-form description."""

    wreath: WreathGroup
    subgroup: Subgroup
    root: Element
    commutator_part: Subgroup  # [<<g>>, G] inside the base group
    embed: Callable[[Element], Element] = field(repr=False)

    @property
    def order(self) -> int:
        return self.subgroup.order


def lemma7_subgroup(G: Group, g: Element) -> Lemma7Result:
    """Closed-form subgroup containing diag(G) and a square root of diag(g).

    The element set {(f,0): f0*f1^-1 in C} u {(f,1): f0*f1^-1 in g*C} with
    C = [<<g>>, G] is built directly and then verified, as sets, against
    the breadth-first closure of diag(G) and the root. The closure starts
    from the diagonal images of G's generating set, which generate
    diag(G). A mismatch is a hard error, not a degraded result.
    """
    G._check(g)
    return _lemma7_from(G, g, mutual_commutator(G, normal_closure(G, g), G.whole()))


def _lemma7_from(G: Group, g: Element, C: Subgroup) -> Lemma7Result:
    """`lemma7_subgroup` with C = [<<g>>, G] already computed."""
    W = wreath_cyclic(G, 2)
    gp = g.payload
    members = []
    for f1 in G._iter_payloads():
        for c in C.payloads:
            members.append(Element(W, ((G._mul(c, f1), f1), 0)))
            members.append(Element(W, ((G._mul(G._mul(gp, c), f1), f1), 1)))
    formula_set = Subgroup(W, members, _trusted=True)
    root = levin_root(W, g)
    gens = [W.diag_embed(Element(G, a)) for a in G._generating_payloads()]
    gens.append(root)
    closed = subgroup_generated(W, gens)
    if formula_set.payload_set != closed.payload_set:
        raise Falsification(
            "closed-form subgroup does not match the generated closure "
            f"for g = {G.render(g)} in {G.name}"
        )
    if formula_set.order != 2 * G.order * C.order:
        raise Falsification(
            f"subgroup order {formula_set.order} != 2*|G|*|C| "
            f"= {2 * G.order * C.order}"
        )
    return Lemma7Result(
        wreath=W,
        subgroup=formula_set,
        root=root,
        commutator_part=C,
        embed=W.diag_embed,
    )


@dataclass
class Lemma8Result:
    """Inversion subgroup K = {((x, x^-1), 0) : x in N} and, when K turns
    out to be normal in the wreath product, the quotient data."""

    wreath: WreathGroup
    subgroup_k: Subgroup
    normal: bool
    witness: tuple[Element, Element] | None  # (member of K, conjugator)
    quotient: TableGroup | None
    project: Callable[[Element], Element] | None = field(repr=False, default=None)
    embed: Callable[[Element], Element] | None = field(repr=False, default=None)
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
    k_members = [Element(W, ((x, G._inv(x)), 0)) for x in N.payloads]
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


@dataclass
class Prop1Result:
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
    embed: Callable[[Element], Element] = field(repr=False)
    lemma7: Lemma7Result | None = None
    lemma8: Lemma8Result | None = None
    wreath: WreathGroup | None = None


def prop1_embedding(G: Group, g: Element) -> Prop1Result:
    G._check(g)
    target = G.order**2

    # (i) the closed-form subgroup, whenever it is small enough
    C = mutual_commutator(G, normal_closure(G, g), G.whole())
    if 2 * G.order * C.order <= target:
        res = _lemma7_from(G, g, C)
        _check_root(res.embed, res.root, g)
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
        _check_root(res8.embed, root, g)
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
    _check_root(W.diag_embed, root, g)
    return Prop1Result(
        strategy="fallback",
        overgroup_order=W.order,
        meets_bound=W.order <= target,
        embed=W.diag_embed,
        root=root,
        wreath=W,
    )


def _check_root(embed: Callable[[Element], Element], root: Element, g: Element) -> None:
    if root * root != embed(g):
        raise Falsification("returned root does not square to the embedded element")
