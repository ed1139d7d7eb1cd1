"""Positive equations g1*x*g2*x*...*gn*x = 1 over a finite group, their
in-group brute-force solver, and the wreath-product solver that always
succeeds.

Evaluating the equation at (f, k) in G wr Z_n leaves shift 0 and base
coordinates

    F(i) = g1 * f(i) * g2 * f(i - k) * ... * gn * f(i - (n-1)k)   (mod n).

Shift 0 is the in-group equation: every F(i) reads only f(i). When G has no
solution, f = (g1^-1, ..., gn^-1) at shift 1 is one [Levin62]: with
a_t = g_(t+1), F(i) is the product over t of a_t a_(i-t)^-1. Split at t = i,
each part is a word whose letter a_t at an even position faces a_t^-1 at its
mirror position, so each part is u u^-1 = e.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .constructions import WreathGroup, levin_root, wreath_cyclic
from .core import Element, Group
from .errors import Falsification, ParseError, PreconditionError


class _Coefficients(NamedTuple):
    coefficients: tuple[Element, ...]


class PositiveEquation(_Coefficients):
    """Coefficient sequence (g1, ..., gn) for g1*x*g2*x*...*gn*x = 1."""

    __slots__ = ()

    def __new__(cls, coefficients: tuple[Element, ...]):
        if not coefficients:
            raise PreconditionError("a positive equation needs at least one coefficient")
        g0 = coefficients[0]
        for g in coefficients:
            if g.group is not g0.group:
                raise PreconditionError("all coefficients must share one group")
        return super().__new__(cls, coefficients)

    @property
    def degree(self) -> int:
        return len(self.coefficients)

    @property
    def group(self) -> Group:
        return self.coefficients[0].group

    def render(self) -> str:
        G = self.group
        return "".join(G.render(g) + "*x*" for g in self.coefficients)


def parse_equation(G: Group, s: str) -> PositiveEquation:
    """Parse "g1*x*g2*x*...*x*"; coefficients use G's element grammar."""
    text = s.strip()
    if not text.endswith("*x*"):
        raise ParseError(s, "equation must end with '*x*'")
    pieces = text.split("*x*")
    if pieces[-1] != "":
        raise ParseError(s, "trailing content after final '*x*'")
    coeff_strs = pieces[:-1]
    if not coeff_strs:
        raise ParseError(s, "no coefficients found")
    if any(not c.strip() for c in coeff_strs):
        raise ParseError(s, "empty coefficient; write the identity explicitly")
    return PositiveEquation(tuple(G.parse(c) for c in coeff_strs))


def evaluate(
    eq: PositiveEquation,
    H: Group,
    embed: Callable[[Element], Element],
    x: Element,
) -> Element:
    """embed(g1) * x * embed(g2) * x * ... * embed(gn) * x, computed in H.

    Every product is one `H._mul`, not a right multiplier (`Group._times`):
    this is the filter oracle that `solve_in_group`'s multipliers are
    tested against, so it must not share their kernel."""
    H._check(x)
    mul, xp = H._mul, x.payload
    acc = H._id()
    for g in eq.coefficients:
        img = embed(g)
        H._check(img)
        acc = mul(mul(acc, img.payload), xp)
    return Element(H, acc)


def solve_in_group(eq: PositiveEquation, G: Group) -> Element | None:
    """First x in G's canonical enumeration solving the equation, if any.

    Each product is one call of a right multiplier (`Group._times`), built
    once per coefficient and once per candidate."""
    if eq.group is not G:
        raise PreconditionError("coefficients do not live in the given group")
    first, *rest = [g.payload for g in eq.coefficients]
    times = G._times
    by_rest = [times(c) for c in rest]
    idp = G._id()
    for p in G._iter_payloads():
        by_p = times(p)
        acc = by_p(first)
        for by_c in by_rest:
            acc = by_p(by_c(acc))
        if acc == idp:
            return Element(G, p)
    return None


def levin_solve(eq: PositiveEquation, G: Group) -> Element:
    """Solve a positive equation of degree n in G wr Z_n.

    The answer is (s, ..., s) at shift 0 for s = `solve_in_group(eq, G)`,
    else (g1^-1, ..., gn^-1) at shift 1. Degree-1 equations are solved
    inside G directly (x = g1^-1), no wreath product involved. Every answer
    is verified by one full evaluation before it is returned.
    """
    if eq.group is not G:
        raise PreconditionError("coefficients do not live in the given group")
    n = eq.degree
    if n == 1:
        H, embed, x = G, (lambda e: e), G.inv(eq.coefficients[0])
    else:
        H = wreath_cyclic(G, n)
        embed = H.diag_embed
        s = solve_in_group(eq, G)
        if s is not None:
            x = H.diag_embed(s)
        else:
            x = Element(H, H.pack(tuple(G._inv(g.payload) for g in eq.coefficients), 1))
    if evaluate(eq, H, embed, x) != H.identity:
        raise Falsification("Levin's solution is rejected by the evaluator")
    return x


class AdjoinRootResult(NamedTuple):
    wreath: WreathGroup
    embed: Callable[[Element], Element]
    root: Element


def adjoin_nth_root(G: Group, g: Element, n: int) -> AdjoinRootResult:
    """G wr Z_n together with the closed-form n-th root of the diagonal
    image of g; no searching involved."""
    G._check(g)
    if n < 2:
        raise PreconditionError(f"root degree must be at least 2, got {n}")
    W = wreath_cyclic(G, n)
    return AdjoinRootResult(wreath=W, embed=W.diag_embed, root=levin_root(W, g))
