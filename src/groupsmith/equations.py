"""Positive equations g1*x*g2*x*...*gn*x = 1 over a finite group, their
in-group brute-force solver, and the wreath-product solver that always
succeeds.

The wreath solver returns the first solution (f, k) in lexicographic (k, f)
order. Evaluating the equation at (f, k) leaves shift 0 and base coordinates

    F(i) = g1 * f(i) * g2 * f(i - k) * ... * gn * f(i - (n-1)k)   (mod n).

Shift 0 is the in-group equation: every F(i) reads only f(i), so its first
solution is (s, ..., s) for the first in-group solution s, if there is one.
Otherwise the answer has shift 1, which always has a solution,
f = (g1^-1, ..., gn^-1) among them [Levin62]: its search scans
f(0..n-2) and forces f(n-1) = (R * g1)^-1 from F(n-1) = g1 * f(n-1) * R.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable

from .constructions import WreathGroup, levin_root, wreath_cyclic
from .core import Element, Group
from .errors import CapExceeded, Falsification, ParseError, PreconditionError

LEVIN_SEARCH_CAP = 10_000_000


@dataclass(frozen=True)
class PositiveEquation:
    """Coefficient sequence (g1, ..., gn) for g1*x*g2*x*...*gn*x = 1."""

    coefficients: tuple[Element, ...]

    def __post_init__(self):
        if not self.coefficients:
            raise PreconditionError("a positive equation needs at least one coefficient")
        g0 = self.coefficients[0]
        for g in self.coefficients:
            if g.group is not g0.group:
                raise PreconditionError("all coefficients must share one group")

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
    """embed(g1) * x * embed(g2) * x * ... * embed(gn) * x, computed in H."""
    H._check(x)
    acc = H.identity
    for g in eq.coefficients:
        img = embed(g)
        H._check(img)
        acc = acc * img * x
    return acc


def solve_in_group(eq: PositiveEquation, G: Group) -> Element | None:
    """First x in G's canonical enumeration solving the equation, if any."""
    if eq.group is not G:
        raise PreconditionError("coefficients do not live in the given group")
    coeff_pays = [g.payload for g in eq.coefficients]
    idp = G._id()
    mul = G._mul
    for p in G._iter_payloads():
        acc = idp
        for c in coeff_pays:
            acc = mul(mul(acc, c), p)
        if acc == idp:
            return Element(G, p)
    return None


def levin_solve(
    eq: PositiveEquation, G: Group, *, cap: int = LEVIN_SEARCH_CAP
) -> Element:
    """Solve a positive equation of degree n in G wr Z_n.

    Returns the first solution in lexicographic (k, f) order, re-verified by
    full evaluation: (s, ..., s) at shift 0 for s = `solve_in_group(eq, G)`,
    else `_first_at_shift_one`'s. Degree-1 equations are solved inside G
    directly (x = g1^-1), no wreath product involved. A fruitless search
    raises a hard error: existence is guaranteed, so absence means a bug.
    """
    if eq.group is not G:
        raise PreconditionError("coefficients do not live in the given group")
    if cap < 1:
        raise PreconditionError(f"cap must be positive, got {cap}")
    n = eq.degree
    if n == 1:
        return G.inv(eq.coefficients[0])
    if n * G.order**n > cap:
        raise CapExceeded(
            f"search space n*|G|^n = {n * G.order ** n} exceeds cap {cap}"
        )
    W = wreath_cyclic(G, n)
    s = solve_in_group(eq, G)
    f, k = ((s.payload,) * n, 0) if s is not None else (_first_at_shift_one(eq, G), 1)
    if f is None:
        raise Falsification(f"Levin violation: no solution of {eq.render()} found in {W.name}")
    x = Element(W, W.pack(f, k))
    if evaluate(eq, W, W.diag_embed, x) != W.identity:
        raise Falsification("Levin search produced a candidate the evaluator rejects")
    return x


def _first_at_shift_one(eq: PositiveEquation, G: Group) -> tuple | None:
    """The first f, in G's order index by index, with (f, 1) solving eq in
    G wr Z_n, or None; at most |G|^(n-1) heads f(0..n-2) are visited.

    Every F(i) reads f(n-1), and F(n-1) = g1 f(n-1) R with
    R = g2 f(n-2) ... gn f(0), so each head forces f(n-1) = (R g1)^-1; it is
    kept when F(0..n-2) are the identity too. A head always exists: with
    a_t = g_(t+1) and f(j) = a_j^-1, F(i) is the product over t of
    a_t a_(i-t)^-1. Split at t = i, each part is a word whose letter a_t at
    an even position faces a_t^-1 at its mirror position: u u^-1 = e.
    """
    n = eq.degree
    c = [g.payload for g in eq.coefficients]
    mul, inv, idp = G._mul, G._inv, G._id()

    def coordinate(f: tuple, i: int):
        acc = idp
        for t in range(n):
            acc = mul(mul(acc, c[t]), f[(i - t) % n])
        return acc

    for head in product(G._iter_payloads(), repeat=n - 1):
        rest = idp
        for t in range(1, n):
            rest = mul(mul(rest, c[t]), head[-t])
        f = head + (inv(mul(rest, c[0])),)
        if all(coordinate(f, i) == idp for i in range(n - 1)):
            return f
    return None


@dataclass
class AdjoinRootResult:
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
