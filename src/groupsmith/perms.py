"""Raw permutations as image tuples on points 0..m-1.

These are the plumbing shared by the permutation-backed groups and the
ambient symmetric-group searches, with the primality test that both the
dihedral replay and the search apply to p. The product convention is
function composition: (a * b)(i) = a(b(i)). A product is one
`operator.itemgetter` call in C from degree 2 up, as is a `conjugator`'s
y^-1 h y; below degree 2, where itemgetter returns a scalar or cannot be
built, each is a list comprehension. `invert` stays a loop, which beat
rewrites by `sorted`, a dict or `list.index` at every degree from 3 to 188.
"""

from __future__ import annotations

from itertools import permutations
from operator import itemgetter
from typing import Callable, Iterable, Iterator

from .errors import ParseError, PreconditionError

Perm = tuple[int, ...]


def identity_perm(m: int) -> Perm:
    return tuple(range(m))


def is_perm(p: Perm) -> bool:
    return sorted(p) == list(range(len(p)))


def _checked_generators(generators: Iterable[Perm], degree: int | None = None) -> tuple:
    """The distinct generators sorted, checked to be permutations of one
    degree, and that degree (`degree` when given; otherwise theirs, 0 when
    there are none)."""
    gens = tuple(sorted(set(tuple(g) for g in generators)))
    if degree is None:
        degrees = {len(g) for g in gens}
        if len(degrees) > 1:
            raise PreconditionError(f"generators mix degrees {sorted(degrees)}")
        degree = degrees.pop() if degrees else 0
    for g in gens:
        if len(g) != degree or not is_perm(g):
            raise PreconditionError(f"{g!r} is not a permutation of degree {degree}")
    return gens, degree


def compose(a: Perm, b: Perm) -> Perm:
    """a after b: (a*b)(i) = a(b(i))."""
    if len(b) > 1:
        return itemgetter(*b)(a)
    return tuple([a[i] for i in b])


def invert(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


def conjugator(y: Perm) -> Callable[[Perm], Perm]:
    """h -> y^-1 h y in one pass, i -> y^-1(h(y(i))), with y inverted and
    its itemgetter built once."""
    yinv = invert(y)
    if len(y) > 1:
        at_y = itemgetter(*y)
        return lambda h: itemgetter(*at_y(h))(yinv)
    return lambda h: tuple([yinv[h[j]] for j in y])


def cycles(p: Perm) -> list[tuple[int, ...]]:
    """Cycle decomposition, fixed points omitted, each cycle starting at
    its least point, cycles ordered by least point."""
    seen = [False] * len(p)
    out = []
    for i in range(len(p)):
        if seen[i] or p[i] == i:
            seen[i] = True
            continue
        cyc = []
        j = i
        while not seen[j]:
            seen[j] = True
            cyc.append(j)
            j = p[j]
        out.append(tuple(cyc))
    return out


def parity(p: Perm) -> int:
    """0 for even, 1 for odd, from the cycle decomposition."""
    return sum(len(c) - 1 for c in cycles(p)) % 2


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def all_perms_lex(m: int) -> Iterator[Perm]:
    """Every permutation of degree m in lexicographic image order."""
    return permutations(range(m))


def render_cycles(p: Perm, base: int = 0) -> str:
    """Cycle notation string; base=1 gives the classic 1-based display."""
    cs = cycles(p)
    if not cs:
        return "()"
    return "".join("(" + " ".join(str(x + base) for x in c) + ")" for c in cs)


def parse_cycles(s: str, degree: int, base: int = 0) -> Perm:
    """Inverse of render_cycles; accepts any disjoint cycle form."""
    text = s.strip()
    if not text:
        raise ParseError(s, "empty element string")
    if text in ("()", "e"):
        return identity_perm(degree)
    images = list(range(degree))
    touched: set[int] = set()
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        if text[pos] != "(":
            raise ParseError(s, "expected '('", pos)
        close = text.find(")", pos)
        if close < 0:
            raise ParseError(s, "unbalanced '('", pos)
        body = text[pos + 1 : close].replace(",", " ").split()
        try:
            points = [int(tok) - base for tok in body]
        except ValueError:
            raise ParseError(s, "cycle entries must be integers", pos) from None
        if len(points) == 1:
            raise ParseError(s, "cycles need at least two points", pos)
        for x in points:
            if not 0 <= x < degree:
                raise ParseError(s, f"point {x + base} out of range for degree {degree}", pos)
            if x in touched:
                raise ParseError(s, f"point {x + base} repeated", pos)
            touched.add(x)
        for a, b in zip(points, points[1:] + points[:1]):
            images[a] = b
        pos = close + 1
    return tuple(images)
