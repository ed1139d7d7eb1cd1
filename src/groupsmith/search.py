"""Exhaustive verification of the overgroup lower bound inside ambient
symmetric groups.

For a fixed embedded dihedral copy and one canonical reflection g, every
x in S_m with x^2 = g is built directly from the cycle type of g (never by
scanning S_m) and the order of <r, s, x> comes from a Schreier-Sims chain
that stops once it proves the cap; the histogram of observed orders is the
empirical content of the bound.

The "natural" embedding tiles the p-gon action across every complete block
of p points (leftover points stay fixed). With a single block a reflection
has (p-1)/2 transpositions, an odd count when p = 3 mod 4, so it has no
square root anywhere in S_m and the search is vacuous; the tiled copy at
m >= 2p is what admits roots and realizes the bound tightly. The "regular"
embedding's reflection is p transpositions, an odd count for every odd p,
so it has no square root at any m and its search is always vacuous.

A permutation c that commutes with s and maps r into <r> normalizes
<r, s>, so c x c^-1 is again a root and <r, s, c x c^-1> = c <r, s, x> c^-1
has the order of <r, s, x>, as has <r, s, x^-1> = <r, s, x>. So the search
closes only the least root of each orbit under such c and inversion, and
counts it once per member.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import prod
from typing import Callable, Iterator, NamedTuple

from . import perms
from .core import closure_payloads
from .errors import Falsification, PreconditionError

MAX_DEGREE = 22


@dataclass(frozen=True)
class DihedralEmbedding:
    p: int
    m: int
    kind: str
    rotation: perms.Perm
    reflection: perms.Perm

    @property
    def generators(self) -> tuple[perms.Perm, perms.Perm]:
        return (self.rotation, self.reflection)


def embed_dihedral(p: int, m: int, kind: str = "natural") -> DihedralEmbedding:
    """Generators of a D_p copy inside S_m.

    natural: the p-gon action, tiled over every complete block of p points;
    regular: translation action on the 2p group elements, fixed-point-free.
    """
    if not perms.is_prime(p):
        raise PreconditionError(f"p = {p} is not prime")
    if p == 2:  # s would fix every tiled point, so every involution is a root
        raise PreconditionError("p = 2: the search needs an odd prime")
    if m > MAX_DEGREE:
        raise PreconditionError(f"degree {m} exceeds the limit {MAX_DEGREE}")
    if kind == "natural":
        if m < p:
            raise PreconditionError(f"natural embedding needs m >= p, got m = {m}")
        r = list(range(m))
        s = list(range(m))
        for block in range(m // p):
            off = block * p
            for j in range(p):
                r[off + j] = off + (j + 1) % p
                s[off + j] = off + (-j) % p
    elif kind == "regular":
        if m < 2 * p:
            raise PreconditionError(f"regular embedding needs m >= 2p, got m = {m}")
        # points 0..p-1 are rotations r^j, points p..2p-1 reflections s*r^j;
        # left translation is a homomorphism under composition and acts
        # fixed-point-freely on the 2p points
        r = list(range(m))
        s = list(range(m))
        for j in range(p):
            r[j] = (j + 1) % p  # r * r^j = r^(j+1)
            r[p + j] = p + (j - 1) % p  # r * (s r^j) = s r^(j-1)
            s[j] = p + j  # s * r^j
            s[p + j] = j  # s * (s r^j) = r^j
    else:
        raise PreconditionError(f"unknown embedding kind {kind!r}")
    return DihedralEmbedding(p=p, m=m, kind=kind, rotation=tuple(r), reflection=tuple(s))


def square_roots_in_Sm(m: int, g: perms.Perm) -> Iterator[perms.Perm]:
    """Exactly the x in S_m with x*x = g, in lexicographic image order.

    Built from the cycles of g (fixed points count as 1-cycles) rather than
    by scanning S_m: an odd-length cycle either takes its own root, g to
    the power (L+1)/2 on that cycle, or pairs with another cycle of its
    length; an even-length cycle must pair. Two cycles a, b of length L
    pair in L ways, x(a_i) = b_(i+j) and x(b_(i+j)) = a_(i+1) for j in
    0..L-1. Sorting the roots at the end restores the scan order, so the
    work grows with the number of roots, not with m!.
    """
    if m > MAX_DEGREE:
        raise PreconditionError(f"degree {m} exceeds the limit {MAX_DEGREE}")
    if len(g) != m or not perms.is_perm(g):
        raise PreconditionError(f"{g!r} is not a permutation of degree {m}")
    cycles = perms.cycles(g) + [(i,) for i in range(m) if g[i] == i]
    lengths = Counter(len(c) for c in cycles)
    if any(length % 2 == 0 and n % 2 for length, n in lengths.items()):
        return
    yield from sorted(_roots_of_cycles(cycles, [0] * m))


def _roots_of_cycles(cycles: list[tuple[int, ...]], x: list[int]) -> Iterator[perms.Perm]:
    """Every way to finish the partial root x on the given cycles, whose
    even lengths must come in even numbers."""
    if not cycles:
        yield tuple(x)
        return
    a, rest = cycles[0], cycles[1:]
    length = len(a)
    if length % 2:
        half = (length + 1) // 2
        for i in range(length):
            x[a[i]] = a[(i + half) % length]
        yield from _roots_of_cycles(rest, x)
    for k, b in enumerate(rest):
        if len(b) != length:
            continue
        others = rest[:k] + rest[k + 1 :]
        for j in range(length):
            for i in range(length):
                x[a[i]] = b[(i + j) % length]
                x[b[(i + j) % length]] = a[(i + 1) % length]
            yield from _roots_of_cycles(others, x)


class CappedOrder(NamedTuple):
    """A closure size and whether the closure finished; a closure that did
    not stopped at the cap, a lower bound on its order."""

    count: int
    complete: bool

    @property
    def is_exact(self) -> bool:
        """`complete`, by the name `bench/layers.py` counts capped closures with."""
        return self.complete


def closure_order_capped(gens, cap: int) -> CappedOrder:
    """Order of the group generated by permutations of one degree, capped:
    (order, True) below the cap, else (cap, False), as from a breadth-first
    closure aborted at the cap, but counted by `_chain_order` unlisted."""
    if cap < 1:
        raise PreconditionError(f"cap must be positive, got {cap}")
    order = _chain_order(perms._checked_generators(gens)[0], cap)
    return CappedOrder(min(order, cap), order < cap)


def _chain_order(gens, stop: int) -> int:
    """|<gens>| by a deterministic Schreier-Sims chain, or a lower bound on
    it once that reaches `stop` (Sims 1970; Seress 2003, ch. 4).

    Level l holds a base point b_l (the first point moved by the generator
    that opened it), generators S_l as pairs (s, s^-1), and the orbit D_l
    of b_l under <S_l> as q -> (u, u^-1) with u(b_l) = q. Each Schreier
    generator u_s(q)^-1 s u_q of level l is sifted through the deeper
    levels; a residue other than the identity fixes b_0..b_j-1, where the
    sift stopped, so it joins S_l+1..S_j (opening level j if needed) and
    the walk resumes at level j.

    Lower bound at every step: each residue lies in <S_l> and fixes
    b_0..b_l, so <S_l+1> <= <S_l>_b_l, |<S_l>| >= |D_l| |<S_l+1>| and
    |<gens>| >= prod |D_l|. Equality at the end: every Schreier generator
    then sifts, so the S_l are a base and strong generating set.
    """
    ident = perms.identity_perm(len(gens[0])) if gens else ()
    levels: list[tuple[int, list, dict]] = []  # (b_l, S_l, D_l)

    def add(level: int, y: perms.Perm) -> None:
        if level == len(levels):
            b = next(i for i, v in enumerate(y) if v != i)
            levels.append((b, [], {b: (ident, ident)}))
        _, strong, orbit = levels[level]
        strong.append((y, perms.invert(y)))
        todo = list(orbit)
        for q in todo:
            u, u_inv = orbit[q]
            for s, s_inv in strong:
                if s[q] not in orbit:
                    orbit[s[q]] = (perms.compose(s, u), perms.compose(u_inv, s_inv))
                    todo.append(s[q])

    def unsifted(level: int) -> Iterator[tuple[perms.Perm, int]]:
        """Residue and stopping level of each Schreier generator that does not sift."""
        _, strong, orbit = levels[level]
        for q, (u, _) in orbit.items():
            for s, _ in strong:
                h, j = perms.compose(orbit[s[q]][1], perms.compose(s, u)), level + 1
                for b, _, deeper in levels[j:]:
                    if h[b] not in deeper:
                        break
                    h, j = perms.compose(deeper[h[b]][1], h), j + 1
                if h != ident:
                    yield h, j

    for g in gens:
        if g != ident:
            add(0, g)
    level = len(levels) - 1
    while level >= 0 and prod(len(orbit) for _, _, orbit in levels) < stop:
        h, j = next(unsifted(level), (ident, level - 1))  # no residue: up one level
        for k in range(level + 1, j + 1):
            add(k, h)
        level = j
    return prod(len(orbit) for _, _, orbit in levels)


def _symmetries(emb: DihedralEmbedding) -> list[perms.Perm]:
    """Permutations meant to commute with the reflection and map the
    rotation into its own powers. Natural embedding: j -> a*j mod p on
    every block (a a primitive root mod p), then a swap and a cycle of the
    blocks and of the points the tiling leaves over. Regular: none, since
    its reflection has no square root."""
    if emb.kind != "natural":
        return []
    p, m = emb.p, emb.m
    a = next(a for a in range(1, p) if len({pow(a, k, p) for k in range(1, p)}) == p - 1)
    tiled = m - m % p
    moves = [tuple(i - i % p + a * i % p if i < tiled else i for i in range(m))]
    for start, width, end in ((0, p, tiled), (tiled, 1, m)):
        if end - start >= 2 * width:
            cycle = [*range(start + width, end), *range(start, start + width)]
            swap = [*cycle[:width], *range(start, start + width), *range(start + 2 * width, end)]
            moves += [(*range(start), *images, *range(end, m)) for images in (swap, cycle)]
    return sorted(set(moves))


def _conjugation(c: perms.Perm) -> Callable[[perms.Perm], perms.Perm]:
    """x -> c x c^-1."""
    c_inv = perms.invert(c)
    return lambda x: perms.compose(perms.compose(c, x), c_inv)


@dataclass
class SearchReport:
    p: int
    m: int
    kind: str
    cap: int
    reflection: perms.Perm
    root_count: int
    exact_counts: dict[int, int]
    capped_count: int
    minimum: int | None
    min_witness: perms.Perm | None
    verdict: str
    bound: int

    def histogram_rows(self) -> list[tuple[str, int]]:
        rows = [(str(order), n) for order, n in sorted(self.exact_counts.items())]
        if self.capped_count:
            rows.append((f">={self.cap}", self.capped_count))
        return rows

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "m": self.m,
            "kind": self.kind,
            "cap": self.cap,
            "reflection": perms.render_cycles(self.reflection, base=0),
            "root_count": self.root_count,
            "histogram": {label: n for label, n in self.histogram_rows()},
            "minimum": self.minimum,
            "min_witness": (
                perms.render_cycles(self.min_witness, base=0)
                if self.min_witness is not None
                else None
            ),
            "bound": self.bound,
            "verdict": self.verdict,
        }


def min_overgroup_search(p: int, m: int, kind: str = "natural", cap: int = 1000) -> SearchReport:
    """Histogram |<D_p generators, x>| over all square roots x of the
    canonical reflection, with a one-sided cap, closing one root per orbit.

    A symmetry that fails its check, an orbit that leaves the uncounted
    roots, and for p = 3 mod 4 an order below 4p^2 raise `Falsification`.
    """
    if cap < 1:
        raise PreconditionError(f"cap must be positive, got {cap}")
    emb = embed_dihedral(p, m, kind)
    g = emb.reflection
    rotations = {perms.perm_power(emb.rotation, k) for k in range(p)}
    moves = [perms.invert]
    for c in _symmetries(emb):
        moves.append(_conjugation(c))
        if perms.compose(c, g) != perms.compose(g, c) or moves[-1](emb.rotation) not in rotations:
            raise Falsification(
                f"{perms.render_cycles(c)} does not commute with s and normalize <r>"
            )
    roots = list(square_roots_in_Sm(m, g))
    uncounted = set(roots)
    exact: Counter[int] = Counter()
    capped = 0
    best = None
    for x in roots:  # lexicographic, so x is the least root of its orbit
        if x not in uncounted:
            continue
        orbit, _ = closure_payloads(x, moves, lambda y, move: move(y))
        if not uncounted.issuperset(orbit):
            raise Falsification(f"the orbit of {perms.render_cycles(x)} leaves the uncounted roots")
        uncounted.difference_update(orbit)
        size, complete = closure_order_capped([*emb.generators, x], cap)
        if complete:
            exact[size] += len(orbit)
            best = min(best or (size, x), (size, x))  # roots are in lex order
        else:
            capped += len(orbit)

    if sum(exact.values()) + capped != len(roots):
        raise Falsification("histogram total drifted from the root count")

    bound = 4 * p * p
    minimum, min_witness = best if best is not None else (None, None)

    if p % 4 == 3:
        if not roots:
            verdict = "vacuous"
        else:
            if minimum is not None and minimum < bound:
                raise Falsification(
                    f"observed overgroup of order {minimum} below the bound {bound} "
                    f"with witness {perms.render_cycles(min_witness, base=0)}"
                )
            if capped and cap < bound:
                verdict = f"inconclusive (cap {cap} below bound {bound})"
            else:
                verdict = "bound holds in universe"
    else:
        verdict = "not-applicable (p = 1 mod 4)"

    return SearchReport(
        p=p, m=m, kind=kind, cap=cap, reflection=g, root_count=len(roots),
        exact_counts=dict(exact), capped_count=capped, minimum=minimum,
        min_witness=min_witness, verdict=verdict, bound=bound,
    )
