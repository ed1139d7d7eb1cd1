"""Exhaustive verification of the overgroup lower bound inside ambient
symmetric groups.

For a fixed embedded dihedral copy and one canonical reflection g, every
x in S_m with x^2 = g is built directly from the cycle type of g (never by
scanning S_m) and the order of <r, s, x> is computed with a capped
breadth-first closure; the histogram of observed orders is the empirical
content of the bound.

The "natural" embedding tiles the p-gon action across every complete block
of p points (leftover points stay fixed). With a single block a reflection
has (p-1)/2 transpositions, an odd count when p = 3 mod 4, so it has no
square root anywhere in S_m and the search is vacuous; the tiled copy at
m >= 2p is what admits roots and realizes the bound tightly.
"""

from __future__ import annotations

from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterator

from . import perms
from .core import AtLeast, Exact, perm_closure
from .dihedral import is_prime
from .errors import Falsification, PreconditionError

MAX_DEGREE = perms.MAX_DEGREE


@dataclass(frozen=True)
class DihedralEmbedding:
    p: int
    m: int
    kind: str
    rotation: perms.Perm
    reflection: perms.Perm
    reflections: tuple[perms.Perm, ...]

    @property
    def generators(self) -> tuple[perms.Perm, perms.Perm]:
        return (self.rotation, self.reflection)


def embed_dihedral(p: int, m: int, kind: str = "natural") -> DihedralEmbedding:
    """Generators of a D_p copy inside S_m plus its reflection list.

    natural: the p-gon action, tiled over every complete block of p points;
    regular: translation action on the 2p group elements, fixed-point-free.
    """
    if not is_prime(p):
        raise PreconditionError(f"p = {p} is not prime")
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
    rotation = tuple(r)
    reflection = tuple(s)
    refl_list = tuple(
        perms.compose(reflection, perms.perm_power(rotation, i)) for i in range(p)
    )
    return DihedralEmbedding(
        p=p, m=m, kind=kind, rotation=rotation, reflection=reflection,
        reflections=refl_list,
    )


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


def closure_order_capped(gens, cap: int):
    """Breadth-first closure size of permutation generators of one degree,
    aborting the moment the partial set reaches the cap: Exact(k) or
    AtLeast(cap)."""
    if cap < 1:
        raise PreconditionError(f"cap must be positive, got {cap}")
    _, ordered, complete = perm_closure(gens, cap)
    if not complete:
        return AtLeast(cap)
    return Exact(len(ordered))


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
    workers: int = 1

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


def _search_chunk(task) -> tuple[dict[int, int], int, tuple | None]:
    """Histogram one contiguous chunk of roots; returns (exact counts,
    capped count, best (order, position, root))."""
    gens, roots, offset, cap = task
    exact: dict[int, int] = {}
    capped = 0
    best = None
    for idx, x in enumerate(roots):
        size = closure_order_capped(list(gens) + [x], cap)
        if isinstance(size, Exact):
            exact[size.count] = exact.get(size.count, 0) + 1
            candidate = (size.count, offset + idx, x)
            if best is None or candidate[:2] < best[:2]:
                best = candidate
        else:
            capped += 1
    return exact, capped, best


def min_overgroup_search(
    p: int,
    m: int,
    kind: str = "natural",
    cap: int = 1000,
    workers: int = 1,
) -> SearchReport:
    """Histogram |<D_p generators, x>| over all square roots x of the
    canonical reflection, with a one-sided cap.

    The verdict asserts the bound only for p = 3 mod 4; a genuine
    observation below 4p^2 there is a hard failure, not a report line.
    """
    if cap < 1:
        raise PreconditionError(f"cap must be positive, got {cap}")
    if workers < 1:
        raise PreconditionError(f"workers must be positive, got {workers}")
    emb = embed_dihedral(p, m, kind)
    g = emb.reflection
    gens = emb.generators
    roots = list(square_roots_in_Sm(m, g))
    workers = min(workers, max(1, len(roots)))
    if workers == 1 or len(roots) == 0:
        results = [_search_chunk((gens, roots, 0, cap))]
    else:
        chunk = (len(roots) + workers - 1) // workers
        tasks = [
            (gens, roots[i : i + chunk], i, cap) for i in range(0, len(roots), chunk)
        ]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_search_chunk, tasks))

    exact: dict[int, int] = {}
    capped = 0
    best = None
    for ex, cp, bst in results:
        for order, n in ex.items():
            exact[order] = exact.get(order, 0) + n
        capped += cp
        if bst is not None and (best is None or bst[:2] < best[:2]):
            best = bst

    if sum(exact.values()) + capped != len(roots):
        raise Falsification("histogram total drifted from the root count")

    bound = 4 * p * p
    minimum = best[0] if best is not None else None
    min_witness = best[2] if best is not None else None

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
        p=p,
        m=m,
        kind=kind,
        cap=cap,
        reflection=g,
        root_count=len(roots),
        exact_counts=exact,
        capped_count=capped,
        minimum=minimum,
        min_witness=min_witness,
        verdict=verdict,
        bound=bound,
        workers=workers,
    )
