"""Per-layer instrumentation for the traced run, installed from outside the
library by replacing module and class attributes.

Two passes give the layer metrics, so that per-call counters do not
inflate span times:

* `Spans` records a span around each public entry point of the layers
  (name, start, end, parent span, job); self time is a span's duration
  minus that of its child spans.
* `Counts` counts the per-call kernels (`perms.compose`, `TableGroup._mul`,
  `WreathGroup._mul`) and the permutations the root search scans, keeps a
  sample of the kernels' operands, and afterwards times each kernel on
  that sample with instrumentation removed.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import Counter

from groupsmith import cli, constructions, core, dihedral, equations, perms, search

# (span name, owner, attribute): the public calls into each layer.
SPANNED = (
    ("cli.main", cli, "main"),
    ("core.closure", core, "closure_payloads"),
    ("core.quotient", core.Group, "quotient"),
    ("core.mutual_commutator", core, "mutual_commutator"),
    ("core.normal_closure", core, "normal_closure"),
    ("core.verify_group_axioms", core, "verify_group_axioms"),
    ("constructions.lemma7_subgroup", constructions, "lemma7_subgroup"),
    ("constructions.lemma8_construct", constructions, "lemma8_construct"),
    ("constructions.prop1_embedding", constructions, "prop1_embedding"),
    ("constructions.named_group", constructions, "named_group"),
    ("equations.levin_solve", equations, "levin_solve"),
    ("equations.solve_in_group", equations, "solve_in_group"),
    ("equations.evaluate", equations, "evaluate"),
    ("dihedral.vertex_perm", dihedral.ConjugateGraph, "vertex_perm"),
    ("dihedral.conjugates_in", dihedral, "conjugates_in"),
    ("dihedral.normalizer_in", dihedral, "normalizer_in"),
    ("dihedral.lemma2_check", dihedral, "lemma2_check"),
    ("dihedral.theorem1_trace", dihedral, "theorem1_trace"),
    ("search.square_roots", search, "square_roots_in_Sm"),
    ("search.closure_order_capped", search, "closure_order_capped"),
)

SAMPLE_EVERY = 61
SAMPLE_SIZE = 2048


class Patches:
    """Attribute replacements that can be undone.

    A function is replaced in every groupsmith module that holds it, since
    `from .core import f` binds a second name; a method is replaced on its
    class.
    """

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make):
        old = getattr(owner, attr)
        new = make(old)
        if isinstance(owner, type):
            holders = [(owner, attr)]
        else:
            holders = [
                (module, name)
                for mod_name, module in list(sys.modules.items())
                if mod_name == "groupsmith" or mod_name.startswith("groupsmith.")
                for name, value in list(vars(module).items())
                if value is old
            ]
        for holder, name in holders:
            self._undo.append((holder, name, old))
            setattr(holder, name, new)

    def undo(self) -> None:
        while self._undo:
            holder, name, old = self._undo.pop()
            setattr(holder, name, old)


class Spans:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, job]
        self.job = None
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches = Patches()

    def _wrap(self, name: str, fn, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            record = [name, clock(), None, stack[-1] if stack else None, self.job]
            stack.append(len(spans))
            spans.append(record)
            try:
                out = fn(*args, **kwargs)
                if on_result is not None:
                    out = on_result(out)
                return out
            finally:
                stack.pop()
                record[2] = clock()

        return traced

    def _closure_done(self, out):
        ordered, complete = out
        self.counts["core.closure.elements"] += len(ordered)
        self.counts["core.closure.capped"] += not complete
        return out

    def _capped_done(self, out):
        self.counts["search.closure_order_capped.capped"] += not out.is_exact
        return out

    def install(self) -> None:
        hooks = {
            "core.closure": self._closure_done,
            "search.closure_order_capped": self._capped_done,
            # the root search is a generator: consume it inside the span
            "search.square_roots": lambda gen: iter(list(gen)),
        }
        for name, owner, attr in SPANNED:
            self._patches.replace(
                owner, attr, lambda fn, name=name: self._wrap(name, fn, hooks.get(name))
            )

    def uninstall(self) -> None:
        self._patches.undo()

    def metrics(self) -> dict[str, float]:
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict[str, float] = {}
        for name, _, _ in SPANNED:
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
        for (name, start, end, _, _), child in zip(self.spans, covered):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (end - start) - child
        for name in ("core.closure.elements", "core.closure.capped"):
            out[name] = self.counts[name]
        calls = out["search.closure_order_capped.calls"]
        capped = self.counts["search.closure_order_capped.capped"]
        out["search.capped_share"] = capped / calls if calls else 0.0
        return out

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "job")
        rows = [dict(zip(keys, span), id=i) for i, span in enumerate(self.spans)]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(rows))


class Counts:
    def __init__(self):
        self.counts: Counter = Counter()
        self._patches = Patches()
        # the kernel each operand sample is timed on, taken before install
        self._kernels = {
            "compose": perms.compose,
            "table_mul": core.TableGroup._mul,
            "wreath_perm_base": constructions.WreathGroup._mul,
            "wreath_table_base": constructions.WreathGroup._mul,
        }
        self.samples: dict[str, list[tuple]] = {name: [] for name in self._kernels}

    def _counted(self, metric: str, fn, sample_of):
        counts = self.counts

        def counted(*args):
            n = counts[metric] = counts[metric] + 1
            if n % SAMPLE_EVERY == 0:
                bucket = self.samples[sample_of(args)]
                if len(bucket) < SAMPLE_SIZE:
                    bucket.append(args)
            return fn(*args)

        return counted

    def _scanned(self, fn):
        counts = self.counts

        def scanned(*args):
            n = 0
            try:
                for x in fn(*args):
                    n += 1
                    yield x
            finally:
                counts["search.perms_scanned"] += n

        return scanned

    def _roots(self, fn):
        def roots(*args):
            found = list(fn(*args))
            self.counts["search.roots"] += len(found)
            return iter(found)

        return roots

    def install(self) -> None:
        def wreath_kind(args):
            backend = args[0].base.backend
            return "wreath_table_base" if backend == "dense-table" else "wreath_perm_base"

        patch = self._patches.replace
        patch(perms, "compose", lambda fn: self._counted(
            "perms.compose.calls", fn, lambda args: "compose"))
        patch(core.TableGroup, "_mul", lambda fn: self._counted(
            "core.table_mul.calls", fn, lambda args: "table_mul"))
        patch(constructions.WreathGroup, "_mul", lambda fn: self._counted(
            "constructions.wreath_mul.calls", fn, wreath_kind))
        patch(perms, "all_perms_lex", self._scanned)
        patch(search, "square_roots_in_Sm", self._roots)

    def uninstall(self) -> None:
        self._patches.undo()

    def metrics(self) -> dict[str, float]:
        """Counts, plus each kernel's time per call on its own sampled
        operands; call only after `uninstall`."""
        out = {
            name: self.counts[name]
            for name in (
                "perms.compose.calls", "core.table_mul.calls",
                "constructions.wreath_mul.calls", "search.perms_scanned", "search.roots",
            )
        }
        roots, scanned = out["search.roots"], out["search.perms_scanned"]
        # roots per permutation examined; a search that builds its roots
        # without scanning examines only the roots themselves
        out["search.root_yield"] = roots / max(roots, scanned) if roots else 0.0
        sample_of = {
            "perms.compose.ns": "compose",
            "core.table_mul.ns": "table_mul",
            "constructions.wreath_mul.ns.perm_base": "wreath_perm_base",
            "constructions.wreath_mul.ns.table_base": "wreath_table_base",
        }
        for name, sample in sample_of.items():
            out[name] = ns_per_call(self._kernels[sample], self.samples[sample])
        return out


def ns_per_call(fn, samples: list[tuple], repeats: int = 5, budget_s: float = 0.04) -> float:
    """Median over `repeats` timings of nanoseconds per call of fn over the
    sampled argument tuples; 0.0 when there are no samples."""
    if not samples:
        return 0.0
    per_call = []
    for _ in range(repeats):
        calls = 0
        start = time.perf_counter()
        while True:
            for args in samples:
                fn(*args)
            calls += len(samples)
            elapsed = time.perf_counter() - start
            if elapsed >= budget_s:
                break
        per_call.append(elapsed / calls * 1e9)
    return statistics.median(per_call)
