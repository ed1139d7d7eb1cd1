"""Command-line front end with machine-readable reports.

Every subcommand emits one report: text for reading, json for tooling
(schema: tool_version, command, params, result, assertions, timing_ms),
csv where a histogram or table is the natural payload. Exit codes: 0 ok,
also when the reader closes stdout early, 1 falsified mathematical
assertion, 2 usage error, 3 resource cap, 4 internal error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
import time
from json.encoder import encode_basestring_ascii as _quote

from . import __version__
from .constructions import (
    dihedral_group,
    lemma7_by_class,
    lemma7_subgroup,
    lemma8_construct,
    named_group,
    prop1_embedding,
    wreath_cyclic,
)
from .core import (
    Element,
    Subgroup,
    default_cap,
    odd_abelian_normal_candidates,
    subgroup_generated,
    verify_group_axioms,
)
from .equations import (
    PositiveEquation,
    adjoin_nth_root,
    levin_solve,
    parse_equation,
)
from .errors import CapExceeded, Falsification, ParseError, PreconditionError


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process:
    parsing leaves it unchanged, and building it costs milliseconds."""
    parser = argparse.ArgumentParser(
        prog="groupsmith",
        description="economical root adjunction, positive-equation solving, "
        "and overgroup lower-bound verification for finite groups",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument(
            "--format", choices=["text", "json", "csv"], default="text",
            help="report format (default text)",
        )

    p = sub.add_parser("construct", help="build a named group and check the axioms")
    p.add_argument("--group", required=True, help="group spec, e.g. S3, D7, Z6, Z2xZ3")
    common(p)

    p = sub.add_parser("adjoin-sqrt", help="economical overgroup where an element is a square")
    p.add_argument("--group", required=True)
    p.add_argument("--element", required=True)
    common(p)

    p = sub.add_parser("adjoin-nth-root", help="wreath overgroup with an n-th root")
    p.add_argument("--group", required=True)
    p.add_argument("--element", required=True)
    p.add_argument("--n", type=int, required=True)
    common(p)

    p = sub.add_parser("solve-positive", help="solve positive equations in a wreath product")
    p.add_argument("--group", required=True)
    p.add_argument("--equation", help='equation text, e.g. "(1 2)*x*()*x*"')
    p.add_argument("--random", type=int, default=0, help="solve this many random equations")
    p.add_argument("--degree", type=int, default=2, help="degree of random equations")
    p.add_argument("--seed", type=int, default=0, help="seed for random equations")
    common(p)

    p = sub.add_parser("lemma7-check", help="closed form vs generated closure in G wr Z2")
    p.add_argument("--group", required=True)
    p.add_argument("--element", help="one element; default checks every element")
    common(p)

    p = sub.add_parser("lemma8-check", help="inversion subgroup normality and quotient")
    p.add_argument("--group", required=True)
    p.add_argument(
        "--normal-gens",
        help="comma-separated generators of N; default: smallest odd abelian normal",
    )
    common(p)

    p = sub.add_parser("prop1-embed", help="strategy chain for an order <= |G|^2 overgroup")
    p.add_argument("--group", required=True)
    p.add_argument("--element", required=True)
    common(p)

    p = sub.add_parser("theorem1-verify", help="replay the lower-bound proof at a prime p")
    p.add_argument("--p", type=int, required=True)
    common(p)

    p = sub.add_parser("residue-check", help="-1 as a square mod p versus p mod 4")
    p.add_argument("--max-p", type=int, required=True)
    common(p)

    p = sub.add_parser("search", help="minimum overgroup order inside S_m")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--cap", type=int, default=1000)
    p.add_argument(
        "--workers", type=int, default=None, help="ignored; the search runs in one process"
    )
    common(p)

    return parser


# -- handlers ------------------------------------------------------------------


def _render_root(root: Element) -> str:
    return root.group.render(root)


def cmd_construct(args):
    G = named_group(args.group)
    rep = verify_group_axioms(G)
    if not rep.ok:
        raise Falsification(f"group axioms failed for {G.name}: {rep.detail}")
    assertions = [
        {"name": law, "status": "pass"}
        for law in ("identity-law", "unique-inverses", "associativity-light")
    ]
    result = {
        "group": G.name,
        "order": G.order,
        "backend": G.backend,
        "abelian": G.is_abelian(),
        "center_order": G.center().order,
        "generators": [G.render(g) for g in G.generators],
    }
    return result, assertions


def _prop1_report(args) -> tuple:
    """`prop1_embedding` of --element in --group, with the result fields
    from "element" to "root" and the assertion that adjoin-sqrt and
    prop1-embed share. The root was squared and compared where it was
    built (`levin_root` or `Lemma8Result.root_image`)."""
    G = named_group(args.group)
    g = G.parse(args.element)
    res = prop1_embedding(G, g)
    fields = {
        "element": G.render(g),
        "strategy": res.strategy,
        "overgroup_order": res.overgroup_order,
        "order_bound": G.order**2,
        "meets_bound": res.meets_bound,
        "root": _render_root(res.root),
    }
    return G, res, fields, [{"name": "root-squares-to-embedded-element", "status": "pass"}]


def cmd_adjoin_sqrt(args):
    G, _, fields, assertions = _prop1_report(args)
    return {"group": G.name, **fields}, assertions


def cmd_adjoin_nth_root(args):
    G = named_group(args.group)
    g = G.parse(args.element)
    res = adjoin_nth_root(G, g, args.n)
    result = {
        "group": G.name,
        "element": G.render(g),
        "n": args.n,
        "wreath": res.wreath.name,
        "wreath_order": res.wreath.order,
        "root": _render_root(res.root),
    }
    assertions = [{"name": "root-power-verified", "status": "pass"}]
    return result, assertions


def cmd_solve_positive(args):
    G = named_group(args.group)
    equations: list[PositiveEquation] = []
    if args.random < 0:
        raise PreconditionError(f"--random must be nonnegative, got {args.random}")
    if args.equation is not None:
        equations.append(parse_equation(G, args.equation))
    if args.random:
        if args.degree < 1:
            raise PreconditionError("--degree must be at least 1")
        if args.degree > 1:  # the wreath cap refuses the degree before any draw
            wreath_cyclic(G, args.degree)
        drawn, cap = args.random * args.degree, default_cap()
        if drawn > cap:
            raise CapExceeded(
                f"{args.random} random equations of degree {args.degree} "
                f"draw {drawn} coefficients, above cap {cap}"
            )
        rng = random.Random(args.seed)
        pool = list(G.elements())
        for _ in range(args.random):
            equations.append(PositiveEquation(tuple(rng.choice(pool) for _ in range(args.degree))))
    if not equations:
        raise PreconditionError("give --equation and/or --random N")
    rows = []
    solved: dict = {}  # equation -> its row, so that a repeated equation is solved once
    for eq in equations:
        row = solved.get(eq)
        if row is None:
            # levin_solve evaluates its answer and raises Falsification if it fails
            x = levin_solve(eq, G)
            H = x.group
            in_group = x
            if H is not G:
                # a wreath solution of shift 0 is the in-group one on every
                # block of d points; its shift is where it sends point 0
                d = G.degree
                in_group = Element(G, x.payload[:d]) if x.payload[0] // d == 0 else None
            row = solved[eq] = {
                "equation": eq.render(),
                "solved_in": H.name,
                "solution": H.render(x),
                "verified": True,
                "in_group_solution": G.render(in_group) if in_group is not None else None,
            }
        rows.append(row)
    assertions = [{"name": f"solution-verified-{i}", "status": "pass"} for i in range(len(rows))]
    result = {"group": G.name, "count": len(rows), "solutions": rows}
    return result, assertions


def cmd_lemma7_check(args):
    G = named_group(args.group)
    if args.element is not None:
        g = G.parse(args.element)
        checked = [(g, lemma7_subgroup(G, g))]
    else:
        checked = lemma7_by_class(G)
    rows = []
    assertions = []
    for g, res in checked:
        rows.append(
            {
                "element": G.render(g),
                "subgroup_order": res.order,
                "commutator_order": res.commutator_part.order,
                "order_formula": 2 * G.order * res.commutator_part.order,
            }
        )
        assertions.append(
            {"name": f"formula-equals-closure[{G.render(g)}]", "status": "pass"}
        )
    result = {"group": G.name, "checked": len(rows), "subgroups": rows}
    return result, assertions


def cmd_lemma8_check(args):
    G = named_group(args.group)
    if args.normal_gens is not None:
        gens = [G.parse(s) for s in args.normal_gens.split(",")]
        N = subgroup_generated(G, gens)
    else:
        candidates = odd_abelian_normal_candidates(G)
        if not candidates:
            raise PreconditionError(
                f"{G.name} has no nontrivial odd abelian normal subgroup; "
                "pass --normal-gens"
            )
        N = candidates[0]
    res = lemma8_construct(G, N)
    result = {
        "group": G.name,
        "n_order": N.order,
        "n_elements": [G.render(e) for e in N.elements],
        "wreath_order": res.wreath.order,
        "k_order": res.subgroup_k.order,
        "k_normal": res.normal,
    }
    assertions = [{"name": "k-is-subgroup", "status": "pass"}]
    if res.normal:
        result["quotient_order"] = res.quotient.order
        result["embed_injective"] = res.embed_injective
        for g in G.elements():
            res.root_image(g)
        assertions.append({"name": "k-normal-in-wreath", "status": "pass"})
        assertions.append({"name": "root-images-square-correctly", "status": "pass"})
    else:
        member, conj = res.witness
        result["witness"] = {
            "member": res.wreath.render(member),
            "conjugator": res.wreath.render(conj),
        }
        assertions.append(
            {
                "name": "k-normal-in-wreath",
                "status": "fail",
                "witness": f"{res.wreath.render(member)} conjugated by "
                f"{res.wreath.render(conj)} leaves K",
            }
        )
    return result, assertions


def cmd_prop1_embed(args):
    G, res, fields, assertions = _prop1_report(args)
    result = {"group": G.name, "group_order": G.order, **fields}
    if res.lemma7 is not None:
        result["commutator_order"] = res.lemma7.commutator_part.order
    if res.lemma8 is not None:
        result["normal_subgroup_order"] = res.lemma8.subgroup_k.order
    return result, assertions


def cmd_theorem1_verify(args):
    from .dihedral import is_prime, theorem1_trace

    if args.p % 4 != 3 or not is_prime(args.p):  # refused before any group is built
        raise PreconditionError(f"p = {args.p} is not 3 mod 4 or not prime; the bound needs both")
    G = dihedral_group(args.p)
    g = G.parse("s*r^0")
    res = lemma7_subgroup(G, g)
    W, ambient = res.wreath, res.subgroup  # the subgroup refuses by the caps first
    diag_copy = Subgroup.of_payloads(W, (W.diag_embed(a).payload for a in G.elements()))
    report = theorem1_trace(ambient, diag_copy, res.root)
    return report.to_dict(), report.assertions


def cmd_residue_check(args):
    if args.max_p <= 3:  # no odd prime lies below it, so nothing would be checked
        raise PreconditionError(f"max-p must exceed 3, got {args.max_p}")
    from .dihedral import minus_one_is_square_mod_p, odd_primes_below

    rows = []
    mismatches = 0
    for p in odd_primes_below(args.max_p):
        sq = minus_one_is_square_mod_p(p)
        if sq != (p % 4 == 1):
            mismatches += 1
        rows.append({"p": p, "p_mod_4": p % 4, "minus_one_square": sq})
    if mismatches:
        raise Falsification(f"{mismatches} primes defy the mod-4 criterion")
    assertions = [{"name": "residue-criterion-matches-mod-4", "status": "pass"}]
    result = {"max_p": args.max_p, "primes_checked": len(rows), "mismatches": 0, "rows": rows}
    return result, assertions


def cmd_search(args):
    from .search import min_overgroup_search

    if args.workers is not None and args.workers < 1:
        raise PreconditionError(f"workers must be positive, got {args.workers}")
    rep = min_overgroup_search(args.p, args.m, cap=args.cap)
    skipped = rep.verdict.startswith(("not-applicable", "inconclusive"))
    status = "skip" if skipped else "pass"
    assertions = [
        {"name": "theorem1-bound-in-universe", "status": status, "witness": rep.verdict}
    ]
    return rep.to_dict(), assertions


HANDLERS = {
    "construct": cmd_construct,
    "adjoin-sqrt": cmd_adjoin_sqrt,
    "adjoin-nth-root": cmd_adjoin_nth_root,
    "solve-positive": cmd_solve_positive,
    "lemma7-check": cmd_lemma7_check,
    "lemma8-check": cmd_lemma8_check,
    "prop1-embed": cmd_prop1_embed,
    "theorem1-verify": cmd_theorem1_verify,
    "residue-check": cmd_residue_check,
    "search": cmd_search,
}


# -- report emission -----------------------------------------------------------


def _params_of(args: argparse.Namespace) -> dict:
    skip = {"command", "format"}
    return {
        k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None
    }


def _json_text(value, pad: str = "\n") -> str:
    """`json.dumps(value, indent=2)`, byte for byte, for dicts with str
    keys, without the pure-Python encoder that `indent` selects; `pad` is
    the newline and indent of the line `value` starts on."""
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = pad + "  "
        items = [_quote(k) + ": " + _json_text(v, inner) for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = pad + "  "
        return "[" + inner + ("," + inner).join([_json_text(v, inner) for v in value]) + pad + "]"
    return json.dumps(value)


def _text_report(report: dict) -> str:
    """The report for reading: one line per param, result entry and assertion."""
    lines = [f"groupsmith {report['tool_version']} :: {report['command']}"]
    for k, v in report["params"].items():
        lines.append(f"  param {k} = {v}")

    def walk(value, indent):
        pad = " " * indent
        if isinstance(value, dict):
            for k, v in value.items():
                if isinstance(v, (dict, list)):
                    lines.append(f"{pad}{k}:")
                    walk(v, indent + 2)
                else:
                    lines.append(f"{pad}{k}: {v}")
        elif isinstance(value, list):
            for v in value:
                if isinstance(v, (dict, list)):
                    walk(v, indent)
                else:
                    lines.append(f"{pad}- {v}")

    lines.append("result:")
    walk(report["result"], 2)
    for a in report["assertions"]:
        mark = {"pass": "ok", "fail": "FAIL", "skip": "--"}.get(a["status"], "?")
        witness = f"  ({a['witness']})" if "witness" in a else ""
        lines.append(f"  [{mark}] {a['name']}{witness}")
    lines.append(f"timing_ms: {report['timing_ms']}")
    return "\n".join(lines)


# the commands with csv output: each one's header and the rows of its result
CSV_TABLES = {
    "search": (
        "order,count",
        lambda result: (f"{label},{count}" for label, count in result["histogram"].items()),
    ),
    "residue-check": (
        "p,p_mod_4,minus_one_square",
        lambda result: (
            f"{row['p']},{row['p_mod_4']},{row['minus_one_square']}" for row in result["rows"]
        ),
    ),
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.format == "csv" and args.command not in CSV_TABLES:
        print(
            f"groupsmith: usage: csv output is not defined for {args.command!r}",
            file=sys.stderr,
        )
        return 2
    started = time.perf_counter()
    try:  # the whole report is built here, so a failure to render it exits 4 unprinted
        result, assertions = HANDLERS[args.command](args)
        report = {
            "tool_version": __version__,
            "command": args.command,
            "params": _params_of(args),
            "result": result,
            "assertions": assertions,
            "timing_ms": int((time.perf_counter() - started) * 1000),
        }
        if args.format == "json":
            text = _json_text(report)
        elif args.format == "csv":
            header, rows = CSV_TABLES[args.command]
            text = "\n".join([header, *rows(result)])
        else:
            text = _text_report(report)
    except Falsification as exc:
        print(f"groupsmith: falsified: {exc}", file=sys.stderr)
        return 1
    except (ParseError, PreconditionError) as exc:
        print(f"groupsmith: usage: {exc}", file=sys.stderr)
        return 2
    except CapExceeded as exc:
        print(f"groupsmith: resource-cap: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # a bug, or an error no groupsmith check anticipated
        detail = " ".join(str(exc).split())
        print(f"groupsmith: internal error: {type(exc).__name__}: {detail}", file=sys.stderr)
        return 4
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:  # the reader left; the report was complete and verified
        # the interpreter flushes stdout again at exit: let it write nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
