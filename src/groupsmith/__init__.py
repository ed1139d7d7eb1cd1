"""groupsmith: economical root adjunction and equation solving over
finite groups, with exhaustive lower-bound verification."""

__version__ = "0.1.0"

import importlib

from .core import (
    Element,
    Group,
    PermGroup,
    Subgroup,
    TableGroup,
    direct_product,
    mutual_commutator,
    normal_closure,
    normalizer_in,
    odd_abelian_normal_candidates,
    subgroup_generated,
    verify_group_axioms,
)
from .constructions import (
    WreathGroup,
    lemma7_by_class,
    lemma7_subgroup,
    lemma8_construct,
    levin_root,
    named_group,
    prop1_embedding,
    wreath_cyclic,
)
from .equations import (
    PositiveEquation,
    adjoin_nth_root,
    evaluate,
    levin_solve,
    parse_equation,
    solve_in_group,
)
from .errors import CapExceeded, Falsification, GroupsmithError, ParseError, PreconditionError

# The proof replay and the ambient search are loaded on first use, so the
# commands that run neither do not pay for importing them.
_LAZY = {
    **dict.fromkeys(
        (
            "ConjugateGraph",
            "Theorem1Report",
            "build_conjugate_graph",
            "conjugation_parity",
            "lemma2_check",
            "lemma3_check",
            "lemma5_lemma6_checks",
            "minus_one_is_square_mod_p",
            "theorem1_trace",
        ),
        "dihedral",
    ),
    **dict.fromkeys(
        (
            "SearchReport",
            "closure_order_capped",
            "embed_dihedral",
            "min_overgroup_search",
            "square_roots_in_Sm",
        ),
        "search",
    ),
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))


__all__ = [
    "CapExceeded",
    "ConjugateGraph",
    "Element",
    "Falsification",
    "Group",
    "GroupsmithError",
    "ParseError",
    "PermGroup",
    "PositiveEquation",
    "PreconditionError",
    "SearchReport",
    "Subgroup",
    "TableGroup",
    "Theorem1Report",
    "WreathGroup",
    "adjoin_nth_root",
    "build_conjugate_graph",
    "closure_order_capped",
    "conjugation_parity",
    "direct_product",
    "embed_dihedral",
    "evaluate",
    "lemma2_check",
    "lemma3_check",
    "lemma5_lemma6_checks",
    "lemma7_by_class",
    "lemma7_subgroup",
    "lemma8_construct",
    "levin_root",
    "levin_solve",
    "min_overgroup_search",
    "minus_one_is_square_mod_p",
    "mutual_commutator",
    "named_group",
    "normal_closure",
    "normalizer_in",
    "odd_abelian_normal_candidates",
    "parse_equation",
    "prop1_embedding",
    "solve_in_group",
    "square_roots_in_Sm",
    "subgroup_generated",
    "theorem1_trace",
    "verify_group_axioms",
    "wreath_cyclic",
]
