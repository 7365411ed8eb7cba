"""Symbolic terms with xor, equational unification, disjoint-theory
combination, and the DNUT tagging discipline.

Importing the package loads none of its modules: each name in ``__all__``
is imported from its module on first access (PEP 562).
"""

import importlib

_EXPORTS = {
    "acun": "Gf2System build_gf2_system unify_acun",
    "bsca": "BscaConfig BscaTrace ChoiceSpaceExceeded CombinedResult combine_unifiers"
    " purify_problems purify_terms solve_systems split_problems unify_combined"
    " variable_identifications",
    "dnut": "DnutReport DnutViolation dnut_check dnut_tag",
    "oracle": "BoundExceeded GenConfig HarnessReport TheoremReport check_theorem"
    " free_unifiable gen_dnut_protocol gen_problem gen_raw_protocol gen_untagged_set"
    " ground_unifiable run_harness",
    "terms": "ZERO Const Penc Pk Problem Senc Seq Sh TagConst Term Theory Var Xor Zero"
    " acun_normal_form equal_mod interms is_pure is_subterm subterms_of_set",
    "textfmt": "Entry ParseError ProblemFile parse_problem_file parse_term"
    " render_problem_file render_substitution render_term",
    "unify": "ImpureTermError Substitution unify_free_xor unify_std",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted([*_EXPORTS, *_HOME])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value
