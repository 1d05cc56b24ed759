"""Exact computations in Com-Pre-Lie algebras built on shuffle words.

The package provides the shuffle/half-shuffle word algebra, linear
endomorphisms of the letter space, the induced pre-Lie products and their
enveloping-algebra extensions, truncated character groups (including the
composition of control-theoretic input-output series), free Com-Pre-Lie
algebras on partitioned trees, admissible-word combinatorics, and the
decorated-forest picture with the Connes-Kreimer coproduct.

The public names are listed once, in ``_EXPORTS``, under the submodule
that defines them, and ``__all__`` is derived from that table.  A name is
imported from its submodule on first access (PEP 562) and then kept in the
package namespace, so ``import comprelie`` loads no layer it does not use
and ``from comprelie import star`` loads only the layers below ``star``.
"""

import importlib

# Importing the submodule ``comprelie.prelie`` binds the package attribute
# ``prelie`` to that module, which a lazy lookup never rebinds: bind it to
# the function here, so ``comprelie.prelie(...)`` stays callable.
from .prelie import prelie

_EXPORTS = {
    "words": "EMPTY_WORD Letter Tensor Word concat deconcatenate half_shuffle lyndon_words "
    "parse_tensor parse_word shuffle tensor_to_str word word_to_str",
    "endo": "Endo apply_endo diagonal_weights endo_from_json endo_to_json fliess_channel "
    "iterate_endo load_endo nilpotency_index save_endo transpose_endo",
    "prelie": "ComPreLieContext associativity_witness image_span_contains induced_morphism "
    "lie_bracket prelie prelie_closed span_dimension_of_products",
    "enveloping": "SymMonomial SymTensor closed_action closed_star dual_coproduct extend_bullet "
    "full_coproduct pair_tensor star sym_pairing",
    "characters": "FliessElement TruncatedSeries diamond fibonacci_dims fliess_diamond "
    "fliess_tilde inverse tilde_compose",
    "trees": "PartitionedTree TreeTensor all_partitioned_trees all_rooted_trees free_bullet "
    "injectivity_rank parse_tree phi_cpl phi_into tree_to_str",
    "admissible": "DyckPath admissible_words count_admissible count_sigma from_dyck "
    "is_admissible is_sigma_admissible sigma_admissible_words to_dyck",
    "forests": "Forest ForestPoly ck_coproduct delta_cobracket dual_prelie_coeff forest_star "
    "t_word y_bracket_check",
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:  # a layer not imported yet: ``comprelie.trees``
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
