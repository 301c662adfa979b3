"""braidstat: verification and computation for generalized particle statistics.

Exact bicharacters on finite Abelian groups, graded generator systems with
braid/cross exchange, word-basis Fock operators with twisted commutation
relations, Gram-matrix sector analysis, model transmutation along group
homomorphisms, and a coherence normalizer for monoidal expressions.

``import braidstat`` loads none of its modules: each public name, and each
submodule such as ``braidstat.fock``, is imported on first use (PEP 562).  So
the coherence normalizer runs without numpy, which only the model and Fock
layers need.
"""

import importlib

__version__ = "0.1.0"

#: submodule -> the public names it exports, in the order of ``__all__``
_EXPORTS = {
    "groups": ("Bicharacter", "BicharacterError", "GroupElement", "GroupHom",
               "GroupMismatchError", "GroupSpec", "HomomorphismError", "NormalizationCheck",
               "RationalPhase", "TransportCheck", "check_transmutation", "make_bicharacter",
               "make_group", "make_hom", "unit_complex"),
    "report": ("CheckReport",),
    "words": ("FockVector", "TensorWord", "basis_words", "word_index"),
    "models": ("BraidMatrix", "CrossMatrix", "DERIVED_CROSS", "DerivedCross", "GRADE_DIAGONAL",
               "GradeDiagonal", "ModelSpecError", "ParticleModel", "braid_factor",
               "braid_on_word", "check_symmetry", "check_yang_baxter", "extend_pairing",
               "make_model", "q_swap_braid"),
    "fock": ("AnnihilateFree", "AnnihilateTwisted", "Create", "Exchange", "GramResult",
             "HermiticityError", "ResourceLimitError", "SectorDimension", "annihilate_free",
             "annihilate_twisted", "apply_program", "check_braid_exchange_relations",
             "check_infinite_statistics", "commutator_defect", "create", "gram_matrix",
             "gram_psd_check", "sector_dimension"),
    "transmute": ("Transmutation", "check_cross_symmetric", "check_relation_transport",
                  "make_transmutation", "transmute_model"),
    "coherence": ("Atom", "Dual", "ExprSyntaxError", "NormalForm", "Tensor", "TensorExpr",
                  "UNIT", "Unit", "coherence_fuzz", "equal_up_to_coherence", "normalize",
                  "parse_expr", "render_expr"),
    "modelfile": ("LoadedModel", "ModelFileError", "load_bicharacter_file", "load_hom_file",
                  "load_model_file", "model_from_dict", "model_to_dict"),
    "zoo": ("GRADE_DIAGONAL_NAMES", "SYMMETRIC_NAMES", "ZOO_NAMES", "load_zoo", "load_zoo_full",
            "zoo_path"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
