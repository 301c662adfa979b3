"""braidstat: verification and computation for generalized particle statistics.

Exact bicharacters on finite Abelian groups, graded generator systems with
braid/cross exchange, word-basis Fock operators with twisted commutation
relations, Gram-matrix sector analysis, model transmutation along group
homomorphisms, and a coherence normalizer for monoidal expressions.
"""

from .groups import (Bicharacter, BicharacterError, GroupElement, GroupHom, GroupMismatchError,
                     GroupSpec, HomomorphismError, NormalizationCheck, RationalPhase,
                     TransportCheck, check_transmutation, make_bicharacter, make_group, make_hom,
                     unit_complex)
from .report import CheckReport
from .words import FockVector, TensorWord, basis_words, word_index
from .models import (BraidMatrix, CrossMatrix, DERIVED_CROSS, DerivedCross, GRADE_DIAGONAL,
                     GradeDiagonal, ModelSpecError, ParticleModel, braid_factor, braid_on_word,
                     check_symmetry, check_yang_baxter, extend_pairing, make_model, q_swap_braid)
from .fock import (AnnihilateFree, AnnihilateTwisted, Create, Exchange, GramResult,
                   HermiticityError, ResourceLimitError, SectorDimension, annihilate_free,
                   annihilate_twisted, apply_program, check_braid_exchange_relations,
                   check_infinite_statistics, commutator_defect, create, gram_matrix,
                   gram_psd_check, sector_dimension)
from .transmute import (Transmutation, check_cross_symmetric, check_relation_transport,
                        make_transmutation, transmute_model)
from .coherence import (Atom, Dual, ExprSyntaxError, NormalForm, Tensor, TensorExpr, UNIT, Unit,
                        coherence_fuzz, equal_up_to_coherence, normalize, parse_expr, render_expr)
from .modelfile import (LoadedModel, ModelFileError, load_bicharacter_file, load_hom_file,
                        load_model_file, model_from_dict, model_to_dict)
from .zoo import GRADE_DIAGONAL_NAMES, SYMMETRIC_NAMES, ZOO_NAMES, load_zoo, load_zoo_full, zoo_path

__version__ = "0.1.0"

__all__ = [
    "Bicharacter", "BicharacterError", "GroupElement", "GroupHom", "GroupMismatchError",
    "GroupSpec", "HomomorphismError", "NormalizationCheck", "RationalPhase", "TransportCheck",
    "check_transmutation", "make_bicharacter", "make_group", "make_hom", "unit_complex",
    "CheckReport",
    "FockVector", "TensorWord", "basis_words", "word_index",
    "BraidMatrix", "CrossMatrix", "DERIVED_CROSS", "DerivedCross", "GRADE_DIAGONAL",
    "GradeDiagonal", "ModelSpecError", "ParticleModel", "braid_factor", "braid_on_word",
    "check_symmetry", "check_yang_baxter", "extend_pairing", "make_model", "q_swap_braid",
    "AnnihilateFree", "AnnihilateTwisted", "Create", "Exchange", "GramResult",
    "HermiticityError", "ResourceLimitError", "SectorDimension", "annihilate_free",
    "annihilate_twisted", "apply_program", "check_braid_exchange_relations",
    "check_infinite_statistics", "commutator_defect", "create", "gram_matrix",
    "gram_psd_check", "sector_dimension",
    "Transmutation", "check_cross_symmetric", "check_relation_transport",
    "make_transmutation", "transmute_model",
    "Atom", "Dual", "ExprSyntaxError", "NormalForm", "Tensor", "TensorExpr", "UNIT", "Unit",
    "coherence_fuzz", "equal_up_to_coherence", "normalize", "parse_expr", "render_expr",
    "LoadedModel", "ModelFileError", "load_bicharacter_file", "load_hom_file",
    "load_model_file", "model_from_dict", "model_to_dict",
    "GRADE_DIAGONAL_NAMES", "SYMMETRIC_NAMES", "ZOO_NAMES", "load_zoo", "load_zoo_full",
    "zoo_path",
]
