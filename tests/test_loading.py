"""The package loads a module only when something from it is used; each check
runs in a fresh interpreter, since this one has long since loaded everything."""

import json
import os
import subprocess
import sys
from pathlib import Path

import braidstat

SRC = str(Path(braidstat.__file__).resolve().parent.parent)

#: ``braidstat.__all__`` as it stood when the names were imported eagerly
PUBLIC_NAMES = [
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

_LOADED = "sorted(m for m in sys.modules if m == 'numpy' or m.startswith('braidstat.'))"


def _fresh(code: str):
    """Run ``code`` in a new interpreter; it prints one JSON value."""
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run([sys.executable, "-c", "import json, sys\n" + code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_import_loads_no_submodule_and_no_numpy():
    assert _fresh(f"import braidstat\nprint(json.dumps({_LOADED}))") == []


def test_normalize_runs_without_numpy():
    loaded = _fresh("from braidstat import cli\n"
                    "code = cli.main(['normalize', '--expr', '(A (x) B)^'])\n"
                    f"print(json.dumps([code, {_LOADED}]))")
    assert loaded[0] == 0
    assert loaded[1] == ["braidstat.cli", "braidstat.coherence", "braidstat.report"]


def test_zoo_path_loads_only_the_zoo_module():
    loaded = _fresh("import braidstat\n"
                    "braidstat.zoo_path('boson')\n"
                    f"print(json.dumps({_LOADED}))")
    assert loaded == ["braidstat.zoo"]


def test_public_names_are_unchanged_and_resolve_to_their_modules():
    homes = _fresh(
        "import importlib, braidstat\n"
        "homes = {}\n"
        "for name in braidstat.__all__:\n"
        "    value = getattr(braidstat, name)\n"
        "    homes[name] = [m for m in ('groups', 'report', 'words', 'models', 'fock',\n"
        "                               'transmute', 'coherence', 'modelfile', 'zoo')\n"
        "                   if getattr(importlib.import_module('braidstat.' + m), name, None)\n"
        "                   is value]\n"
        "print(json.dumps([braidstat.__all__, homes]))")
    assert homes[0] == PUBLIC_NAMES
    assert all(homes[1][name] for name in PUBLIC_NAMES), \
        [name for name in PUBLIC_NAMES if not homes[1][name]]


def test_submodules_resolve_after_a_bare_import():
    got = _fresh("import braidstat\n"
                 "print(json.dumps([braidstat.fock.__name__, 'fock' in dir(braidstat),\n"
                 "                  'zoo_path' in dir(braidstat),\n"
                 "                  hasattr(braidstat, 'no_such_name')]))")
    assert got == ["braidstat.fock", True, True, False]
