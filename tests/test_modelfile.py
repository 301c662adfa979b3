import json

import numpy as np
import pytest

from braidstat import (ModelFileError, ZOO_NAMES, load_model_file, load_zoo_full, model_from_dict,
                       model_to_dict, zoo_path)


def test_all_zoo_files_load():
    for name in ZOO_NAMES:
        loaded = load_zoo_full(name)
        assert loaded.model.n_generators >= 1
        assert loaded.tolerance == 1e-9
        assert loaded.n_max == 4


def test_quon_zoo_coupling_is_q_swap():
    loaded = load_zoo_full("quon_05")
    coupling = loaded.model.braid_coupling
    assert coupling[0, 1, 1, 0] == 0.5   # (1,2) -> 0.5 * (2,1)
    assert coupling[0, 1, 0, 1] == 0


def test_roundtrip_through_dict():
    for name in ("fermion3", "z2z2_fermion", "quon_03", "anyon_z4"):
        loaded = load_zoo_full(name)
        doc = model_to_dict(loaded.model, loaded.tolerance, loaded.n_max)
        again = model_from_dict(json.loads(json.dumps(doc)))
        assert again.model.grades == loaded.model.grades
        assert again.model.eps == loaded.model.eps
        assert np.array_equal(again.model.pairing, loaded.model.pairing)
        assert np.array_equal(again.model.braid_coupling, loaded.model.braid_coupling)


def test_schema_errors(tmp_path):
    cases = [
        ({"group": {"orders": [2]}}, "missing top-level key"),
        ({"group": {"orders": "x"}, "bicharacter": {"Q": []}, "generators": {}}, "orders"),
        ({"group": {"orders": [2]}, "bicharacter": {"Q": [[0.5]]},
          "generators": {"grades": [[1]], "pairing": [[1]]}}, "exact rationals"),
        ({"group": {"orders": [2]}, "bicharacter": {"Q": [1]},
          "generators": {"grades": [[1]], "pairing": [[1]]}}, "list of rows"),
        ({"group": {"orders": [2]}, "bicharacter": {"Q": [["1/3"]]},
          "generators": {"grades": [[1]], "pairing": [[1]]}}, "bicharacter"),
        ({"group": {"orders": [2]}, "bicharacter": {"Q": [["1/2"]]},
          "generators": {"grades": [[1]], "pairing": [[1]]},
          "braid": {"kind": "wat"}}, "braid.kind"),
        ({"group": {"orders": [2]}, "bicharacter": {"Q": [["1/2"]]},
          "generators": {"grades": [[1]], "pairing": [[1, 2]]}}, "pairing"),
        ({"group": {"orders": [2]}, "bicharacter": {"Q": [["1/2"]]},
          "generators": {"grades": [[1]], "pairing": [[1]]},
          "options": {"expansion_sign": "?"}}, "expansion_sign"),
        ({"group": {"orders": [2]}, "bicharacter": {"Q": [["1/2"]]},
          "generators": {"grades": [[1]], "pairing": [[1]]},
          "options": {"tolerance": float("inf")}}, "finite"),
    ]
    # JSON true and false are not numbers, though Python's bool is an int
    base = {"group": {"orders": [2]}, "bicharacter": {"Q": [["1/2"]]},
            "generators": {"grades": [[1]], "pairing": [[1]]}}
    for edit, match in [
        (lambda doc: doc.__setitem__("options", {"n_max": True}), "n_max"),
        (lambda doc: doc.__setitem__("options", {"tolerance": True}), "tolerance"),
        (lambda doc: doc["generators"].__setitem__("pairing", [[True]]), "pairing"),
        (lambda doc: doc["generators"].__setitem__("pairing", [[[1, False]]]), "pairing"),
        (lambda doc: doc["generators"].__setitem__("grades", [[True]]), "grades"),
        (lambda doc: doc["group"].__setitem__("orders", [True]), "orders"),
        (lambda doc: doc["bicharacter"].__setitem__("Q", [[True]]), "exact rationals"),
        (lambda doc: doc.__setitem__("braid", {"kind": "matrix", "R": [[True]]}), "braid.R"),
    ]:
        doc = json.loads(json.dumps(base))
        edit(doc)
        cases.append((doc, match))
    for doc, match in cases:
        with pytest.raises(ModelFileError, match=match):
            model_from_dict(doc)


def test_load_file_errors(tmp_path):
    missing = tmp_path / "missing.json"
    with pytest.raises(ModelFileError):
        load_model_file(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ModelFileError, match="JSON"):
        load_model_file(bad)
    # json's parser recurses once per level of nesting
    bad.write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(ModelFileError, match="not valid JSON: maximum recursion depth"):
        load_model_file(bad)


def test_expansion_sign_option(tmp_path):
    doc = json.loads(zoo_path("fermion1").read_text())
    doc["options"] = {"expansion_sign": "-"}
    path = tmp_path / "fermion_minus.json"
    path.write_text(json.dumps(doc))
    loaded = load_model_file(path)
    assert loaded.model.expansion_sign == -1


def test_complex_entries_accept_pairs(tmp_path):
    doc = json.loads(zoo_path("fermion2").read_text())
    doc["generators"]["pairing"] = [[[1, 0], [0, 0.5]], [[0, -0.5], [1, 0]]]
    path = tmp_path / "complex_pairing.json"
    path.write_text(json.dumps(doc))
    model = load_model_file(path).model
    assert model.pairing_entry(1, 2) == 0.5j
