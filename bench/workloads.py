"""The three workloads: inputs, one operation, and the checks on its outputs.

Each workload runs in one process as a closed loop with one client, and every
operation of a workload does the same work.  ``run`` is the timed operation,
made of ``parts`` parts; it calls ``between()`` between two parts, where the
runner measures the machine's speed (see ``run.Pacer``);
``observe`` gathers, untimed, what the checks need beyond the outputs;
``check`` compares against :mod:`oracles` and returns one message per
violated property, each prefixed by the name of the check;
``speed_task`` names the task of :mod:`reference` that measures the
machine's speed for the workload's kind of work;
``wrong_answers`` gives deliberately wrong copies of an output for the
self-test.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import random
from pathlib import Path

import numpy as np

import braidstat
from braidstat import cli, coherence

import oracles

COMMUTATOR_BOUND = 1e-9


def _nothing() -> None:
    pass


def _cli(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


class CheckZoo:
    """``braidstat check --json`` on every zoo model and the two bundled
    transmutations, in-process through ``cli.main``."""

    name = "check-zoo"
    nominal_op_s = 2.6
    speed_task = "python"
    parts = 11
    depth = 5
    #: stays at its file's n_max (4): at depth 5 it alone takes about 4.5 s
    shallow = ("fermion3",)
    #: (exit code, failing checks, skipped checks): the zoo table of README.md;
    #: anyon_z4's exchange phase i squares to -1, so symmetry and the exchange
    #: relations fail with the normalization
    expected = {
        **{name: (0, (), ()) for name in ("boson", "fermion1", "fermion2", "fermion3",
                                          "z2z2_fermion")},
        **{name: (1, ("exchange-nullity", "symmetry"), ()) for name in ("quon_03", "quon_05",
                                                                        "quon_09")},
        "anyon_z4": (1, ("bicharacter-normalized", "exchange-nullity", "gram-hermitian",
                         "symmetry"), ("gram-psd",)),
    }
    transmutes = (("z2z2_fermion", "hom_z2z2_to_z2", "bichar_z2_half"),
                  ("fermion1", "hom_z2_to_z4", "bichar_z4_quarter"))

    def setup(self, seed: int, n_ops: int, work: Path) -> dict:
        cases = []
        for name in braidstat.ZOO_NAMES:
            path = braidstat.zoo_path(name)
            loaded = braidstat.load_model_file(path)
            n_max = loaded.n_max if name in self.shallow else self.depth
            argv = ["check", str(path), "--json"]
            if name not in self.shallow:
                argv += ["--nmax", str(n_max)]
            cases.append({"label": name, "kind": "check", "argv": argv, "n_max": n_max,
                          "family": oracles.model_family(oracles.read_json(path))})
        for source, hom, bichar in self.transmutes:
            paths = [braidstat.zoo_path(n) for n in (source, hom, bichar)]
            loaded = braidstat.load_model_file(paths[0])
            group = braidstat.load_hom_file(paths[1], loaded.model.group)[1]
            braidstat.load_bicharacter_file(paths[2], group)
            out = work / f"{source}.transmuted.json"
            cases.append({"label": f"{source}->{hom}", "kind": "transmute", "out": str(out),
                          "docs": [oracles.read_json(p) for p in paths],
                          "argv": ["transmute", str(paths[0]), "--hom", str(paths[1]),
                                   "--target-bichar", str(paths[2]), "--out", str(out),
                                   "--json"]})
        random.Random(seed).shuffle(cases)
        return {"cases": cases, "reference": None}

    def run(self, inputs: dict, k: int, between=_nothing) -> dict:
        runs = []
        for i, case in enumerate(inputs["cases"]):
            if i:
                between()
            runs.append(_cli(case["argv"]))
        return {"runs": runs}

    def observe(self, inputs: dict, out: dict) -> None:
        for case, run in zip(inputs["cases"], out["runs"]):
            if case["kind"] == "transmute":
                path = Path(case["out"])
                run["written"] = oracles.read_json(path) if path.exists() else None
                path.unlink(missing_ok=True)

    def check(self, inputs: dict, out: dict) -> list[str]:
        errors = []
        for case, run in zip(inputs["cases"], out["runs"], strict=True):
            label = case["label"]
            if run["stderr"]:
                errors.append(f"stderr: {label}: {run['stderr'][:200]!r}")
            try:
                report = json.loads(run["stdout"])
            except json.JSONDecodeError as exc:
                errors.append(f"report: {label}: not JSON: {exc}")
                continue
            if case["kind"] == "check":
                errors += self._check_report(case, run["code"], report)
            else:
                errors += self._check_transmute(case, run, report)
        text = "".join(run["stdout"] for run in out["runs"])
        if inputs["reference"] is None:
            inputs["reference"] = text
        elif text != inputs["reference"]:
            errors.append("bytes: the JSON reports differ from the first sweep's")
        return errors

    def _check_report(self, case: dict, code: int, report: dict) -> list[str]:
        label = case["label"]
        want_code, want_failing, want_skipped = self.expected[label]
        errors = []
        if code != want_code:
            errors.append(f"exit: {label}: exit {code}, expected {want_code}")
        statuses = {c["name"]: c for c in report["checks"]}
        failing = tuple(sorted(n for n, c in statuses.items() if c["status"] == "fail"))
        skipped = tuple(sorted(n for n, c in statuses.items() if c["status"] == "skipped"))
        if (failing, skipped) != (want_failing, want_skipped):
            errors.append(f"statuses: {label}: failing {failing} skipped {skipped}, "
                          f"expected {want_failing} {want_skipped}")
        commutators = statuses.get("twisted-commutators", {}).get("defect")
        if commutators is None or not commutators <= COMMUTATOR_BOUND:
            errors.append(f"commutator: {label}: twisted-commutator defect {commutators}")
        family = case["family"]
        got = [(d["sector"], d["full"], d["quotient"]) for d in
               report["results"]["sector_dimensions"]]
        want = [(n, family["n"] ** n, oracles.sector_dimension(family, n))
                for n in range(case["n_max"] + 1)]
        if got != want:
            errors.append(f"dims: {label}: (sector, full, quotient) {got}, expected {want}")
        return errors

    def _check_transmute(self, case: dict, run: dict, report: dict) -> list[str]:
        label = case["label"]
        source, hom, bichar = case["docs"]
        src_q, src_grades = source["bicharacter"]["Q"], source["generators"]["grades"]
        orders = hom["target"]["orders"]
        rank = len(source["group"]["orders"])
        units = [[int(i == j) for j in range(rank)] for i in range(rank)]
        # bicharacter transport on generator pairs, computed here
        mismatches = {}
        for a in units:
            for b in units:
                ha, hb = (oracles.push_grade(g, hom["images"], orders) for g in (a, b))
                phases = (oracles.exact_phase(src_q, a, b),
                          oracles.exact_phase(bichar["Q"], ha, hb))
                if phases[0] != phases[1]:
                    mismatches[json.dumps([a, b])] = phases
        errors = []
        checks = {c["name"]: c for c in report["checks"]}
        transport = checks.get("bicharacter-transport", {})
        if not mismatches:
            if run["code"] != 0 or any(c["status"] != "pass" for c in checks.values()):
                errors.append(f"transmute: {label}: expected every check to pass, "
                              f"got exit {run['code']}")
            written = run.get("written")
            want_doc = {"orders": orders, "Q": bichar["Q"],
                        "grades": [oracles.push_grade(g, hom["images"], orders)
                                   for g in src_grades]}
            got_doc = None if written is None else {
                "orders": written["group"]["orders"], "Q": written["bicharacter"]["Q"],
                "grades": written["generators"]["grades"]}
            if got_doc != want_doc:
                errors.append(f"transmute: {label}: wrote {got_doc}, expected {want_doc}")
        else:
            if run["code"] != 1 or transport.get("status") != "fail":
                errors.append(f"transmute: {label}: expected bicharacter-transport to fail, "
                              f"got exit {run['code']}")
            witness = transport.get("witness") or {}
            key = json.dumps(witness.get("pair"))
            if mismatches.get(key) != (witness.get("source_phase"), witness.get("target_phase")):
                errors.append(f"witness: {label}: {witness}, expected one of {mismatches}")
            if report["results"].get("output_file") is not None:
                errors.append(f"transmute: {label}: wrote a model after a failed check")
        return errors

    def wrong_answers(self, inputs: dict, out: dict) -> list[tuple[str, str, dict]]:
        """(check name, what is wrong, wrong output)."""
        index = {case["label"]: i for i, case in enumerate(inputs["cases"])}

        def edit(label, change):
            wrong = copy.deepcopy(out)
            run = wrong["runs"][index[label]]
            report = json.loads(run["stdout"])
            change(run, report)
            run["stdout"] = json.dumps(report, sort_keys=True, indent=2) + "\n"
            return wrong

        def set_check(name, **fields):
            def change(run, report):
                for c in report["checks"]:
                    if c["name"] == name:
                        c.update(fields)
            return change

        def set_code(code):
            def change(run, report):
                run["code"] = code
            return change

        def set_dim(sector, quotient):
            def change(run, report):
                for d in report["results"]["sector_dimensions"]:
                    if d["sector"] == sector:
                        d["quotient"] = quotient
                        d.pop("status", None)
            return change

        def set_stderr(run, report):
            run["stderr"] = "Traceback (most recent call last):\n"

        def set_witness(run, report):
            for c in report["checks"]:
                if c["name"] == "bicharacter-transport":
                    c["witness"]["target_phase"] = "1/4"

        def set_written(run, report):
            run["written"]["generators"]["grades"] = [[0], [1]]

        trans_ok = f"{self.transmutes[0][0]}->{self.transmutes[0][1]}"
        trans_bad = f"{self.transmutes[1][0]}->{self.transmutes[1][1]}"
        bytes_changed = copy.deepcopy(out)
        bytes_changed["runs"][index["boson"]]["stdout"] += " "
        truncated = copy.deepcopy(out)
        truncated["runs"][index["fermion1"]]["stdout"] = "{\n  \"checks\": ["
        return [
            ("report", "a truncated report", truncated),
            ("exit", "boson exits 1", edit("boson", set_code(1))),
            ("statuses", "quon_05 symmetry passes", edit("quon_05", set_check("symmetry",
                                                                                status="pass"))),
            ("statuses", "anyon_z4 gram-psd is not skipped",
             edit("anyon_z4", set_check("gram-psd", status="pass"))),
            ("commutator", "fermion2 commutator defect 1e-6",
             edit("fermion2", set_check("twisted-commutators", defect=1e-6))),
            ("dims", "fermion2 sector 2 quotient 2", edit("fermion2", set_dim(2, 2))),
            ("dims", "quon_09 sector 5 quotient 31", edit("quon_09", set_dim(5, 31))),
            ("dims", "anyon_z4 sector 2 not skipped", edit("anyon_z4", set_dim(2, 1))),
            ("stderr", "a traceback on stderr", edit("fermion1", set_stderr)),
            ("bytes", "one report gains a byte", bytes_changed),
            ("transmute", "z2z2 transport fails",
             edit(trans_ok, set_check("relation-transport", status="fail"))),
            ("transmute", "z2z2 writes wrong grades", edit(trans_ok, set_written)),
            ("witness", "fermion1 witness has the wrong target phase",
             edit(trans_bad, set_witness)),
        ]


def gram_facts(matrix: np.ndarray) -> dict:
    """What the sector-large checks need of a Gram matrix."""
    return {"shape": list(matrix.shape),
            "asymmetry": float(np.abs(matrix - matrix.conj().T).max()),
            "scale": float(np.abs(matrix).max()),
            "nonzero": int(np.count_nonzero(matrix)),
            "corner": complex(matrix[0, 0])}


class SectorLarge:
    """``sector_dimension`` then ``gram_psd_check`` on a few deep sectors."""

    name = "sector-large"
    nominal_op_s = 2.7
    speed_task = "lapack"
    parts = 4
    #: fermion3 at sector 7 stays out: one call takes about 9 s on one BLAS thread
    cases = (("fermion3", 6), ("quon_05", 10), ("z2z2_fermion", 9), ("boson", 8))

    def setup(self, seed: int, n_ops: int, work: Path) -> dict:
        cases = [{"label": f"{name}@{n}", "n": n, "model": braidstat.load_zoo(name),
                  "family": oracles.model_family(oracles.read_json(braidstat.zoo_path(name)))}
                 for name, n in self.cases]
        random.Random(seed).shuffle(cases)
        return {"cases": cases}

    def run(self, inputs: dict, k: int, between=_nothing) -> dict:
        results = []
        for i, case in enumerate(inputs["cases"]):
            if i:
                between()
            dim = braidstat.sector_dimension(case["model"], case["n"])
            psd = braidstat.gram_psd_check(case["model"], case["n"])
            results.append({"full": dim.full, "quotient": dim.quotient, "psd": psd.status,
                            "min_eigenvalue": psd.data.get("min_eigenvalue")})
        return {"results": results}

    def observe(self, inputs: dict, out: dict) -> None:
        for case, result in zip(inputs["cases"], out["results"]):
            result["gram"] = gram_facts(braidstat.gram_matrix(case["model"], case["n"]).matrix)

    def check(self, inputs: dict, out: dict) -> list[str]:
        errors = []
        for case, got in zip(inputs["cases"], out["results"], strict=True):
            label, n, family = case["label"], case["n"], case["family"]
            full = family["n"] ** n
            want = oracles.sector_dimension(family, n)
            if (got["full"], got["quotient"]) != (full, want):
                errors.append(f"dims: {label}: {got['full']}, {got['quotient']}, "
                              f"expected {full}, {want}")
            if got["psd"] != "pass":
                errors.append(f"psd: {label}: gram-psd {got['psd']}")
            gram = got["gram"]
            if gram["shape"] != [full, full]:
                errors.append(f"gram: {label}: shape {gram['shape']}")
            if not gram["asymmetry"] <= 1e-9 * max(1.0, gram["scale"]):
                errors.append(f"hermitian: {label}: asymmetry {gram['asymmetry']:.3e}")
            if family["kind"] == "quon":
                if not got["min_eigenvalue"] > 0:
                    errors.append(f"positive: {label}: min eigenvalue {got['min_eigenvalue']}")
                corner = oracles.real_q_factorial(family["q"], n)
                if not abs(gram["corner"] - corner) <= 1e-12 * corner:
                    errors.append(f"corner: {label}: G[1^n, 1^n] {gram['corner']}, "
                                  f"expected [n]_q! = {corner}")
            if family["kind"] == "fermion" and n > family["n"]:
                if got["min_eigenvalue"] != 0.0 or gram["nonzero"]:
                    errors.append(f"zero: {label}: {gram['nonzero']} nonzero entries, "
                                  f"min eigenvalue {got['min_eigenvalue']}")
        return errors

    def wrong_answers(self, inputs: dict, out: dict) -> list[tuple[str, str, dict]]:
        index = {case["label"]: i for i, case in enumerate(inputs["cases"])}

        def edit(label, **fields):
            wrong = copy.deepcopy(out)
            wrong["results"][index[label]].update(fields)
            return wrong

        def edit_gram(label, change):
            case = inputs["cases"][index[label]]
            matrix = braidstat.gram_matrix(case["model"], case["n"]).matrix.copy()
            return edit(label, gram=gram_facts(change(matrix)))

        def break_symmetry(m):
            m[0, 1] += 1e-3
            return m

        def touch(m):
            m[-1, -1] = 1e-300
            return m

        def bend_corner(m):
            m[0, 0] *= 1.01
            return m

        return [
            ("dims", "quon_05 rank 1023", edit("quon_05@10", quotient=1023)),
            ("dims", "boson rank 10", edit("boson@8", quotient=10)),
            ("psd", "boson gram-psd fails", edit("boson@8", psd="fail")),
            ("positive", "quon_05 minimum eigenvalue -1e-3",
             edit("quon_05@10", min_eigenvalue=-1e-3)),
            ("zero", "fermion3 minimum eigenvalue 1e-300",
             edit("fermion3@6", min_eigenvalue=1e-300)),
            ("zero", "one nonzero entry in the fermion3 Gram", edit_gram("fermion3@6", touch)),
            ("gram", "boson Gram one row and column short",
             edit_gram("boson@8", lambda m: m[:-1, :-1])),
            ("hermitian", "boson Gram made asymmetric", edit_gram("boson@8", break_symmetry)),
            ("corner", "quon_05 corner off by 1%", edit_gram("quon_05@10", bend_corner)),
        ]


class CoherenceFuzz:
    """``coherence_fuzz`` with a fresh seed per operation, plus ``parse_expr`` and
    ``normalize`` on the same drawn strings in every operation."""

    name = "coherence-fuzz"
    nominal_op_s = 0.16
    speed_task = "python"
    parts = 1
    fuzz_size, fuzz_trials = 30, 300
    expressions, expression_size = 40, 61

    def setup(self, seed: int, n_ops: int, work: Path) -> dict:
        rng = random.Random(seed)
        trees = [oracles.random_tree(rng, self.expression_size) for _ in range(self.expressions)]
        return {"fuzz_seeds": [rng.randrange(2 ** 31) for _ in range(n_ops)], "trees": trees,
                "texts": [oracles.render_tree(t) for t in trees]}

    def run(self, inputs: dict, k: int, between=_nothing) -> dict:
        fuzz = braidstat.coherence_fuzz(inputs["fuzz_seeds"][k], size=self.fuzz_size,
                                        trials=self.fuzz_trials)
        forms = [coherence.normalize(coherence.parse_expr(text)) for text in inputs["texts"]]
        return {"fuzz": [fuzz.status, fuzz.defect, fuzz.data["trials"]],
                "forms": [nf.render() for nf in forms],
                "factors": [len(nf.factors) for nf in forms]}

    def observe(self, inputs: dict, out: dict) -> None:
        out["renormalized"] = [coherence.normalize(coherence.parse_expr(text)).render()
                               for text in out["forms"]]

    def check(self, inputs: dict, out: dict) -> list[str]:
        errors = []
        if out["fuzz"] != ["pass", 0.0, self.fuzz_trials]:
            errors.append(f"fuzz: status, defect, trials {out['fuzz']}")
        for i, tree in enumerate(inputs["trees"]):
            reference = oracles.tree_normal_form(tree)
            if out["forms"][i] != oracles.render_normal_form(reference):
                errors.append(f"normal-form: {oracles.render_tree(tree)} -> {out['forms'][i]}")
            if out["renormalized"][i] != out["forms"][i]:
                errors.append(f"idempotent: {out['forms'][i]} -> {out['renormalized'][i]}")
            if out["factors"][i] != oracles.atom_count(tree):
                errors.append(f"atoms: {out['factors'][i]} factors for "
                              f"{oracles.atom_count(tree)} atoms")
        return errors

    def wrong_answers(self, inputs: dict, out: dict) -> list[tuple[str, str, dict]]:
        def edit(key, value):
            wrong = copy.deepcopy(out)
            wrong[key] = value
            return wrong

        i = next(i for i, form in enumerate(out["forms"]) if len(set(form.split(" (x) "))) > 1)
        factors = out["forms"][i].split(" (x) ")
        swapped = " (x) ".join(factors[1:] + factors[:1])
        return [
            ("fuzz", "fuzz reports one failure", edit("fuzz", ["fail", 1.0, self.fuzz_trials])),
            ("normal-form", "factors rotated",
             edit("forms", out["forms"][:i] + [swapped] + out["forms"][i + 1:])),
            ("idempotent", "a second normalization differs",
             edit("renormalized", out["renormalized"][:i] + [swapped]
                  + out["renormalized"][i + 1:])),
            ("atoms", "one factor too few",
             edit("factors", [out["factors"][0] - 1] + out["factors"][1:])),
        ]


WORKLOADS = {w.name: w for w in (CheckZoo(), SectorLarge(), CoherenceFuzz())}
