"""In-memory spans around braidstat's public functions, for the traced run.

:func:`install` replaces each listed function by a wrapper in every loaded
``braidstat`` module that holds it (``gram_matrix`` lives in ``braidstat.fock``
and is also imported by ``braidstat.cli``), and methods on their class.  Each
call records a span: label, start, end, parent span and operation id, in flat
typed arrays.  Count-only hooks add to a counter without a span.  Nothing
under ``src/`` changes, and the untraced run installs nothing.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np


class Tracer:
    #: operation id of the set-up and of the benchmark's own checks; metrics skip both
    UNTIMED = -1

    def __init__(self) -> None:
        self.labels: list[str] = []
        self.label_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.op_id = self.UNTIMED
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        #: model-sector pairs seen per operation; the models are kept alive so
        #: that ``id`` stays unique within the operation
        self.gram_keys: dict[int, dict[tuple[int, int], object]] = defaultdict(dict)

    def count(self, label: str, amount: float = 1) -> None:
        self.counts[(self.op_id, label)] += amount

    def _label_id(self, label: str) -> int:
        if label not in self.label_ids:
            self.label_ids[label] = len(self.labels)
            self.labels.append(label)
        return self.label_ids[label]

    def span_wrapper(self, label: str, fn, after=None):
        """``fn`` recording one span per call; ``after(args, result)`` adds counts."""
        label_id = self._label_id(label)
        name, parent, op, start, end, stack = (self.name, self.parent, self.op,
                                               self.start, self.end, self.stack)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(name)
            name.append(label_id)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[sid] = t0
                end[sid] = t1
            if after is not None:
                after(args, result)
            return result

        return traced

    def count_wrapper(self, label: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.count(label)
            return fn(*args, **kwargs)

        return counted

    # -- results ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.array(self.name, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "op": np.array(self.op, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }

    def per_op(self, ops: list[int]) -> dict[int, dict[str, float]]:
        """Per operation: ``<label>.n``, ``<label>.s`` (duration), ``<label>.self_s``,
        plus every counter."""
        a = self.arrays()
        n_spans = len(a["name"])
        duration = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=duration[has_parent],
                            minlength=n_spans)
        own = duration - child
        n_labels = max(1, len(self.labels))
        out: dict[int, dict[str, float]] = {}
        for op_id in ops:
            mask = a["op"] == op_id
            names = a["name"][mask]
            calls = np.bincount(names, minlength=n_labels)
            total = np.bincount(names, weights=duration[mask], minlength=n_labels)
            selfs = np.bincount(names, weights=own[mask], minlength=n_labels)
            row: dict[str, float] = {}
            for label, lid in self.label_ids.items():
                row[f"{label}.n"] = float(calls[lid])
                row[f"{label}.s"] = float(total[lid])
                row[f"{label}.self_s"] = float(selfs[lid])
            for (count_op, label), value in self.counts.items():
                if count_op == op_id:
                    row[label] = value
            row["fock.gram_distinct"] = float(len(self.gram_keys.get(op_id, ())))
            out[op_id] = row
        return out


def _install(owner, attr: str, make_wrapper) -> None:
    original = getattr(owner, attr)
    wrapper = make_wrapper(original)
    if isinstance(owner, type):
        setattr(owner, attr, wrapper)
        return
    for module_name, module in list(sys.modules.items()):
        if module_name == "braidstat" or module_name.startswith("braidstat."):
            # also catches renaming imports such as ``normalize as normalize_expr``
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap the public functions named by the per-layer metrics."""
    import braidstat.cli
    from braidstat import coherence, fock, groups, modelfile, models, transmute

    def gram_after(args, result):
        model, n = args[0], args[1]
        rows, cols = result.matrix.shape
        tracer.count("fock.gram_bytes", 16 * rows * cols)
        tracer.gram_keys[tracer.op_id][(id(model), n)] = model

    def spectral_after(args, result):
        model, n = args[0], args[1]
        tracer.count("fock.spectral_rows", model.n_generators ** n)

    wrapped = [
        (modelfile, "load_model_file", "modelfile.load", None),
        (modelfile, "load_hom_file", "modelfile.load", None),
        (modelfile, "load_bicharacter_file", "modelfile.load", None),
        (groups.Bicharacter, "phase", "groups.phase", None),
        (groups, "check_transmutation", "transmute", None),
        (models, "check_yang_baxter", "models.yang_baxter", None),
        (models, "check_symmetry", "models.symmetry", None),
        (fock, "check_infinite_statistics", "fock.infinite_statistics", None),
        (fock, "commutator_defect", "fock.commutator", None),
        (fock, "annihilate_twisted", "fock.annihilate_twisted", None),
        (fock, "check_braid_exchange_relations", "fock.exchange_nullity", None),
        (fock, "gram_matrix", "fock.gram", gram_after),
        (fock, "sector_dimension", "fock.spectral", spectral_after),
        (fock, "gram_psd_check", "fock.spectral", spectral_after),
        (transmute, "make_transmutation", "transmute", None),
        (transmute, "check_cross_symmetric", "transmute", None),
        (transmute, "check_relation_transport", "transmute", None),
        (coherence, "coherence_fuzz", "coherence.fuzz", None),
        (coherence, "parse_expr", "coherence.parse", None),
        (coherence, "normalize", "coherence.normalize", None),
        (coherence, "redexes", "coherence.redexes", None),
    ]
    for owner, attr, label, after in wrapped:
        _install(owner, attr, lambda fn, label=label, after=after:
                 tracer.span_wrapper(label, fn, after))

    def count_report_bytes(main):
        # the benchmark captures stdout in a StringIO; the report is ASCII
        @functools.wraps(main)
        def counted_main(*args, **kwargs):
            before = sys.stdout.tell()
            try:
                return main(*args, **kwargs)
            finally:
                tracer.count("cli.report_bytes", sys.stdout.tell() - before)
        return counted_main

    _install(braidstat.cli, "main",
             lambda fn: tracer.span_wrapper("cli.main", count_report_bytes(fn)))
    counters = [
        (models.ParticleModel, "cross_phase", "models.cross_phase_calls"),
        (coherence, "apply_rule", "coherence.rewrite_steps"),
    ]
    for owner, attr, label in counters:
        _install(owner, attr, lambda fn, label=label: tracer.count_wrapper(label, fn))


def layer_metrics(row: dict[str, float]) -> dict[str, float]:
    """The per-layer metrics of one operation, from :meth:`Tracer.per_op`."""
    get = row.get
    builds = get("fock.gram.n", 0.0)
    return {
        "modelfile.load_s": get("modelfile.load.s", 0.0),
        "modelfile.loads": get("modelfile.load.n", 0.0),
        "groups.phase_calls": get("groups.phase.n", 0.0),
        "groups.phase_s": get("groups.phase.s", 0.0),
        "models.cross_phase_calls": get("models.cross_phase_calls", 0.0),
        "models.yang_baxter_s": get("models.yang_baxter.s", 0.0),
        "models.symmetry_s": get("models.symmetry.s", 0.0),
        "fock.infinite_statistics_s": get("fock.infinite_statistics.s", 0.0),
        "fock.commutator_s": get("fock.commutator.s", 0.0),
        "fock.annihilate_twisted_calls": get("fock.annihilate_twisted.n", 0.0),
        "fock.annihilate_twisted_s": get("fock.annihilate_twisted.s", 0.0),
        "fock.exchange_nullity_s": get("fock.exchange_nullity.s", 0.0),
        "fock.gram_builds": builds,
        "fock.gram_build_s": get("fock.gram.s", 0.0),
        "fock.gram_bytes": get("fock.gram_bytes", 0.0),
        "fock.gram_reuse_ratio": get("fock.gram_distinct", 0.0) / builds if builds else 0.0,
        "fock.spectral_s": get("fock.spectral.self_s", 0.0),
        "fock.spectral_rows": get("fock.spectral_rows", 0.0),
        "transmute.s": get("transmute.s", 0.0),
        "coherence.fuzz_s": get("coherence.fuzz.s", 0.0),
        "coherence.parse_s": get("coherence.parse.s", 0.0),
        "coherence.normalize_s": get("coherence.normalize.s", 0.0),
        "coherence.rewrite_steps": get("coherence.rewrite_steps", 0.0),
        "coherence.redex_scans": get("coherence.redexes.n", 0.0),
        "coherence.redex_scan_s": get("coherence.redexes.s", 0.0),
        "cli.self_s": get("cli.main.self_s", 0.0),
        "cli.report_bytes": get("cli.report_bytes", 0.0),
    }
