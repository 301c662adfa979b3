"""Benchmark for braidstat: one workload per run, a fixed count of operations.

    python3 bench/run.py --workload check-zoo --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --self-test

A run performs one untimed warm-up operation and then a fixed count of timed
ones (at least 3), interleaved with reference tasks that measure the speed of
the machine (``reference.py``).  It checks every output against the
benchmark's own answers and prints as its last line
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones from a separate traced
run.  Full results, the run context and (traced) the spans go to
``bench/results/``.  See bench/README.md.
"""

import os

# One BLAS thread, fixed before numpy is imported: OpenBLAS's default second
# thread spins against the interpreter on a two-core machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
#: fresh processes timed per run for setup_s, spread over the timed loop so
#: that they sample the same stretch of machine time as the operations; the
#: median is reported
SETUP_PROBES = 11
MIN_OPS = 3
#: time of one row of reference tasks, as a share of the nominal time of one
#: part of an operation
SPEED_SHARE = 0.15


def speed_repeat(workload) -> int:
    """Reference tasks in one row."""
    import reference

    return max(1, round(SPEED_SHARE * workload.nominal_op_s / workload.parts
                        / reference.NOMINAL_S[workload.speed_task]))


def op_count(workload, seconds: int) -> int:
    """Timed operations in a run: fixed by the arguments, not by the clock.
    Operations and their rows of reference tasks fill ``seconds`` at nominal
    speed."""
    import reference

    row_s = speed_repeat(workload) * reference.NOMINAL_S[workload.speed_task]
    return max(MIN_OPS, round(seconds / (workload.nominal_op_s + (workload.parts + 1) * row_s)))


class Pacer:
    """Times an operation part by part, with a row of reference tasks before,
    between and after its parts, and gives its time at nominal speed: each
    part's time divided by the mean of the two rows around it, over the
    row's nominal time.  A stretch in which the reference tasks run 30% slow
    divides the parts in it by 1.3."""

    def __init__(self, probe, nominal_row_s: float):
        self.probe, self.nominal_row_s = probe, nominal_row_s
        #: every row's time, and the wall time spent outside the operations'
        #: parts: rows and bracketed measurements
        self.rows: list[float] = []
        self.waited = 0.0

    def _row(self) -> float:
        t0 = time.perf_counter()
        self.rows.append(self.probe.time_task())
        self.waited += time.perf_counter() - t0
        return self.rows[-1]

    def at_nominal(self, seconds: float, before: float, after: float) -> float:
        return seconds * 2 * self.nominal_row_s / (before + after)

    def begin(self) -> None:
        self.parts, self.op_rows = [], [self._row()]
        self.t0 = time.perf_counter()

    def between(self) -> None:
        """Ends a part; the workload calls it between two parts."""
        self.parts.append(time.perf_counter() - self.t0)
        self.op_rows.append(self._row())
        self.t0 = time.perf_counter()

    def end(self) -> None:
        """Ends the operation; ``parts`` and ``op_nominal`` are then its own."""
        self.between()
        self.op_nominal = sum(self.at_nominal(t, a, b)
                              for t, a, b in zip(self.parts, self.op_rows, self.op_rows[1:]))

    def bracket(self, measure) -> tuple[float, float]:
        """Runs ``measure()``, which returns seconds, between two rows; returns
        those seconds and the same at nominal speed."""
        before = self._row()
        t0 = time.perf_counter()
        seconds = measure()
        self.waited += time.perf_counter() - t0
        return seconds, self.at_nominal(seconds, before, self._row())


def load_workloads():
    if not (SRC / "braidstat" / "__init__.py").is_file():
        raise SystemExit(f"error: no braidstat sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import workloads

    return workloads.WORKLOADS


# ---------------------------------------------------------------------------
# Run context


def read_cpu_ticks() -> list[int]:
    """The aggregate ``cpu`` line of /proc/stat (user ... steal), in clock ticks."""
    with open("/proc/stat") as f:
        return [int(v) for v in f.readline().split()[1:]]


def openblas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def run_context(ticks_before: list[int], ticks_after: list[int]) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    delta = [b - a for a, b in zip(ticks_before, ticks_after)]
    hz = os.sysconf("SC_CLK_TCK")
    steal = delta[7] if len(delta) > 7 else 0
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads_env": BLAS_THREADS,
        "blas_threads": openblas_threads(),
        "steal_s": steal / hz,
        "steal_share": steal / max(1, sum(delta[:8])),
    }


# ---------------------------------------------------------------------------
# Set-up time


def setup_probe(name: str, seed: int, seconds: int) -> None:
    """Child process: import braidstat, load the workload's inputs, print seconds."""
    t0 = time.perf_counter()
    workload = load_workloads()[name]
    workload.setup(seed, op_count(workload, seconds) + 1, RESULTS)
    print(repr(time.perf_counter() - t0))


def measure_setup(name: str, seed: int, seconds: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds)],
        capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# One run


def attempt(workload, inputs, k: int, tracer, pacer=None) -> tuple[float | None, list[str]]:
    """Run operation ``k`` (timed), then check it (untimed).  With a pacer,
    the time is the sum of the operation's parts; the pacer keeps their time
    at nominal speed."""
    gc.collect()
    if tracer is not None:
        tracer.op_id = k
    try:
        if pacer is None:
            t0 = time.perf_counter()
            out = workload.run(inputs, k)
            elapsed = time.perf_counter() - t0
        else:
            pacer.begin()
            out = workload.run(inputs, k, pacer.between)
            pacer.end()
            elapsed = sum(pacer.parts)
    except Exception:
        return None, [f"raised: {traceback.format_exc(limit=3)}"]
    finally:
        if tracer is not None:
            tracer.op_id = tracer.UNTIMED
    try:
        workload.observe(inputs, out)
        return elapsed, workload.check(inputs, out)
    except Exception:
        return elapsed, [f"check raised: {traceback.format_exc(limit=3)}"]


def run(name: str, seed: int, seconds: int, trace: bool) -> int:
    workloads = load_workloads()
    if name not in workloads:
        print(f"error: unknown workload {name!r}; known: {', '.join(workloads)}",
              file=sys.stderr)
        return 2
    workload = workloads[name]
    n_ops = op_count(workload, seconds)
    # index of the timed operation before which each probe runs
    probe_at = [] if trace else [i * n_ops // SETUP_PROBES for i in range(SETUP_PROBES)]

    import reference
    import spans

    tracer = None
    if trace:
        tracer = spans.Tracer()
        spans.install(tracer)
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    work = RESULTS / f"work-{tag}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    repeat = speed_repeat(workload)
    try:
        # traced runs report raw per-layer times and run no reference tasks
        with (contextlib.nullcontext() if trace else
              reference.SpeedProbe(workload.speed_task, repeat)) as speed_probe:
            pacer = None if trace else Pacer(
                speed_probe, repeat * reference.NOMINAL_S[workload.speed_task])
            inputs = workload.setup(seed, n_ops + 1, work)
            _, warmup_errors = attempt(workload, inputs, 0, tracer)
            failures = {0: warmup_errors} if warmup_errors else {}
            op_s, op_nominal, setup_samples, setup_nominal = [], [], [], []
            ticks = read_cpu_ticks()
            usage = resource.getrusage(resource.RUSAGE_SELF)
            loop_start = time.perf_counter()
            for k in range(1, n_ops + 1):
                for _ in range(probe_at.count(k - 1)):
                    setup, nominal = pacer.bracket(lambda: measure_setup(name, seed, seconds))
                    setup_samples.append(setup)
                    setup_nominal.append(nominal)
                elapsed, errors = attempt(workload, inputs, k, tracer, pacer)
                if elapsed is not None:
                    op_s.append(elapsed)
                    if pacer is not None:
                        op_nominal.append(pacer.op_nominal)
                if errors:
                    failures[k] = errors
            # wall time of the loop less the time spent waiting for the helper
            # processes; they run one at a time, not beside the loop
            waited = 0.0 if pacer is None else pacer.waited
            loop_wall = time.perf_counter() - loop_start - waited
            usage_after = resource.getrusage(resource.RUSAGE_SELF)
            context = run_context(ticks, read_cpu_ticks())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    cpu_s = (usage_after.ru_utime - usage.ru_utime) + (usage_after.ru_stime - usage.ru_stime)
    context.update({"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
                    "timed_ops": n_ops, "timed_s": sum(op_s),
                    "cpu_per_wall": cpu_s / loop_wall})
    attempted = n_ops + 1
    result = {"context": context, "op_s": op_s, "setup_s_samples": setup_samples,
              "failures": {str(k): v for k, v in failures.items()}}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if trace:
        rows = tracer.per_op(list(range(1, n_ops + 1)))
        layers = [spans.layer_metrics(rows[k]) for k in sorted(rows)]
        values = {key: statistics.median(layer[key] for layer in layers) for key in layers[0]}
        result["per_op_layers"] = layers
        context["traced_op_s.p50"] = statistics.median(op_s) if op_s else None
    else:
        # times in seconds at the machine's nominal speed; see Pacer
        result.update({"op_s_at_nominal": op_nominal, "setup_s_at_nominal": setup_nominal,
                       "reference_rows_s": pacer.rows})
        context.update({"speed_task": workload.speed_task, "speed_repeat": repeat,
                        "speed": sum(op_s) / sum(op_nominal),
                        "raw_setup_s": statistics.median(setup_samples),
                        "raw_op_s.p50": statistics.median(op_s)})
        values = {
            "setup_s": statistics.median(setup_nominal),
            "op_s.p50": statistics.median(op_nominal),
            "ops_per_s": len(op_nominal) / sum(op_nominal),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if trace else "end_to_end"]}
    summary = {"correct": not failures, "attempted": attempted, "failed": len(failures),
               "metrics": metrics}
    result.update(summary)
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / f"{tag}.json").write_text(json.dumps(result, indent=1) + "\n")
    if trace:
        import numpy as np

        np.savez_compressed(RESULTS / f"{tag}.spans.npz", labels=np.array(tracer.labels),
                            **tracer.arrays())
    for k, errors in failures.items():
        for error in errors[:5]:
            print(f"op {k}: {error}", file=sys.stderr)
    print("context " + json.dumps(context, sort_keys=True))
    print(json.dumps(summary))
    return 0


# ---------------------------------------------------------------------------
# Self-test: every check rejects a deliberately wrong answer


def self_test() -> int:
    workloads = load_workloads()
    RESULTS.mkdir(parents=True, exist_ok=True)
    work = RESULTS / f"work-selftest-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    bad = 0
    try:
        for workload in workloads.values():
            inputs = workload.setup(0, 2, work)
            out = workload.run(inputs, 0)
            workload.observe(inputs, out)
            errors = workload.check(inputs, out)
            print(f"{workload.name}: true answer: {'accepted' if not errors else errors}")
            bad += bool(errors)
            for check, what, wrong in workload.wrong_answers(inputs, out):
                trial = dict(inputs)
                if check != "bytes":
                    # check-zoo takes an unset reference report from the answer
                    # itself, so only `check` can object
                    trial["reference"] = None
                errors = workload.check(trial, wrong)
                caught = any(e.startswith(check + ":") for e in errors)
                bad += not caught
                print(f"  {'rejected' if caught else 'MISSED  '} [{check}] {what}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("self-test " + ("passed" if not bad else f"failed: {bad} problems"))
    return 0 if not bad else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="show that every check rejects a wrong answer")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    if not args.workload:
        parser.error("--workload is required")
    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.seconds)
        return 0
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
