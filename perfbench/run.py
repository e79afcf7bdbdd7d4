"""ovflow benchmark: three experiment batteries timed end to end, and a
traced run that splits each pass by layer.

    python3 perfbench/run.py --workload sweep_c04 --seed 1 --seconds 30 --trace 0

Run from the root of a source tree; ovflow is imported from ``src/``.
Workloads: sweep_c04, deep_battery, scalar_lab (see perfbench/README.md).

One process runs one workload. It imports every ovflow module afresh and
builds the workload's pool of pass inputs before each of the first five
passes; setup_s is the median time of that. It runs whole rounds until the
next would end after ``--seconds``: a round runs every pass in the pool
once, and wall_s is the median over rounds of the mean pass time. With
``--trace 1`` a round is one untraced and one traced pass of the pool's
first entry; the metrics are the per-layer ledger of the traced passes, and
trace.overhead_s is their median wall time minus the untraced one. Every
pass is checked at the acceptance-gate bounds.

Human-readable lines go first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. The metric names and
units are read from BENCHMARK.json at the root.
"""

import os

# one BLAS/OpenMP thread, set before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import platform
import resource
import shutil
import statistics
import sys
import time
from types import SimpleNamespace

import numpy as np

from ledger import NullTracer, Tracer, median_times
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
MODULES = ("cost", "linnet", "invariant", "odeint", "flow", "scalarcase", "saddle", "sigmoid", "cli")
# Set-ups per run. Each re-import leaves some memory behind, so a fixed
# count keeps peak_rss_mb independent of how many passes fit in a run.
SETUPS = 5


def import_ovflow() -> SimpleNamespace:
    """Import every ovflow module afresh; expose only each module's __all__."""
    for name in [m for m in sys.modules if m == "ovflow" or m.startswith("ovflow.")]:
        del sys.modules[name]
    modules = {name: importlib.import_module(f"ovflow.{name}") for name in MODULES}
    return SimpleNamespace(**{
        name: SimpleNamespace(**{attr: getattr(mod, attr) for attr in mod.__all__})
        for name, mod in modules.items()
    })


def set_up(workload, seed: int):
    """Import ovflow afresh and build the workload's pool of pass inputs.
    Returns (ovflow namespace, pool, seconds taken)."""
    start = time.perf_counter()
    ov = import_ovflow()
    pool = workload.build(ov, seed)
    return ov, pool, time.perf_counter() - start


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_note() -> dict:
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "git_sha": git_sha(),
        "cpu": cpu_model(),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": os.environ["OMP_NUM_THREADS"],
    }


def load_metric_specs() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run(args) -> int:
    workload = WORKLOADS[args.workload]
    specs = load_metric_specs()
    if not os.path.isfile(os.path.join(SRC, "ovflow", "__init__.py")):
        print(f"error: no ovflow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    ov, pool, spent = set_up(workload, args.seed)
    setup_times = [spent]
    loaded_from = os.path.abspath(sys.modules["ovflow"].__file__)
    if not loaded_from.startswith(SRC + os.sep):
        print(f"error: ovflow was imported from {loaded_from}, not from {SRC}", file=sys.stderr)
        return 2

    note = machine_note()
    scratch = os.path.join(ROOT, ".perfbench", f"work-{os.getpid()}")
    walls = {False: [], True: []}
    layer_times: list[dict] = []
    layer_counts: list[dict] = []
    spans: list[dict] = []
    attempted = failed = 0
    notes: list[str] = []
    # A round is one untraced pass of every pool entry, or with --trace 1 one
    # untraced and one traced pass of the first entry. Only whole rounds are
    # measured, so every entry is timed equally often; a round's wall time is
    # the mean over its passes, and wall_s is the median over rounds.
    if args.trace:
        round_plan = [(0, False), (0, True)]
    else:
        round_plan = [(entry, False) for entry in range(len(pool))]
    deadline = time.perf_counter() + args.seconds
    index = 0
    try:
        while True:
            round_start = time.perf_counter()
            round_walls = {False: [], True: []}
            for entry, traced in round_plan:
                inputs = pool[entry]
                outdir = os.path.join(scratch, f"pass{index}")
                os.makedirs(outdir)
                tracer = Tracer(index, ov.cost.ScalarMatrixCost) if traced else NullTracer()
                index += 1
                start = time.perf_counter()
                outcome = workload.run(ov, inputs, tracer, outdir)
                round_walls[traced].append(time.perf_counter() - start)
                verdict = workload.check(inputs, outcome, outdir)
                shutil.rmtree(outdir)
                del outcome  # no two passes' trajectories held at once
                attempted += verdict.attempted
                failed += verdict.failed
                notes.extend(verdict.notes)
                if traced:
                    times, counts = tracer.layer_metrics()
                    counts.update(verdict.counts)
                    layer_times.append(times)
                    layer_counts.append(counts)
                    spans.extend(tracer.records())
                # the first passes each get a fresh set-up, so that setup_s
                # samples more of the run than its first moment
                if len(setup_times) < SETUPS:
                    ov, pool, spent = set_up(workload, args.seed)
                    setup_times.append(spent)
            for traced, values in round_walls.items():
                if values:
                    walls[traced].append(statistics.fmean(values))
            now = time.perf_counter()
            if now + (now - round_start) > deadline:
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    repeatable = all(counts == layer_counts[0] for counts in layer_counts)
    if not repeatable:
        notes.append("per-layer counts differ between traced passes of the same inputs")
    correct = failed == 0 and repeatable

    print(f"ovflow perfbench: workload={workload.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} " + " ".join(f"{k}={v!r}" if k == "cpu" else f"{k}={v}" for k, v in note.items()))
    q1, wall, q3 = quartiles(walls[False])
    print(f"rounds: {len(walls[False])} of {len(round_plan)} passes, "
          f"wall_s p25 {q1:.4f} median {wall:.4f} p75 {q3:.4f}")
    print(f"fail_frac {failed / attempted:.6g} ({failed} of {attempted} checks failed)")
    for text in notes[:20]:
        print(f"FAILED {text}", file=sys.stderr)

    if args.trace:
        traced_wall = statistics.median(walls[True])
        values = median_times(layer_times)
        values.update(layer_counts[0])
        values["trace.overhead_s"] = traced_wall - wall
        print(f"traced wall_s median {traced_wall:.4f}")
        out = os.path.join(ROOT, ".perfbench", f"spans-{workload.name}-seed{args.seed}.jsonl")
        with open(out, "w") as handle:
            handle.write(json.dumps({"workload": workload.name, "seed": args.seed, **note}) + "\n")
            for record in spans:
                handle.write(json.dumps(record) + "\n")
        print(f"spans: {len(spans)} written to {os.path.relpath(out, ROOT)}")
        chosen = specs["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
        chosen = specs["end_to_end"]

    metrics = {}
    for spec in chosen:
        value = values.get(spec["name"], 0)
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"  {spec['name']:<36} {value:>14.6g} {spec['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args())


if __name__ == "__main__":
    sys.exit(main())
