"""homtower benchmark: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a homtower checkout; the program is imported from
src/ as it stands.  Load is one closed-loop caller: each iteration is a
fresh single-threaded Python process (perfbench/child.py) that sets up,
makes one call into the program and exits, and the next starts only when
it has ended.  After three set-up-only iterations, iterations start until
the next one would end past --seconds, but never fewer than the workload's
minimum (one per labelling where a run visits them all).  Each iteration's
report is checked against topological invariants and the reference digest
recorded in perfbench/reference.json.

--trace 0 prints the end-to-end metrics.  wall_s and cpu_s of the call and
peak_rss_mb of the iteration process are medians over inputs of the median
over each input's iterations; setup_s (process start until homtower is
imported and the input is built) is the median over all iterations; ok_frac
is the share of iteration processes that passed.

--trace 1 alternates plain and traced iterations on one input and prints
the per-layer metrics of perfbench/tracing.py (medians over the traced
iterations), trace.overhead_s (traced minus plain wall_s), and fails the
run when a traced report differs from the plain one or a count differs
between two traced iterations.

Scratch files go to .perfbench_work/, emptied at the start of every run;
the spans of the last traced iteration stay there as JSON.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import tracing
from workloads import WORK_DIR, WORKLOADS, load_reference

CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")
SETUP_SAMPLES = 3
RUN_LIMIT_S = 170.0  # every run must end within 180 s
MIN_TRACED_PAIRS = 2


class Iteration:
    __slots__ = ("index", "mode", "result", "report", "problems")

    def __init__(self, index, mode, result, report, problems):
        self.index = index
        self.mode = mode
        self.result = result
        self.report = report
        self.problems = problems

    @property
    def ok(self):
        return not self.problems


def iterate(workload, seed, index, mode, reference, deadline):
    """One iteration process; its report is checked against REFERENCE
    unless MODE is setup or REFERENCE is None."""
    workload.write_input(seed, index)
    out = os.path.join(WORK_DIR, f"{mode}-{index}")
    spawned = time.monotonic()
    cmd = [sys.executable, CHILD, workload.name, str(0 if seed is None else seed),
           repr(spawned), mode, out]
    try:
        proc = subprocess.run(cmd, stdin=subprocess.DEVNULL, stdout=sys.stderr,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        return Iteration(index, mode, None, None, [f"{mode} iteration {index} timed out"])
    if proc.returncode != 0:
        return Iteration(index, mode, None, None,
                         [f"{mode} iteration {index} exited with code {proc.returncode}"])
    with open(out + ".result.json", "r", encoding="utf-8") as fh:
        result = json.load(fh)
    if mode == "setup":
        return Iteration(index, mode, result, None, [])
    with open(out + ".report", "rb") as fh:
        report = fh.read()
    problems = [] if reference is None else workload.check(report, seed, reference)
    return Iteration(index, mode, result, report, problems)


def _median(values):
    return statistics.median(values) if values else 0.0


def _median_over_inputs(workload, iterations, key):
    """Median over inputs of each input's median, so that a run which
    visits some inputs more often than others does not lean towards them."""
    groups = {}
    for it in iterations:
        groups.setdefault(workload.input_key(it.index), []).append(it.result[key])
    return _median([_median(values) for values in groups.values()])


def measure(workload, seed, seconds, reference, deadline):
    """End-to-end metrics of plain iterations."""
    iterations = [iterate(workload, seed, i, "setup", reference, deadline)
                  for i in range(SETUP_SAMPLES)]
    end = time.monotonic() + seconds
    took = []
    index = SETUP_SAMPLES
    while True:
        started = time.monotonic()
        iterations.append(iterate(workload, seed, index, "plain", reference, deadline))
        index += 1
        now = time.monotonic()
        took.append(now - started)
        next_end = now + _median(took)
        if not iterations[-1].ok or next_end > deadline:
            break
        if len(took) >= workload.min_iterations and next_end > end:
            break
    passed = [it for it in iterations if it.mode == "plain" and it.ok]
    metrics = {
        "wall_s": (_median_over_inputs(workload, passed, "wall_s"), "s"),
        "cpu_s": (_median_over_inputs(workload, passed, "cpu_s"), "s"),
        "peak_rss_mb": (_median_over_inputs(workload, passed, "peak_rss_mb"), "MB"),
        "setup_s": (_median([it.result["setup_s"] for it in iterations if it.result]), "s"),
        "ok_frac": (sum(it.ok for it in iterations) / len(iterations), "ratio"),
    }
    return iterations, metrics, []


def measure_traced(workload, seed, seconds, reference, deadline):
    """Per-layer metrics: plain and traced iterations alternate on one input."""
    end = time.monotonic() + seconds
    iterations = []
    pair = 0
    while True:
        started = time.monotonic()
        for mode in ("plain", "traced"):
            iterations.append(iterate(workload, seed, 0, mode, reference, deadline))
        pair += 1
        now = time.monotonic()
        if any(not it.ok for it in iterations[-2:]):
            break
        if pair >= MIN_TRACED_PAIRS and now + (now - started) > min(end, deadline):
            break
    defects = []
    plain = [it for it in iterations if it.mode == "plain" and it.ok]
    traced = [it for it in iterations if it.mode == "traced" and it.ok]
    for it in traced:
        if plain and it.report != plain[0].report:
            defects.append("traced report differs from the plain report")
    layers = [it.result["layers"] for it in traced]
    for name in tracing.COUNT_METRICS:
        seen = sorted({layer[name] for layer in layers if name in layer})
        if len(seen) > 1:
            defects.append(f"count {name} differs between traced iterations: {seen}")
    metrics = {}
    for name, unit in tracing.PER_LAYER.items():
        values = [layer[name] for layer in layers if name in layer]
        if name in tracing.COUNT_METRICS:
            metrics[name] = (values[0] if values else 0, unit)
        else:
            metrics[name] = (_median(values), unit)
    metrics["trace.overhead_s"] = (
        _median([it.result["wall_s"] for it in traced])
        - _median([it.result["wall_s"] for it in plain]), "s")
    return iterations, metrics, defects


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "homtower", "__init__.py")):
        print("perfbench: src/homtower not found; run from the root of a homtower checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    sys.path.insert(0, "src")
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    os.makedirs(WORK_DIR)
    workload = WORKLOADS[args.workload]
    reference = load_reference()
    workload.prepare(args.seed)
    run = measure_traced if args.trace else measure
    iterations, metrics, defects = run(workload, args.seed, args.seconds, reference, deadline)
    failed = sum(1 for it in iterations if not it.ok)
    for it in iterations:
        for problem in it.problems:
            print(f"perfbench: {args.workload}: {problem}", file=sys.stderr)
    for defect in defects:
        print(f"perfbench: {args.workload}: benchmark defect: {defect}", file=sys.stderr)
    walls = sorted(it.result["wall_s"] for it in iterations if it.ok and it.mode == "plain")
    print(f"perfbench: {args.workload} seed {args.seed}: {len(iterations)} iterations, "
          f"{failed} failed; plain wall_s {['%.3f' % w for w in walls]}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and not defects,
        "attempted": len(iterations),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
