"""Paired before/after runs of the fixed workloads, written as one JSON file.

    python bench/pairs.py --parent HEAD~1 --change HEAD --pairs 10 --out BENCH_<n>.json

Each pair extracts the two revisions (`git archive`) in turn into one fixed
directory, so an offset that follows the checkout's path cancels, and runs
every workload once per revision, each run a child process with `src` and
`tests` on PYTHONPATH.  Even pairs run the parent first and odd pairs the
change first, and the two orders are reported apart.  A run records its
wall time, from spawn to exit, and its peak RSS, the child's own
ru_maxrss from wait4 (what RUSAGE_CHILDREN reports for it), and the
sha256 of its stdout, so the two revisions' reports are compared too.
With --stages, each revision also runs each workload once under cProfile,
and the cumulative seconds of the pipeline's stage functions are recorded.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

WORK = os.path.join(tempfile.gettempdir(), "homtower-bench-pairs")
TREE = os.path.join(WORK, "tree")
COVER = os.path.join(WORK, "torus_cover_256.json")
SOL_COVERS = {degree: os.path.join(WORK, f"sol_cover_{degree}.json") for degree in (64, 1024)}
PRIMES = ["-p", "2", "3", "5", "--format", "json"]
SOL_SCRIPT = os.path.join(WORK, "sol_tower.py")
SOL_TOWER = ("import json\nfrom homtower import mod_power_tower, run_tower\n"
             "from test_dimension3 import sol\n"
             "print(json.dumps(run_tower(mod_power_tower(sol(), 2, 12), (2, 3, 5)).to_json_dict()))\n")
# name: arguments after `python`, run in the extracted tree
WORKLOADS = {
    "tower torus2 m2 L5": ["-m", "homtower.cli", "tower", "--builtin", "torus2", "-m", "2", "-L", "5"]
    + PRIMES,
    "tower torus2 m2 L6": ["-m", "homtower.cli", "tower", "--builtin", "torus2", "-m", "2", "-L", "6"]
    + PRIMES,
    "tower surface g2 m2 L2": ["-m", "homtower.cli", "tower", "--builtin", "surface", "--g", "2",
                               "-m", "2", "-L", "2"] + PRIMES,
    "tower torus2 m3 L3": ["-m", "homtower.cli", "tower", "--builtin", "torus2", "-m", "3", "-L", "3"]
    + PRIMES,
    "bounds torus2 cover degree 256": ["-m", "homtower.cli", "bounds", COVER] + PRIMES,
    # a 3-dimensional base on each side of the Morse term budget: the
    # degree-64 cover of Sol keeps its matching, the degree-1024 one gives it up
    "tower sol cover degree 64 m2 L3": ["-m", "homtower.cli", "tower", SOL_COVERS[64],
                                        "-m", "2", "-L", "3"] + PRIMES,
    "tower sol cover degree 1024 m2 L1": ["-m", "homtower.cli", "tower", SOL_COVERS[1024],
                                          "-m", "2", "-L", "1"] + PRIMES,
    "sol m2 L12 in-process": [SOL_SCRIPT],
}
MAKE_INPUTS = ("import json, sys; from homtower import build_cover, builtin, complex_to_json, "
               "mod_power_tower; from test_dimension3 import sol\n"
               "def write(base, levels, path):\n"
               "    action = mod_power_tower(base, 2, levels).levels[-1].action\n"
               "    json.dump(complex_to_json(build_cover(base, action)[0]), open(path, 'w'))\n"
               "write(builtin('torus2'), 4, sys.argv[1]); write(sol(), 6, sys.argv[2]); "
               "write(sol(), 10, sys.argv[3])\n")
STAGES = ("run_tower", "mod_power_tower", "validate_action", "build_cover", "lifted_profile",
          "_morse", "homology_profile", "_boundary_off_rows", "smith_normal_form",
          "_ranks_and_unit_columns", "_dual_forest", "orient", "cap_duality_check", "check_bounds")


def extract(rev):
    """The revision's files, alone, at TREE."""
    shutil.rmtree(TREE, ignore_errors=True)
    os.makedirs(TREE)
    archive = subprocess.run(["git", "archive", rev], check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", TREE], input=archive, check=True)


def child_env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(TREE, "src"),
                                                        os.path.join(TREE, "tests")]),
                PYTHONHASHSEED="0")


def run(args):
    """(wall s, peak RSS MB, sha256 of stdout) of one child process."""
    with tempfile.TemporaryFile() as out:
        start = time.perf_counter()
        child = subprocess.Popen([sys.executable, *args], cwd=TREE, env=child_env(), stdout=out)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        if child.returncode:
            raise RuntimeError(f"{args} exited with {child.returncode}")
        out.seek(0)
        digest = hashlib.sha256(out.read()).hexdigest()
    return wall, usage.ru_maxrss / 1024, digest


def stages(args):
    """Cumulative seconds of each STAGES function under cProfile."""
    import pstats
    with tempfile.NamedTemporaryFile(suffix=".prof") as prof:
        subprocess.run([sys.executable, "-m", "cProfile", "-o", prof.name, *args], cwd=TREE,
                       env=child_env(), check=True, stdout=subprocess.DEVNULL)
        totals = {}
        for (filename, _, name), (_, _, _, cumulative, _) in pstats.Stats(prof.name).stats.items():
            if name in STAGES and "homtower" in filename:
                totals[name] = round(totals.get(name, 0.0) + cumulative, 4)
    return dict(sorted(totals.items()))


def summary(runs):
    return {"wall_s": round(statistics.median(r[0] for r in runs), 4),
            "peak_rss_mb": round(statistics.median(r[1] for r in runs), 1)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD~1")
    parser.add_argument("--change", default="HEAD")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--stages", action="store_true", help="also record cProfile stage totals")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    revs = {side: subprocess.run(["git", "rev-parse", rev], check=True, capture_output=True,
                                 text=True).stdout.strip()
            for side, rev in (("parent", args.parent), ("change", args.change))}
    os.makedirs(WORK, exist_ok=True)
    with open(SOL_SCRIPT, "w", encoding="utf-8") as fh:
        fh.write(SOL_TOWER)
    extract(revs["change"])
    subprocess.run([sys.executable, "-c", MAKE_INPUTS, COVER, SOL_COVERS[64], SOL_COVERS[1024]],
                   cwd=TREE, env=child_env(), check=True)
    runs = {name: {order: {"parent": [], "change": []} for order in ("parent_first", "change_first")}
            for name in WORKLOADS}
    digests = {name: {"parent": set(), "change": set()} for name in WORKLOADS}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            extract(revs[side])
            for name in WORKLOADS:
                wall, peak, digest = run(WORKLOADS[name])
                runs[name][f"{order[0]}_first"][side].append((wall, peak))
                digests[name][side].add(digest)
            print(f"pair {i + 1}/{args.pairs}: {side} done", file=sys.stderr)
    result = {"script": "bench/pairs.py", "parent": revs["parent"], "change": revs["change"],
              "pairs": args.pairs, "python": platform.python_version(),
              "machine": f"{platform.machine()}, {os.cpu_count()} CPUs", "workloads": {}}
    for name in WORKLOADS:
        both = {side: [r for order in runs[name].values() for r in order[side]]
                for side in ("parent", "change")}
        medians = {side: summary(rs) for side, rs in both.items()}
        result["workloads"][name] = {
            "argv": ["python", *WORKLOADS[name]],
            "same_output": digests[name]["parent"] == digests[name]["change"]
            and len(digests[name]["parent"]) == 1,
            "median": medians,
            "ratio": {m: round(medians["change"][m] / medians["parent"][m], 3)
                      for m in ("wall_s", "peak_rss_mb")},
            "by_order": {order: {
                **{side: {"wall_s": [round(r[0], 4) for r in rs],
                          "peak_rss_mb": [round(r[1], 1) for r in rs]} for side, rs in sides.items()},
                "wall_ratio": round(summary(sides["change"])["wall_s"]
                                    / summary(sides["parent"])["wall_s"], 3) if sides["parent"] else None,
            } for order, sides in runs[name].items()},
        }
    if args.stages:
        for side in ("parent", "change"):
            extract(revs[side])
            for name in WORKLOADS:
                result["workloads"][name].setdefault("stages_s", {})[side] = stages(WORKLOADS[name])
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    shutil.rmtree(WORK, ignore_errors=True)


if __name__ == "__main__":
    main()
