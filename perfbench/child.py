"""One iteration of a workload in a fresh, single-threaded process.

    python3 perfbench/child.py WORKLOAD SEED SPAWNED MODE OUT

SPAWNED is the benchmark's time.monotonic() just before it started this
process (CLOCK_MONOTONIC is shared by all processes of the machine), so the
set-up time includes interpreter start-up.  MODE is `setup` (stop after
set-up), `plain` or `traced`.  The process writes OUT.result.json and, unless
MODE is `setup`, the report bytes to OUT.report; a traced iteration also
writes its spans to OUT.spans.json.  Run from the root of the checkout.
"""

import json
import os
import resource
import sys
import time


def main(argv):
    name, seed, spawned, mode, out = argv
    seed = int(seed)
    sys.path.insert(0, "src")
    import homtower.cli  # noqa: F401  (imports every layer; part of set-up)
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    state = workload.setup()
    result = {"setup_s": time.monotonic() - float(spawned)}
    if mode != "setup":
        recorder = None
        if mode == "traced":
            import tracing
            recorder = tracing.Recorder()
            tracing.install(recorder)
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        report = workload.call(state, seed)
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
        result["wall_s"] = wall
        result["cpu_s"] = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        with open(out + ".report", "wb") as fh:
            fh.write(report)
        if recorder is not None:
            result["layers"] = tracing.layer_metrics(recorder.spans)
            with open(out + ".spans.json", "w", encoding="utf-8") as fh:
                json.dump(recorder.to_json(), fh)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tmp = out + ".result.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    os.replace(tmp, out + ".result.json")


if __name__ == "__main__":
    main(sys.argv[1:])
