"""Record perfbench/reference.json: the report digest of every workload.

    python3 perfbench/record_reference.py

Run from the root of a checkout.  Each workload runs once through the same
iteration process as the benchmark, on its input with the original labels
(the reports do not depend on labels) and, for verify-suite, with seed 0.
The reports must pass their invariant checks first.  The file is recorded
once, when the benchmark is defined; re-recording it after a change to the
program would hide a changed report.
"""

import hashlib
import json
import os
import sys
import time

from run import iterate
from workloads import REFERENCE, WORK_DIR, WORKLOADS, VerifySuite


def main():
    os.makedirs(WORK_DIR, exist_ok=True)
    sys.path.insert(0, "src")
    digests = {}
    verify_text = None
    for name, workload in WORKLOADS.items():
        workload.prepare(0)
        seed = 0 if isinstance(workload, VerifySuite) else None
        it = iterate(workload, seed, 0, "plain", None, time.monotonic() + 600)
        if it.result is None:
            raise SystemExit(f"{name}: {it.problems}")
        problems = workload.invariants(json.loads(it.report), seed)
        if problems:
            raise SystemExit(f"{name}: {problems}")
        digests[name] = hashlib.sha256(it.report).hexdigest()
        if isinstance(workload, VerifySuite):
            verify_text = it.report.decode("utf-8")
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"digests": digests, "verify_report_seed0": verify_text}, fh,
                  indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
