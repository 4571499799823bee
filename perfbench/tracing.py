"""Per-layer spans recorded from outside the program.

`install` rebinds the public functions named in TARGETS to recording
wrappers: the binding in the defining module and every binding in another
homtower module that imported the function by name (a module-level call
looks the name up at call time, so calls inside the package see the
wrapper too).  The program's source is not touched.

Each call becomes one span (name, parent, start, end, counters).  The
counters are read from the arguments and the return value: matrix rows,
cols, nnz, rank, largest invariant factor bit length, prime, cover degree.
`layer_metrics` folds the spans into the per-layer metrics of
BENCHMARK.json; a layer that did not run reports 0.
"""

import sys
import time

# Functions wrapped at the layer boundaries.  A span is named module.function,
# renamed by SPAN_NAMES; smith_normal_form splits by keep_transforms.
TARGETS = (
    ("cli", "main"),
    ("growth", "run_tower"),
    ("covers", "mod_power_tower"),
    ("covers", "build_cover"),
    ("covers", "validate_action"),
    ("deltacomplex", "validate_complex"),
    ("deltacomplex", "homology_profile"),
    ("deltacomplex", "orient"),
    ("deltacomplex", "cap_duality_check"),
    ("bounds", "check_bounds"),
    ("bounds", "duality_report"),
    ("intlinalg", "smith_normal_form"),
    ("intlinalg", "rank_mod_p"),
    ("intlinalg", "soule_torsion_bound"),
    ("intlinalg", "verify_torsion_exactness_lemmas"),
)

SPAN_NAMES = {
    "soule_torsion_bound": "soule_bound",
    "verify_torsion_exactness_lemmas": "exactness_lemmas",
}

# Per-layer metrics: name -> unit.  Counts must repeat exactly between two
# traced runs of the same code and seed (COUNT_METRICS).
PER_LAYER = {
    "cli.main.self_s": "s",
    "growth.run_tower.self_s": "s",
    "covers.mod_power_tower.self_s": "s",
    "covers.build_cover.self_s": "s",
    "covers.validate_action.s": "s",
    "covers.validate_action.calls": "count",
    "covers.validate_action.per_level": "calls/level",
    "covers.sheets": "count",
    "deltacomplex.validate_complex.s": "s",
    "deltacomplex.validate_complex.calls": "count",
    "deltacomplex.validate_complex.per_cover": "calls/cover",
    "deltacomplex.homology_profile.self_s": "s",
    "deltacomplex.orient.s": "s",
    "deltacomplex.cap_duality_check.self_s": "s",
    "bounds.check_bounds.self_s": "s",
    "bounds.duality_report.self_s": "s",
    "intlinalg.rank_mod_p.s": "s",
    "intlinalg.rank_mod_p.calls": "count",
    "intlinalg.rank_mod_p.nnz_in": "count",
    "intlinalg.smith.s": "s",
    "intlinalg.smith.calls": "count",
    "intlinalg.smith.nnz_in": "count",
    "intlinalg.max_divisor_bits": "bits",
    "intlinalg.smith_transforms.s": "s",
    "intlinalg.smith_transforms.calls": "count",
    "intlinalg.smith_transforms.max_dim": "count",
    "intlinalg.soule_bound.s": "s",
    "intlinalg.exactness_lemmas.self_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}

COUNT_METRICS = tuple(
    name for name, unit in PER_LAYER.items() if unit != "s")


def _matrix_counters(matrix):
    return {"rows": matrix.rows, "cols": matrix.cols, "nnz": matrix.nnz()}


def _counters(func, args, result):
    """Counters of one call, read from its arguments and return value."""
    if func == "smith_normal_form":
        out = _matrix_counters(args[0])
        if result is not None:
            out["rank"] = result.rank
            out["divisor_bits"] = max((d.bit_length() for d in result.divisors), default=0)
        return out
    if func == "rank_mod_p":
        out = _matrix_counters(args[0])
        out["prime"] = args[1]
        if result is not None:
            out["rank"] = result
        return out
    if func == "soule_torsion_bound":
        return _matrix_counters(args[0])
    if func in ("validate_action", "build_cover"):
        return {"degree": args[1].degree}
    if func == "mod_power_tower":
        return {} if result is None else {"levels": len(result.levels),
                                          "degree": max(result.degrees, default=1)}
    if func in ("validate_complex", "homology_profile", "orient", "cap_duality_check",
                "check_bounds", "duality_report"):
        return {"simplices": sum(args[0].counts)}
    if func == "run_tower":
        return {"levels": len(args[0].levels)}
    return {}


class Recorder:
    """Spans of one process, kept in memory until the run ends."""

    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end, counters]
        self._stack = []

    def wrap(self, module, func, original):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        base = f"{module}.{SPAN_NAMES.get(func, func)}"

        def wrapper(*args, **kwargs):
            name = base
            if func == "smith_normal_form":
                keep = args[1] if len(args) > 1 else kwargs.get("keep_transforms", False)
                name = "intlinalg.smith_transforms" if keep else "intlinalg.smith"
            span = [name, stack[-1] if stack else -1, clock(), None, None]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                span[3] = clock()
                stack.pop()
                span[4] = _counters(func, args, result)

        wrapper.__wrapped__ = original
        return wrapper

    def to_json(self):
        return [{"name": n, "parent": p, "start": s, "end": e, "counters": c}
                for n, p, s, e, c in self.spans]


def install(recorder):
    """Rebind every target, in its module and wherever homtower imported it."""
    modules = [m for name, m in list(sys.modules.items())
               if name == "homtower" or name.startswith("homtower.")]
    for module, func in TARGETS:
        original = getattr(sys.modules[f"homtower.{module}"], func)
        wrapper = recorder.wrap(module, func, original)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    setattr(m, attr, wrapper)


def layer_metrics(spans):
    """Fold spans into the PER_LAYER metrics (trace.overhead_s excepted)."""
    child_time = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total = {}
    self_time = {}
    calls = {}
    for i, (name, _, start, end, _) in enumerate(spans):
        total[name] = total.get(name, 0.0) + (end - start)
        self_time[name] = self_time.get(name, 0.0) + (end - start - child_time[i])
        calls[name] = calls.get(name, 0) + 1

    def summed(name, key):
        return sum(c.get(key, 0) for n, _, _, _, c in spans if n == name)

    levels = summed("covers.mod_power_tower", "levels")
    covers = calls.get("covers.build_cover", 0)
    smiths = ("intlinalg.smith", "intlinalg.smith_transforms")
    out = {}
    for metric in PER_LAYER:
        layer, _, kind = metric.rpartition(".")
        if kind == "s":
            out[metric] = total.get(layer, 0.0)
        elif kind == "self_s":
            out[metric] = self_time.get(layer, 0.0)
        elif kind == "calls":
            out[metric] = calls.get(layer, 0)
        elif kind == "nnz_in":
            out[metric] = summed(layer, "nnz")
    out["covers.validate_action.per_level"] = (
        calls.get("covers.validate_action", 0) / levels if levels else 0.0)
    out["covers.sheets"] = summed("covers.build_cover", "degree")
    out["deltacomplex.validate_complex.per_cover"] = (
        calls.get("deltacomplex.validate_complex", 0) / covers if covers else 0.0)
    out["intlinalg.max_divisor_bits"] = max(
        (c.get("divisor_bits", 0) for n, _, _, _, c in spans if n in smiths), default=0)
    out["intlinalg.smith_transforms.max_dim"] = max(
        (max(c["rows"], c["cols"]) for n, _, _, _, c in spans
         if n == "intlinalg.smith_transforms"), default=0)
    out["trace.spans"] = len(spans)
    return out
