"""Homology growth along towers of finite covers.

A tower run records, per level, the Betti numbers, mod-p dimensions and
torsion of the cover, and GrowthReport.series divides each by the degree:
exact rationals for the Betti series, floats of the exact torsion order's
log for log-torsion.  Reports state the computed finite series and their
deltas only; no limit is ever claimed.
"""

import hashlib
import json
import math
import os
import warnings
from fractions import Fraction

from .covers import action_to_json, lifted_profile
from .deltacomplex import HomologyProfile, _uc_dims, builtin_facts, complex_to_json
from .intlinalg import FgAbelianGroup, from_decimal, to_decimal


class LevelStats:
    """One tower level's numbers, read from its HomologyProfile."""

    __slots__ = ("index", "modulus", "degree", "counts", "betti_q", "fp_dims",
                 "torsion_orders")

    def __init__(self, index, level, base_counts, profile):
        self.index = index
        self.modulus = level.modulus
        self.degree = level.degree
        self.counts = tuple(level.degree * c for c in base_counts)
        self.betti_q = tuple(g.free_rank for g in profile.groups)
        self.fp_dims = {p: tuple(dims) for p, dims in profile.fp_dims.items()}
        self.torsion_orders = tuple(g.torsion_order for g in profile.groups)

    def log_torsion(self, k):
        return math.log(self.torsion_orders[k]) if self.torsion_orders[k] > 1 else 0.0


def _trend_verdict(series):
    """Where a normalized series starts to fall for good (1-based level
    index), its last value and its last delta, all on its floats."""
    series = [float(x) for x in series]
    monotone_from = None
    for start in range(len(series)):
        if all(series[i + 1] <= series[i] + 1e-12 for i in range(start, len(series) - 1)):
            monotone_from = start + 1
            break
    return {
        "monotone_from_level": monotone_from,
        "last": series[-1] if series else None,
        "last_delta": (series[-1] - series[-2]) if len(series) >= 2 else None,
    }


class GrowthReport:
    """A tower's levels and `series`, built once and read by every output:
    each verdict key betti_q[k=..], betti_p[p=..,k=..], log_torsion[k=..]
    to its values divided by the degree, level by level (Fractions for the
    Betti numbers and F_p dimensions, floats for log torsion)."""

    __slots__ = ("base_name", "dim", "modulus", "primes", "residual", "warnings",
                 "levels", "amenable", "series", "verdicts")

    def __init__(self, tower, primes, levels):
        self.base_name = tower.base.name or "custom"
        self.dim = tower.base.dim
        self.modulus = tower.modulus
        self.primes = tuple(primes)
        self.residual = tower.residual
        self.warnings = tower.warnings
        levels = self.levels = tuple(levels)
        self.amenable = all(builtin_facts(tower.base))  # recorded aspherical, pi_1 amenable
        self.series = {}
        for k in range(self.dim + 1):
            self.series[f"betti_q[k={k}]"] = [Fraction(lv.betti_q[k], lv.degree) for lv in levels]
            for p in self.primes:
                self.series[f"betti_p[p={p},k={k}]"] = [Fraction(lv.fp_dims[p][k], lv.degree)
                                                        for lv in levels]
            self.series[f"log_torsion[k={k}]"] = [lv.log_torsion(k) / lv.degree for lv in levels]
        self.verdicts = {key: _trend_verdict(values) for key, values in self.series.items()}

    @property
    def degrees(self):
        return tuple(level.degree for level in self.levels)

    def betti_series(self, k):
        return self.series[f"betti_q[k={k}]"]

    def to_json_dict(self):
        levels, degrees = [], range(self.dim + 1)
        for i, level in enumerate(self.levels):
            betti = [self.series[f"betti_q[k={k}]"][i] for k in degrees]
            normalized = {
                "betti_q": [str(x) for x in betti],
                "betti_q_decimal": [float(x) for x in betti],
                "betti_p": {str(p): [float(self.series[f"betti_p[p={p},k={k}]"][i])
                                     for k in degrees] for p in self.primes},
                "log_torsion": [self.series[f"log_torsion[k={k}]"][i] for k in degrees],
            }
            levels.append({
                "level": level.index,
                "modulus": level.modulus,
                "degree": level.degree,
                "counts": list(level.counts),
                "betti_q": list(level.betti_q),
                "betti_p": {str(p): list(level.fp_dims[p]) for p in self.primes},
                "torsion_order": [to_decimal(t) for t in level.torsion_orders],
                "log_torsion": [level.log_torsion(k) for k in degrees],
                "normalized": normalized,
            })
        return {
            "base": self.base_name,
            "dim": self.dim,
            "modulus": self.modulus,
            "prime_list": list(self.primes),
            "residual": self.residual,
            "warnings": list(self.warnings),
            "levels": levels,
            "verdicts": self.verdicts,
        }

    def csv_rows(self):
        header = ["level", "degree", "k", "betti_q"]
        header += [f"betti_p{p}" for p in self.primes]
        header += ["log_torsion", "norm_betti_q"]
        header += [f"norm_betti_p{p}" for p in self.primes]
        header += ["norm_log_torsion"]
        yield tuple(header)
        for i, level in enumerate(self.levels):
            for k in range(self.dim + 1):
                row = [level.index, level.degree, k, level.betti_q[k]]
                row += [level.fp_dims[p][k] for p in self.primes]
                row += [level.log_torsion(k), float(self.series[f"betti_q[k={k}]"][i])]
                row += [float(self.series[f"betti_p[p={p},k={k}]"][i]) for p in self.primes]
                row += [self.series[f"log_torsion[k={k}]"][i]]
                yield tuple(row)


# Part of every cache key: change it whenever the entry layout or the way a
# level is computed changes, so entries written by other versions are missed.
_CACHE_SCHEMA = "homtower-level/3"


def _level_cache_key(base, action, primes):
    payload = json.dumps({
        "schema": _CACHE_SCHEMA,
        "complex": complex_to_json(base),
        "action": action_to_json(action),
        "primes": list(primes),
    }, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


def _load_cached_level(path, base, degree, primes):
    """The profile of a cached level, or None when there is no entry.

    An entry is the level's integral homology, one [free rank, [invariant
    factors as decimal strings]] pair per degree; the F_p dimensions follow
    by universal coefficients (_uc_dims).  An entry that does not parse, has
    another shape, fails FgAbelianGroup's checks or whose Betti numbers do
    not give degree times the base Euler characteristic is ignored with a
    warning."""
    if not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        warnings.warn(f"recomputing unreadable cache entry {path}: {exc}")
        return None
    if not (isinstance(data, list) and len(data) == base.dim + 1 and all(
            isinstance(pair, list) and len(pair) == 2 and isinstance(pair[1], list)
            and all(isinstance(t, str) and t.isdecimal() for t in pair[1])
            for pair in data)):
        problem = "it is not one [free rank, [invariant factors]] pair per degree"
    else:
        try:
            groups = [FgAbelianGroup(rank, map(from_decimal, factors)) for rank, factors in data]
        except ValueError as exc:
            problem = str(exc)
        else:
            if (sum((-1) ** k * g.free_rank for k, g in enumerate(groups))
                    == degree * base.euler_characteristic()):
                return HomologyProfile(groups, {p: _uc_dims(groups, p) for p in primes})
            problem = "the Betti numbers do not give the degree times the base Euler characteristic"
    warnings.warn(f"recomputing cache entry {path}: {problem}")
    return None


def _compute_level(base, level, primes):
    return lifted_profile(base, level.action, primes)


class TowerLevelError(RuntimeError):
    """A tower level failed its action's check or its self-checks; the
    message names the level and keeps the original error's."""


def run_tower(tower, primes=(2, 3, 5), cache_dir=None):
    """Compute every level's homology profile, from the base's Morse complex
    lifted through the level's action (lifted_profile; no cover is built),
    and assemble the growth report.

    With cache_dir set, each level's integral homology is stored under a
    content hash of (cache schema, base complex, action, primes), so
    re-running a tower is instant, and its F_p dimensions are rederived by
    universal coefficients.  Entries are written through a temporary file,
    and one that _load_cached_level refuses is recomputed with a warning.
    Construction failures carry the level index.
    """
    primes = tuple(primes)
    levels = []
    for idx, level in enumerate(tower.levels, start=1):
        profile = None
        cache_path = None
        if cache_dir is not None:
            os.makedirs(cache_dir, exist_ok=True)
            key = _level_cache_key(tower.base, level.action, primes)
            cache_path = os.path.join(cache_dir, f"level-{key}.json")
            profile = _load_cached_level(cache_path, tower.base, level.degree, primes)
        if profile is None:
            try:
                profile = _compute_level(tower.base, level, primes)
            except Exception as exc:
                raise TowerLevelError(f"tower level {idx} failed: {exc}") from exc
            if cache_path is not None:
                tmp_path = f"{cache_path}.{os.getpid()}.tmp"
                entry = [[g.free_rank, [to_decimal(t) for t in g.torsion]] for g in profile.groups]
                with open(tmp_path, "w", encoding="utf-8") as fh:
                    json.dump(entry, fh, separators=(",", ":"))
                os.replace(tmp_path, cache_path)
        levels.append(LevelStats(idx, level, tower.base.counts, profile))
    return GrowthReport(tower, primes, levels)


def gap_consistency_check(report, threshold):
    """Check the vanishing trend of a residual tower over an aspherical base
    with amenable pi_1, the paper's setting.

    Verdict is `pass` iff at the final level every normalized mod-p Betti
    and log-torsion series sits below the threshold and has not increased
    since the previous level.  An empty tower (level 0, no series), a tower
    that is not residual and a base that builtin() did not record as
    aspherical with amenable pi_1 (report.amenable) get verdict
    `not-applicable`; the series are reported either way.
    """
    level = len(report.levels)
    series_map = {key: [float(x) for x in values] for key, values in report.series.items()
                  if not key.startswith("betti_q")} if level else {}
    result = {
        "threshold": threshold,
        "level": level,
        "base": report.base_name,
        "series": series_map,
    }
    if not (level and report.amenable and report.residual):
        result["status"] = "not-applicable"
        return result
    ok = all(values[-1] < threshold and (level < 2 or values[-1] <= values[-2] + 1e-12)
             for values in series_map.values())
    result["status"] = "pass" if ok else "fail"
    return result
