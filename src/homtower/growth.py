"""Homology growth along towers of finite covers.

A tower run records, per level, the Betti numbers, mod-p dimensions and
torsion of the cover, plus everything divided by the covering degree.  The
normalized Betti series are exact rationals; normalized log-torsion is a
float computed from the exact torsion order.  Reports state the computed
finite series and their deltas only; no limit is ever claimed.
"""

import hashlib
import json
import math
import os
import warnings
from fractions import Fraction

from .covers import action_to_json, build_cover
from .deltacomplex import (HomologyProfile, _uc_dims, builtin_facts, complex_to_json,
                           homology_profile)
from .intlinalg import FgAbelianGroup, from_decimal, to_decimal


class LevelStats:
    __slots__ = ("index", "modulus", "degree", "betti_q", "fp_dims",
                 "torsion_orders", "counts")

    def __init__(self, index, modulus, degree, betti_q, fp_dims, torsion_orders, counts):
        self.index = index
        self.modulus = modulus
        self.degree = degree
        self.betti_q = tuple(betti_q)
        self.fp_dims = {p: tuple(v) for p, v in fp_dims.items()}
        self.torsion_orders = tuple(torsion_orders)
        self.counts = tuple(counts)

    def log_torsion(self, k):
        return math.log(self.torsion_orders[k]) if self.torsion_orders[k] > 1 else 0.0

    def normalized_betti(self, k):
        return Fraction(self.betti_q[k], self.degree)

    def normalized_fp(self, k, p):
        return Fraction(self.fp_dims[p][k], self.degree)

    def normalized_log_torsion(self, k):
        return self.log_torsion(k) / self.degree


class GrowthReport:
    __slots__ = ("base_name", "dim", "modulus", "primes", "residual",
                 "warnings", "levels", "amenable", "verdicts")

    def __init__(self, base_name, dim, modulus, primes, residual, warnings, levels,
                 amenable):
        self.base_name = base_name
        self.dim = dim
        self.modulus = modulus
        self.primes = tuple(primes)
        self.residual = residual
        self.warnings = tuple(warnings)
        self.levels = tuple(levels)
        self.amenable = amenable  # builtin() recorded the base aspherical, pi_1 amenable
        self.verdicts = self._trend_verdicts()

    @property
    def degrees(self):
        return tuple(level.degree for level in self.levels)

    def betti_series(self, k):
        return [level.normalized_betti(k) for level in self.levels]

    def fp_series(self, k, p):
        return [level.normalized_fp(k, p) for level in self.levels]

    def log_torsion_series(self, k):
        return [level.normalized_log_torsion(k) for level in self.levels]

    def _series_map(self):
        out = {}
        for k in range(self.dim + 1):
            out[f"betti_q[k={k}]"] = [float(x) for x in self.betti_series(k)]
            for p in self.primes:
                out[f"betti_p[p={p},k={k}]"] = [float(x) for x in self.fp_series(k, p)]
            out[f"log_torsion[k={k}]"] = self.log_torsion_series(k)
        return out

    def _trend_verdicts(self):
        verdicts = {}
        for key, series in self._series_map().items():
            monotone_from = None
            for start in range(len(series)):
                if all(series[i + 1] <= series[i] + 1e-12
                       for i in range(start, len(series) - 1)):
                    monotone_from = start + 1  # 1-based level index
                    break
            verdicts[key] = {
                "monotone_from_level": monotone_from,
                "last": series[-1] if series else None,
                "last_delta": (series[-1] - series[-2]) if len(series) >= 2 else None,
            }
        return verdicts

    def to_json_dict(self):
        levels = []
        for level in self.levels:
            normalized = {
                "betti_q": [str(level.normalized_betti(k)) for k in range(self.dim + 1)],
                "betti_q_decimal": [float(level.normalized_betti(k))
                                    for k in range(self.dim + 1)],
                "betti_p": {str(p): [float(level.normalized_fp(k, p))
                                     for k in range(self.dim + 1)]
                            for p in self.primes},
                "log_torsion": [level.normalized_log_torsion(k)
                                for k in range(self.dim + 1)],
            }
            levels.append({
                "level": level.index,
                "modulus": level.modulus,
                "degree": level.degree,
                "counts": list(level.counts),
                "betti_q": list(level.betti_q),
                "betti_p": {str(p): list(level.fp_dims[p]) for p in self.primes},
                "torsion_order": [to_decimal(t) for t in level.torsion_orders],
                "log_torsion": [level.log_torsion(k) for k in range(self.dim + 1)],
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
        for level in self.levels:
            for k in range(self.dim + 1):
                row = [level.index, level.degree, k, level.betti_q[k]]
                row += [level.fp_dims[p][k] for p in self.primes]
                row += [level.log_torsion(k), float(level.normalized_betti(k))]
                row += [float(level.normalized_fp(k, p)) for p in self.primes]
                row += [level.normalized_log_torsion(k)]
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
    # types first: JSON false == 0, and FgAbelianGroup would take it as a rank
    if not (isinstance(data, list) and len(data) == base.dim + 1 and all(
            isinstance(pair, list) and len(pair) == 2 and type(pair[0]) is int
            and isinstance(pair[1], list)
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
    cover, _ = build_cover(base, level.action)
    return homology_profile(cover, primes)


class TowerLevelError(RuntimeError):
    """A tower level failed to build or to pass its self-checks; the
    message names the level and keeps the original error's."""


def run_tower(tower, primes=(2, 3, 5), cache_dir=None):
    """Build every level cover, compute its homology profile and assemble
    the growth report.

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
        levels.append(LevelStats(
            idx, level.modulus, level.degree,
            [g.free_rank for g in profile.groups], profile.fp_dims,
            [g.torsion_order for g in profile.groups],
            [level.degree * c for c in tower.base.counts]))
    return GrowthReport(tower.base.name or "custom", tower.base.dim, tower.modulus,
                        primes, tower.residual, tower.warnings, levels,
                        all(builtin_facts(tower.base)))


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
    series_map = {key: series for key, series in report._series_map().items()
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
