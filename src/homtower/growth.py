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
from fractions import Fraction

from .covers import action_to_json, build_cover
from .deltacomplex import AMENABLE_BUILTINS, complex_to_json, homology_profile


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
                 "warnings", "levels", "verdicts")

    def __init__(self, base_name, dim, modulus, primes, residual, warnings, levels):
        self.base_name = base_name
        self.dim = dim
        self.modulus = modulus
        self.primes = tuple(primes)
        self.residual = residual
        self.warnings = tuple(warnings)
        self.levels = tuple(levels)
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
                "torsion_order": [str(t) for t in level.torsion_orders],
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


def _level_cache_key(base, action, primes):
    payload = json.dumps({
        "complex": complex_to_json(base),
        "action": action_to_json(action),
        "primes": list(primes),
    }, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


def _compute_level(base, level, primes, presentation):
    cover, _ = build_cover(base, level.action, presentation)
    profile = homology_profile(cover, primes)
    dim = base.dim
    return {
        "degree": level.degree,
        "counts": list(cover.counts),
        "betti_q": [profile.betti(k) for k in range(dim + 1)],
        "fp_dims": {str(p): [profile.fp_dim(k, p) for k in range(dim + 1)] for p in primes},
        "torsion_orders": [str(profile.torsion_order(k)) for k in range(dim + 1)],
    }


def run_tower(tower, primes=(2, 3, 5), cache_dir=None):
    """Build every level cover, compute its homology profile and assemble
    the growth report.

    With cache_dir set, per-level results are stored under a content hash of
    (base complex, action, primes), so re-running a tower is instant.
    Construction failures carry the level index.
    """
    primes = tuple(primes)
    levels = []
    for idx, level in enumerate(tower.levels, start=1):
        data = None
        cache_path = None
        if cache_dir is not None:
            import os
            os.makedirs(cache_dir, exist_ok=True)
            key = _level_cache_key(tower.base, level.action, primes)
            cache_path = os.path.join(cache_dir, f"level-{key}.json")
            if os.path.exists(cache_path):
                with open(cache_path, "r", encoding="utf-8") as fh:
                    data = json.load(fh)
        if data is None:
            try:
                data = _compute_level(tower.base, level, primes, tower.presentation)
            except Exception as exc:
                raise RuntimeError(f"tower level {idx} failed: {exc}") from exc
            if cache_path is not None:
                with open(cache_path, "w", encoding="utf-8") as fh:
                    json.dump(data, fh, sort_keys=True, separators=(",", ":"))
        stats = LevelStats(
            idx, level.modulus, data["degree"],
            data["betti_q"],
            {p: data["fp_dims"][str(p)] for p in primes},
            [int(t) for t in data["torsion_orders"]],
            data["counts"])
        for k in range(tower.base.dim + 1):
            for p in primes:
                if stats.fp_dims[p][k] < stats.betti_q[k]:
                    raise AssertionError(
                        f"mod-{p} dimension below Betti number at level {idx}, "
                        f"degree {k}; universal coefficients violated")
        levels.append(stats)
    return GrowthReport(tower.base_name or "custom", tower.base.dim, tower.modulus,
                        primes, tower.residual, tower.warnings, levels)


def l2_betti_trend(report):
    """Normalized rational Betti series and their last deltas, one record per
    degree; the finite proxy for the limiting normalized Betti numbers."""
    if len(report.levels) < 2:
        raise ValueError("trend extrapolation needs at least 2 levels")
    records = []
    for k in range(report.dim + 1):
        series = report.betti_series(k)
        records.append({
            "k": k,
            "series": series,
            "last": series[-1],
            "last_delta": series[-1] - series[-2],
        })
    return records


def gap_consistency_check(report, threshold, level=None):
    """Check the vanishing trend over a base with amenable fundamental group.

    Verdict is `pass` iff at the chosen level (default: final) every
    normalized mod-p Betti and log-torsion series sits below the threshold
    and has not increased since the previous level.  Bases outside the
    explicit amenable registry get verdict `not-applicable`; the series are
    reported either way.
    """
    series_map = {key: series for key, series in report._series_map().items()
                  if not key.startswith("betti_q")}
    if level is None:
        level = len(report.levels)
    if not 1 <= level <= len(report.levels):
        raise ValueError(f"level {level} out of range 1..{len(report.levels)}")
    result = {
        "threshold": threshold,
        "level": level,
        "base": report.base_name,
        "series": series_map,
    }
    if report.base_name not in AMENABLE_BUILTINS:
        result["status"] = "not-applicable"
        return result
    ok = True
    for values in series_map.values():
        v = values[level - 1]
        if not v < threshold:
            ok = False
        if level >= 2 and v > values[level - 2] + 1e-12:
            ok = False
    result["status"] = "pass" if ok else "fail"
    return result
