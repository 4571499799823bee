"""Homology size bounds driven by a fundamental cycle.

For a closed oriented n-pseudomanifold whose fundamental class is carried by
a cycle with k top simplices, torsion and mod-p dimensions obey

    log |tors H_j|    <=  log(n+1) * C(n+1, j+1) * k
    dim_{F_p} H_j     <=  C(n+1, j) * k

in every degree j.  A second family of inequalities reduces non-orientable
complexes to their orientation double cover: with Xbar the double cover,

    log |tors H_n(X)| <=  sum_{k<=n} rk H_k(Xbar) + 2^n sum_{k<=n} log |tors H_k(Xbar)|
    dim_{F_p} H_n(X)  <=  2^n sum_{k<=n} dim_{F_p} H_k(Xbar).

These are theorems for the spaces we feed in, so a failed record is raised
as a hard error carrying the witness: it would mean the homology engine is
broken, and must never be silently reported as data.
"""

import math

from .deltacomplex import (
    NonOrientableError,
    cap_duality_check,
    homology_profile,
    is_aspherical_builtin,
    orient,
)
from .covers import orientation_double_cover

LOG_TOLERANCE = 1e-9


def torsion_bound_value(n, j, k):
    """log(n+1) * C(n+1, j+1) * k, natural log, exact binomial."""
    if not 0 <= j <= n:
        raise ValueError(f"degree {j} out of range 0..{n}")
    if k < 1:
        raise ValueError("cycle size k must be >= 1")
    return math.log(n + 1) * math.comb(n + 1, j + 1) * k


def rank_bound_value(n, j, k):
    """C(n+1, j) * k, exact."""
    if not 0 <= j <= n:
        raise ValueError(f"degree {j} out of range 0..{n}")
    if k < 1:
        raise ValueError("cycle size k must be >= 1")
    return math.comb(n + 1, j) * k


class BoundRecord:
    """One inequality instance: actual <= bound, margin = bound - actual."""

    __slots__ = ("kind", "prime", "degree", "actual", "bound", "margin", "passed")

    def __init__(self, kind, prime, degree, actual, bound):
        self.kind = kind
        self.prime = prime
        self.degree = degree
        self.actual = actual
        self.bound = bound
        self.margin = bound - actual
        if isinstance(actual, int) and isinstance(bound, int):
            self.passed = actual <= bound
        else:
            self.passed = self.margin >= -LOG_TOLERANCE

    def to_json_dict(self):
        return {
            "kind": self.kind,
            "prime": self.prime,
            "degree": self.degree,
            "actual": self.actual,
            "bound": self.bound,
            "margin": self.margin,
            "pass": self.passed,
        }

    def __repr__(self):
        tag = f" p={self.prime}" if self.prime else ""
        return (f"<BoundRecord {self.kind}{tag} deg={self.degree} "
                f"{self.actual} <= {self.bound}>")


class BoundViolation(AssertionError):
    """A bound that is a theorem failed; carries the witnessing record."""

    def __init__(self, record, context):
        self.record = record
        self.context = context
        super().__init__(f"bound violated on {context}: {record!r}")


class _RecordReport:
    """What the two bound reports share: a tuple of BoundRecords."""

    __slots__ = ()

    @property
    def all_pass(self):
        return all(r.passed for r in self.records)

    def csv_rows(self):
        """Fixed columns, kind and prime first to disambiguate the series."""
        yield ("kind", "prime", "degree", "actual", "bound", "margin", "pass")
        for r in self.records:
            yield (r.kind, "" if r.prime is None else r.prime, r.degree,
                   r.actual, r.bound, r.margin, r.passed)


class BoundReport(_RecordReport):
    __slots__ = ("name", "dim", "cycle_size", "primes", "records")

    def __init__(self, name, dim, cycle_size, primes, records):
        self.name = name
        self.dim = dim
        self.cycle_size = cycle_size
        self.primes = tuple(primes)
        self.records = tuple(records)

    def to_json_dict(self):
        return {
            "complex": self.name,
            "dim": self.dim,
            "cycle_size": self.cycle_size,
            "primes": list(self.primes),
            "records": [r.to_json_dict() for r in self.records],
            "all_pass": self.all_pass,
        }


def check_bounds(complex, primes=(2, 3, 5)):
    """Evaluate both bound families on a closed oriented pseudomanifold.

    Every record must pass; a violation raises BoundViolation.  Raises
    NonOrientableError on non-orientable input (take the orientation double
    cover first).
    """
    cycle = orient(complex)
    if cycle is None:
        raise NonOrientableError(
            "complex is non-orientable; route it through the orientation "
            "double cover")
    label = complex.name or "complex"
    n = complex.dim
    k = len(cycle.signs)  # every coefficient is +-1
    profile = homology_profile(complex, primes)
    records = [BoundRecord("torsion", None, j, profile.log_torsion(j), torsion_bound_value(n, j, k))
               for j in range(n + 1)]
    records += [BoundRecord("rank", p, j, profile.fp_dim(j, p), rank_bound_value(n, j, k))
                for p in primes for j in range(n + 1)]
    for rec in records:
        if not rec.passed:
            raise BoundViolation(rec, label)
    return BoundReport(label, n, k, primes, records)


class Index2Report(_RecordReport):
    __slots__ = ("name", "aspherical_model", "caveat", "records", "cover_counts")

    def __init__(self, name, aspherical_model, caveat, records, cover_counts):
        self.name = name
        self.aspherical_model = aspherical_model
        self.caveat = caveat
        self.records = tuple(records)
        self.cover_counts = tuple(cover_counts)

    def to_json_dict(self):
        return {
            "complex": self.name,
            "aspherical_model": self.aspherical_model,
            "caveat": self.caveat,
            "cover_counts": list(self.cover_counts),
            "records": [r.to_json_dict() for r in self.records],
            "all_pass": self.all_pass,
        }


def check_index2_reduction(complex, primes=(2, 3, 5)):
    """Index-2 reduction inequalities through the orientation double cover.

    The inequalities are statements about group homology; they are exercised
    here through complexes whose homology is the homology of their
    fundamental group.  Inputs not known to be aspherical are processed all
    the same, with the caveat recorded in the report.
    """
    if orient(complex) is not None:
        raise ValueError("index-2 reduction applies to non-orientable input only")
    label = complex.name or "complex"
    cover, _ = orientation_double_cover(complex)
    base_profile = homology_profile(complex, primes)
    cover_profile = homology_profile(cover, primes)
    aspherical = is_aspherical_builtin(complex)
    caveat = None if aspherical else (
        "complex is not a registered aspherical example; the inequalities "
        "are group-homology statements and are only guaranteed when "
        "homology equals group homology")
    records = []
    for deg in range(complex.dim + 1):
        rank_sum = sum(cover_profile.betti(k) for k in range(deg + 1))
        log_sum = sum(cover_profile.log_torsion(k) for k in range(deg + 1))
        records.append(BoundRecord(
            "index2-torsion", None, deg,
            base_profile.log_torsion(deg),
            rank_sum + (2 ** deg) * log_sum))
        for p in primes:
            dim_sum = sum(cover_profile.fp_dim(k, p) for k in range(deg + 1))
            records.append(BoundRecord(
                "index2-rank", p, deg,
                base_profile.fp_dim(deg, p),
                (2 ** deg) * dim_sum))
    return Index2Report(label, aspherical, caveat, records, cover.counts)


def duality_report(complex):
    """Poincare duality diagnostics for an oriented closed pseudomanifold:
    numeric symmetry of Betti numbers and torsion plus the cap product
    isomorphism check, all read from the integral homology."""
    cycle = orient(complex)
    if cycle is None:
        raise NonOrientableError("duality check needs an orientable complex")
    profile = homology_profile(complex, ())
    n = complex.dim
    betti_symmetric = all(profile.betti(k) == profile.betti(n - k)
                          for k in range(n + 1))
    torsion_symmetric = all(
        profile.torsion_order(k) == profile.torsion_order(n - k - 1)
        for k in range(n))
    return {
        "betti_symmetric": betti_symmetric,
        "torsion_symmetric": torsion_symmetric,
        "cap_isomorphisms": cap_duality_check(complex, cycle).all_isomorphisms,
    }
