import math

import pytest

from homtower.bounds import (
    check_bounds,
    check_index2_reduction,
    duality_report,
    rank_bound_value,
    torsion_bound_value,
)
from homtower.covers import build_cover
from homtower.deltacomplex import (
    NonOrientableError,
    boundary_matrix,
    builtin,
    homology_profile,
)
from homtower.intlinalg import soule_torsion_bound
from oracles import abelianization_action, index2_record

TOL = 1e-9


def make(name):
    if name == "surface2":
        return builtin("surface", genus=2)
    return builtin(name)


# ---------------------------------------------------------------------------
# Bound formulas

def test_torsion_bound_values():
    assert abs(torsion_bound_value(2, 1, 2) - math.log(3) * 3 * 2) < TOL
    assert abs(torsion_bound_value(2, 1, 2) - 6.591673732008658) < 1e-12
    assert abs(torsion_bound_value(2, 2, 2) - math.log(3) * 1 * 2) < TOL
    for n in range(1, 5):
        for k in (1, 3):
            assert abs(torsion_bound_value(n, n, k) - math.log(n + 1) * k) < TOL
    with pytest.raises(ValueError):
        torsion_bound_value(2, 3, 1)
    with pytest.raises(ValueError):
        torsion_bound_value(2, -1, 1)
    with pytest.raises(ValueError):
        torsion_bound_value(2, 1, 0)


def test_rank_bound_values():
    assert rank_bound_value(2, 1, 2) == 6
    assert rank_bound_value(2, 0, 2) == 2
    assert rank_bound_value(5, 0, 1) == 1
    with pytest.raises(ValueError):
        rank_bound_value(3, 4, 1)


def test_bounds_monotone_in_k_and_binomial_symmetry():
    for n in range(1, 6):
        for j in range(n + 1):
            assert torsion_bound_value(n, j, 2) > torsion_bound_value(n, j, 1)
            assert rank_bound_value(n, j, 2) > rank_bound_value(n, j, 1)
            assert math.comb(n + 1, j + 1) == math.comb(n + 1, n - j)


def test_cycle_support_sizes():
    for name, expected in (("torus2", 2), ("sphere2", 4), ("surface2", 6)):
        complex = make(name)
        assert check_bounds(complex).cycle_size == expected, name


# ---------------------------------------------------------------------------
# check_bounds

def test_check_bounds_on_oriented_builtins():
    for name in ("circle", "sphere2", "torus2", "surface2"):
        report = check_bounds(make(name), primes=(2, 3, 5))
        assert report.all_pass, name


def test_check_bounds_torus_specific_records():
    report = check_bounds(builtin("torus2"), primes=(2,))
    torsion_1 = next(r for r in report.records
                     if r.kind == "torsion" and r.degree == 1)
    assert torsion_1.actual == 0.0
    assert abs(torsion_1.bound - 6.591673732008658) < 1e-12
    rank_1 = next(r for r in report.records
                  if r.kind == "rank" and r.degree == 1 and r.prime == 2)
    assert rank_1.actual == 2 and rank_1.bound == 6


def test_check_bounds_sphere_rank_record():
    report = check_bounds(builtin("sphere2"), primes=(2,))
    rank_1 = next(r for r in report.records
                  if r.kind == "rank" and r.degree == 1 and r.prime == 2)
    assert rank_1.actual == 0 and rank_1.bound == 12


def test_check_bounds_rejects_nonorientable():
    with pytest.raises(NonOrientableError):
        check_bounds(builtin("klein_bottle"))


def test_check_bounds_on_covers():
    base = builtin("torus2")
    cover, _ = build_cover(base, abelianization_action(base, 2))
    report = check_bounds(cover, primes=(2, 3))
    assert report.all_pass
    assert report.cycle_size == 2 * 4


def test_bound_report_csv_shape():
    report = check_bounds(builtin("torus2"), primes=(2,))
    rows = list(report.csv_rows())
    assert rows[0] == ("kind", "prime", "degree", "actual", "bound", "margin", "pass")
    assert len(rows) == 1 + 3 + 3  # header + torsion per degree + one prime


# ---------------------------------------------------------------------------
# index-2 reduction through the double cover

def test_index2_klein_bottle_margins():
    report = check_index2_reduction(builtin("klein_bottle"), primes=(2,))
    assert report.aspherical_model is True
    assert report.caveat is None
    assert report.all_pass
    t1 = index2_record(report, "index2-torsion", 1)
    assert abs(t1.actual - math.log(2)) < TOL
    assert abs(t1.bound - 3.0) < TOL
    assert t1.margin >= 3 - math.log(2) - TOL
    r1 = index2_record(report, "index2-rank", 1, prime=2)
    assert r1.actual == 2 and r1.bound == 6
    assert r1.margin >= 4 - TOL
    t0 = index2_record(report, "index2-torsion", 0)
    assert t0.actual == 0.0 and abs(t0.bound - 1.0) < TOL


def test_index2_rejects_orientable():
    with pytest.raises(ValueError, match="non-orientable"):
        check_index2_reduction(builtin("torus2"))


def test_index2_rp2_passes_with_caveat():
    report = check_index2_reduction(builtin("rp2"), primes=(2, 3))
    assert report.aspherical_model is False
    assert report.caveat is not None
    assert report.all_pass
    assert report.cover_counts == (4, 6, 4)


# ---------------------------------------------------------------------------
# duality diagnostics and the proof-chain domination property

def test_duality_report_on_oriented_examples():
    for name in ("torus2", "sphere2", "surface2", "circle"):
        report = duality_report(make(name))
        assert report["betti_symmetric"], name
        assert report["torsion_symmetric"], name
        assert report["cap_isomorphisms"], name


def test_duality_report_rejects_nonorientable():
    with pytest.raises(NonOrientableError):
        duality_report(builtin("rp2"))


def test_soule_bound_dominates_torsion_through_boundaries():
    # the bound on coker(d_j) dominates log|tors H_{j-1}| for every builtin
    for name in ("circle", "interval", "sphere2", "torus2", "klein_bottle",
                 "rp2", "surface2"):
        complex = make(name)
        profile = homology_profile(complex, (2,))
        for j in range(1, complex.dim + 1):
            bound = soule_torsion_bound(boundary_matrix(complex, j))
            assert bound >= profile.log_torsion(j - 1) - TOL, (name, j)
