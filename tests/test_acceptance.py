"""Acceptance suite: one test per shipping criterion, each printing a
pass/fail line (run with -s to see them on success)."""

import json
import math
import random
import time
from fractions import Fraction

from homtower.bounds import check_bounds, check_index2_reduction
from homtower.cli import main
from homtower.covers import build_cover
from homtower.deltacomplex import (
    builtin,
    cap_duality_check,
    homology_profile,
    orient,
)
from homtower.growth import gap_consistency_check
from homtower.intlinalg import (
    FgAbelianGroup,
    IntegerMatrix,
    cokernel_structure,
    soule_torsion_bound,
    verify_torsion_exactness_lemmas,
)

Z = FgAbelianGroup
TOL = 1e-9

HAND_TABLE = {
    "circle": [Z(1), Z(1)],
    "interval": [Z(1), Z(0)],
    "sphere2": [Z(1), Z(0), Z(1)],
    "torus2": [Z(1), Z(2), Z(1)],
    "klein_bottle": [Z(1), Z(1, (2,)), Z(0)],
    "rp2": [Z(1), Z(0, (2,)), Z(0)],
    "surface2": [Z(1), Z(4), Z(1)],
}


def _make(name):
    return builtin("surface", genus=2) if name == "surface2" else builtin(name)


def _report(number, label, elapsed=None):
    timing = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"ACCEPTANCE {number} ({label}): PASS{timing}")


def test_criterion_1_homology_oracle_battery():
    start = time.monotonic()
    primes = (2, 3, 5)
    for name, expected in HAND_TABLE.items():
        complex = _make(name)
        profile = homology_profile(complex, primes)
        assert list(profile.groups) == expected, name
        # universal coefficients, cross-checked explicitly per degree and prime
        for p in primes:
            for k in range(complex.dim + 1):
                t_here = sum(1 for t in profile.group(k).torsion if t % p == 0)
                t_below = (sum(1 for t in profile.group(k - 1).torsion if t % p == 0)
                           if k else 0)
                assert profile.fp_dim(k, p) == profile.betti(k) + t_here + t_below
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _report(1, "homology oracle battery", elapsed)


def test_criterion_2_soule_suite():
    start = time.monotonic()
    rng = random.Random("acceptance-soule")
    for _ in range(1000):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        entries = {(i, j): rng.randint(-5, 5)
                   for i in range(rows) for j in range(cols)}
        matrix = IntegerMatrix(rows, cols, entries)
        bound = soule_torsion_bound(matrix)
        actual = cokernel_structure(matrix).log_torsion
        assert bound >= actual - TOL, matrix.to_rows()
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report(2, "torsion bound on 1000 random cokernels", elapsed)


def test_criterion_3_exact_sequence_lemmas():
    start = time.monotonic()
    report = verify_torsion_exactness_lemmas(500, seed=7, size_cap=5)
    assert report == {"trials": 500, "passes": 500, "failures": 0}
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report(3, "exact-sequence torsion lemmas, 500 trials", elapsed)


def test_criterion_4_cycle_bounds_everywhere(torus_tower_run, surface_tower_run):
    start = time.monotonic()
    checked = []
    for name in ("circle", "sphere2", "torus2", "surface2"):
        report = check_bounds(_make(name), primes=(2, 3, 5))
        assert report.all_pass, name
        checked.append(report.name)
    for tower, _, _ in (torus_tower_run, surface_tower_run):
        for level in tower.levels:
            cover, _ = build_cover(tower.base, level.action)
            label = f"{tower.base.name}-cover-{level.degree}"
            report = check_bounds(cover, primes=(2,))
            assert report.all_pass, label
            assert report.cycle_size == \
                tower.base.counts[tower.base.dim] * level.degree
            checked.append(label)
    elapsed = time.monotonic() - start
    _report(4, f"fundamental-cycle bounds on {len(checked)} complexes", elapsed)


def test_criterion_5_index2_reduction_margins():
    report = check_index2_reduction(builtin("klein_bottle"), primes=(2,))
    assert report.all_pass
    torsion_1 = report.record("index2-torsion", 1)
    assert torsion_1.margin >= (3 - math.log(2)) - TOL
    rank_1 = report.record("index2-rank", 1, prime=2)
    assert rank_1.margin >= 4 - TOL
    _report(5, "index-2 reduction on the Klein bottle")


def test_criterion_6_torus_tower_exactness(torus_tower_run):
    tower, report, elapsed = torus_tower_run
    assert report.degrees == (4, 16, 64, 256)
    for level in report.levels:
        assert level.betti_q[1] == 2
        assert level.torsion_orders == (1, 1, 1)
    assert report.betti_series(1) == [Fraction(1, 2), Fraction(1, 8),
                                      Fraction(1, 32), Fraction(1, 128)]
    verdict = gap_consistency_check(report, 0.05)
    assert verdict["status"] == "pass"
    assert elapsed < 60.0
    _report(6, "torus tower to degree 256", elapsed)


def test_torus_tower_to_degree_1024(capsys):
    """Every cover of the torus is a torus, so each level of
    `tower --builtin torus2 -m 2 -L 5 -p 2 3 5` has Betti numbers and F_p
    dimensions (1, 2, 1)."""
    start = time.monotonic()
    code = main(["tower", "--builtin", "torus2", "-m", "2", "-L", "5",
                 "-p", "2", "3", "5", "--format", "json"])
    elapsed = time.monotonic() - start
    assert code == 0
    levels = json.loads(capsys.readouterr().out)["report"]["levels"]
    assert [level["degree"] for level in levels] == [4, 16, 64, 256, 1024]
    for level in levels:
        assert level["betti_q"] == [1, 2, 1]
        assert level["betti_p"] == {p: [1, 2, 1] for p in ("2", "3", "5")}
    _report(6, "torus tower to degree 1024, F_p dimensions", elapsed)


def test_criterion_7_surface_tower_trend(surface_tower_run):
    tower, report, elapsed = surface_tower_run
    assert report.degrees == (16, 256)
    assert [level.betti_q[1] for level in report.levels] == [34, 514]
    series = report.betti_series(1)
    assert series == [Fraction(17, 8), Fraction(257, 128)]
    assert [float(x) for x in series] == [2.125, 2.0078125]
    assert series[0] > series[1] > Fraction(2)  # approaching 2 = -chi from above
    assert elapsed < 300.0
    _report(7, "genus-2 surface tower trend", elapsed)


def test_criterion_8_poincare_duality():
    for name in ("circle", "sphere2", "torus2", "surface2"):
        complex = _make(name)
        profile = homology_profile(complex, (2,))
        n = complex.dim
        for k in range(n + 1):
            assert profile.betti(k) == profile.betti(n - k), (name, k)
        for k in range(n):
            assert profile.torsion_order(k) == profile.torsion_order(n - k - 1), (name, k)
    for name in ("torus2", "sphere2"):
        complex = builtin(name)
        assert cap_duality_check(complex, orient(complex)).all_isomorphisms, name
    _report(8, "Poincare duality invariants and cap isomorphisms")


def test_criterion_9_cli_determinism(capsys, tmp_path):
    torus_file = tmp_path / "torus.json"
    from homtower.deltacomplex import complex_to_json
    torus_file.write_text(json.dumps(complex_to_json(builtin("torus2"))))
    commands = [
        ("homology", "--builtin", "surface", "--g", "2", "--format", "json"),
        ("homology", str(torus_file), "--format", "json", "--seed", "5"),
        ("bounds", "--builtin", "torus2", "--format", "json"),
        ("bounds", "--builtin", "klein_bottle", "--via-double-cover",
         "--format", "json"),
        ("tower", "--builtin", "torus2", "-m", "2", "-L", "3", "-p", "2",
         "--format", "json", "--seed", "9"),
        ("tower", "--builtin", "circle", "-m", "3", "-L", "3", "--format", "json"),
        ("verify", "--trials", "40", "--seed", "7", "--format", "json"),
    ]
    for argv in commands:
        code = main(list(argv))
        first = capsys.readouterr().out
        assert code == 0, argv
        code = main(list(argv))
        second = capsys.readouterr().out
        assert code == 0, argv
        assert first.encode("utf-8") == second.encode("utf-8"), argv
    _report(9, "byte-identical CLI JSON across repeated runs")
