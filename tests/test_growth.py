import json
import sys
from fractions import Fraction

import pytest

from homtower import cli, growth
from homtower.bounds import rank_bound_value, torsion_bound_value
from homtower.covers import mod_power_tower
from homtower.deltacomplex import DeltaComplex, builtin
from homtower.growth import gap_consistency_check, l2_betti_trend, run_tower
from homtower.intlinalg import FgAbelianGroup, from_decimal, to_decimal


def torus_report(levels=4, primes=(2,)):
    tower = mod_power_tower(builtin("torus2"), 2, levels)
    return run_tower(tower, primes=primes)


# ---------------------------------------------------------------------------
# Exact series

def test_torus_tower_series():
    report = torus_report()
    assert report.degrees == (4, 16, 64, 256)
    for level in report.levels:
        assert level.betti_q == (1, 2, 1)
        assert level.torsion_orders == (1, 1, 1)
    assert report.betti_series(1) == [Fraction(1, 2), Fraction(1, 8),
                                      Fraction(1, 32), Fraction(1, 128)]
    assert report.fp_series(1, 2) == report.betti_series(1)
    assert report.log_torsion_series(1) == [0.0, 0.0, 0.0, 0.0]


def test_circle_tower_series():
    tower = mod_power_tower(builtin("circle"), 3, 3)
    report = run_tower(tower, primes=(2, 3))
    assert report.degrees == (3, 9, 27)
    assert report.betti_series(1) == [Fraction(1, 3), Fraction(1, 9), Fraction(1, 27)]
    assert report.log_torsion_series(0) == [0.0, 0.0, 0.0]


def test_surface_tower_first_level():
    tower = mod_power_tower(builtin("surface", genus=2), 2, 1)
    report = run_tower(tower, primes=(2,))
    assert report.degrees == (16,)
    assert report.levels[0].betti_q == (1, 34, 1)
    assert report.betti_series(1) == [Fraction(17, 8)]
    assert float(report.betti_series(1)[0]) == 2.125
    assert report.residual is False


def test_normalized_fp_never_below_normalized_betti():
    report = torus_report(levels=3, primes=(2, 3))
    for k in range(report.dim + 1):
        for p in report.primes:
            for a, b in zip(report.fp_series(k, p), report.betti_series(k)):
                assert a >= b


def test_normalized_bound_is_level_independent():
    # actual/deg <= bound(k_base) because the cycle size scales with degree
    base = builtin("torus2")
    k_base = 2
    n = 2
    report = torus_report(levels=2, primes=(2,))
    for level in report.levels:
        for j in range(n + 1):
            assert level.normalized_log_torsion(j) <= \
                torsion_bound_value(n, j, k_base) + 1e-9
            assert level.normalized_fp(j, 2) <= rank_bound_value(n, j, k_base)


def test_geometric_decay_on_torus_tower():
    report = torus_report()
    series = report.betti_series(1)
    for prev, nxt in zip(series, series[1:]):
        assert nxt == prev / 4


# ---------------------------------------------------------------------------
# Trends and verdicts

def test_trend_verdicts():
    report = torus_report()
    v = report.verdicts["betti_q[k=1]"]
    assert v["monotone_from_level"] == 1
    assert v["last"] == float(Fraction(1, 128))
    assert v["last_delta"] == float(Fraction(1, 128) - Fraction(1, 32))


def test_l2_betti_trend():
    report = torus_report()
    records = l2_betti_trend(report)
    deg1 = records[1]
    assert deg1["series"] == [Fraction(1, 2), Fraction(1, 8),
                              Fraction(1, 32), Fraction(1, 128)]
    assert deg1["last_delta"] == Fraction(1, 128) - Fraction(1, 32)
    single = run_tower(mod_power_tower(builtin("torus2"), 2, 1), primes=(2,))
    with pytest.raises(ValueError, match="2 levels"):
        l2_betti_trend(single)


def test_surface_trend_toward_minus_euler():
    tower = mod_power_tower(builtin("surface", genus=2), 2, 2)
    report = run_tower(tower, primes=(2,))
    series = report.betti_series(1)
    assert series == [Fraction(17, 8), Fraction(514, 256)]
    assert series[1] == Fraction(257, 128)
    assert float(series[1]) == 2.0078125
    # decreasing toward 2 = -chi without crossing it
    assert series[0] > series[1] > Fraction(2)


def test_gap_check_torus_passes():
    report = torus_report()
    verdict = gap_consistency_check(report, 0.05)
    assert verdict["status"] == "pass"
    assert verdict["level"] == 4


def test_gap_check_circle_passes():
    tower = mod_power_tower(builtin("circle"), 3, 3)
    report = run_tower(tower, primes=(2,))
    verdict = gap_consistency_check(report, 0.05)
    assert verdict["status"] == "pass"


def test_gap_check_surface_not_applicable():
    tower = mod_power_tower(builtin("surface", genus=2), 2, 1)
    report = run_tower(tower, primes=(2,))
    verdict = gap_consistency_check(report, 0.05)
    assert verdict["status"] == "not-applicable"


def test_gap_check_fails_above_threshold():
    report = torus_report(levels=1)
    verdict = gap_consistency_check(report, 0.05)
    assert verdict["status"] == "fail"  # 1/2 is not below 0.05


def test_gap_check_on_an_empty_tower():
    report = run_tower(mod_power_tower(builtin("rp2"), 3, 3), primes=(2,))
    assert report.levels == ()
    assert gap_consistency_check(report, 0.05) == {
        "status": "not-applicable", "threshold": 0.05, "level": 0, "base": "rp2",
        "series": {}}


def test_level_failure_carries_level_index():
    from homtower.covers import PermutationAction, Tower, TowerLevel
    base = builtin("torus2")
    # a permutation assignment violating the commutator relators
    bad = PermutationAction(3, [(1, 2, 0), (1, 0, 2), (0, 1, 2)])
    tower = Tower(base, 2, [TowerLevel(2, bad, None)], False, [])
    with pytest.raises(RuntimeError, match="tower level 1"):
        run_tower(tower, primes=(2,))


def test_run_tower_validates_each_level_action_once(monkeypatch):
    from homtower import covers
    calls = []
    original = covers.validate_action

    def counting(presentation, action):
        calls.append(action.degree)
        return original(presentation, action)

    monkeypatch.setattr(covers, "validate_action", counting)
    tower = mod_power_tower(builtin("torus2"), 2, 3)
    run_tower(tower, primes=(2,))
    assert calls == [4, 16, 64]


def test_corrupted_level_action_is_rejected():
    from homtower.covers import PermutationAction, Tower, TowerLevel
    tower = mod_power_tower(builtin("torus2"), 2, 2)
    level = tower.levels[1]
    perms = list(level.action.edge_perms)
    # a transposition commutes with no nontrivial translation of the sheets
    perms[0] = (1, 0) + tuple(range(2, level.degree))
    bad = TowerLevel(level.modulus, PermutationAction(level.degree, perms), level.quotient)
    corrupted = Tower(tower.base, tower.modulus, [tower.levels[0], bad],
                      tower.residual, tower.warnings)
    with pytest.raises(RuntimeError,
                       match=r"tower level 2 failed: invalid action: relator \d+ "):
        run_tower(corrupted, primes=(2,))


# ---------------------------------------------------------------------------
# Caching and serialization

def test_cache_round_trip(tmp_path):
    tower = mod_power_tower(builtin("torus2"), 2, 2)
    first = run_tower(tower, primes=(2,), cache_dir=str(tmp_path))
    files = list(tmp_path.glob("level-*.json"))
    assert len(files) == 2
    second = run_tower(tower, primes=(2,), cache_dir=str(tmp_path))
    assert json.dumps(first.to_json_dict(), sort_keys=True) == \
        json.dumps(second.to_json_dict(), sort_keys=True)


def test_cache_key_carries_schema(tmp_path, monkeypatch):
    tower = mod_power_tower(builtin("torus2"), 2, 1)
    run_tower(tower, primes=(2,), cache_dir=str(tmp_path))
    monkeypatch.setattr(growth, "_CACHE_SCHEMA", "another-schema")
    run_tower(tower, primes=(2,), cache_dir=str(tmp_path))
    assert len(list(tmp_path.glob("level-*.json"))) == 2


def _tamper(data, damage):
    if damage == "drop-key":
        del data["betti_q"]
    elif damage == "betti-999":
        data["betti_q"][1] = 999
    elif damage == "betti-and-fp-1":
        # every F_p dimension is still at least the Betti number; only the
        # Euler characteristic gives it away
        data["betti_q"][1] = 1
        data["fp_dims"]["2"][1] = 1
    elif damage == "counts":
        data["counts"][0] += 1
    elif damage == "torsion":
        data["torsion_orders"][0] = "0"
    elif damage == "counts-false":
        data["counts"][2] = False  # == 0, the count it replaces
    elif damage == "degree-float":
        data["degree"] = float(data["degree"])


DAMAGE_WARNINGS = {
    "truncate": "unreadable",
    "nest": "unreadable",
    "drop-key": "a key is missing",
    "betti-999": "Euler characteristic",
    "betti-and-fp-1": "Euler characteristic",
    "counts": "counts",
    "torsion": "torsion orders",
    "counts-false": "counts",
    "degree-float": "counts",
}


@pytest.mark.parametrize("damage", list(DAMAGE_WARNINGS))
def test_damaged_cache_entry_is_recomputed(tmp_path, damage):
    if damage == "counts-false":  # a circle as a 2-complex: its covers have no triangles
        base = DeltaComplex((1, 1, 0), {1: [(0, 0)], 2: []})
    else:
        base = builtin("torus2")
    tower = mod_power_tower(base, 2, 2)
    fresh = run_tower(tower, primes=(2,), cache_dir=str(tmp_path))
    entry = sorted(tmp_path.glob("level-*.json"))[0]
    text = entry.read_text(encoding="utf-8")
    if damage == "truncate":
        entry.write_text(text[:len(text) // 2], encoding="utf-8")
    elif damage == "nest":  # the JSON decoder runs out of recursion depth
        entry.write_text("[" * 200000, encoding="utf-8")
    else:
        data = json.loads(text)
        _tamper(data, damage)
        entry.write_text(json.dumps(data), encoding="utf-8")
    with pytest.warns(UserWarning, match=f"recomputing.*{DAMAGE_WARNINGS[damage]}"):
        again = run_tower(tower, primes=(2,), cache_dir=str(tmp_path))
    # compared as text: False == 0 and 4.0 == 4, so parsed JSON would hide the damage
    assert json.dumps(again.to_json_dict()) == json.dumps(fresh.to_json_dict())
    assert entry.read_text(encoding="utf-8") == text
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        p.name for p in tmp_path.glob("level-*.json"))


@pytest.fixture
def default_digit_limit():
    """CPython's default int/str digit limit (4300), where the interpreter
    has one (3.11, and 3.10 from 3.10.7)."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield False
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield True
    sys.set_int_max_str_digits(old)


def test_decimal_conversions_match_str_and_int_under_the_limit(default_digit_limit):
    for n in (0, 1, 2, 10 ** 20 - 1, 7 ** 5000, 10 ** 4299):
        assert to_decimal(n) == str(n)
        assert from_decimal(str(n)) == n
    assert from_decimal("000123") == 123


def test_torsion_past_the_digit_limit(tmp_path, monkeypatch, default_digit_limit):
    # A torsion order of 4401 digits goes through every output and the level
    # cache; str() and int() on it would raise under the digit limit.
    big = 10 ** 4400 + 7
    text = "1" + "0" * 4399 + "7"
    if default_digit_limit:
        with pytest.raises(ValueError):
            str(big)
    assert from_decimal(text) == big and to_decimal(big) == text
    group = FgAbelianGroup(1, (big,))
    assert group.pretty() == "Z + Z/" + text
    assert cli._group_json(group) == {"free_rank": 1, "torsion": [text],
                                      "pretty": "Z + Z/" + text}
    real = growth._compute_level

    def with_big_torsion(*args):
        data = real(*args)
        data["torsion_orders"][1] = big
        return data

    tower = mod_power_tower(builtin("torus2"), 2, 1)
    monkeypatch.setattr(growth, "_compute_level", with_big_torsion)
    first = run_tower(tower, primes=(2,), cache_dir=str(tmp_path))
    (entry,) = tmp_path.glob("level-*.json")
    assert json.loads(entry.read_text(encoding="utf-8"))["torsion_orders"] == ["1", text, "1"]
    monkeypatch.setattr(growth, "_compute_level", None)  # the cache must answer
    second = run_tower(tower, primes=(2,), cache_dir=str(tmp_path))
    for report in (first, second):
        assert report.levels[0].torsion_orders == (1, big, 1)
        level = report.to_json_dict()["levels"][0]
        assert level["torsion_order"] == ["1", text, "1"]
        assert level["log_torsion"][1] == pytest.approx(4400 * 2.302585092994046)
    assert json.dumps(first.to_json_dict()) == json.dumps(second.to_json_dict())


def test_report_json_shape():
    report = torus_report(levels=2)
    blob = report.to_json_dict()
    assert blob["base"] == "torus2"
    assert blob["prime_list"] == [2]
    assert blob["residual"] is True
    assert [level["degree"] for level in blob["levels"]] == [4, 16]
    assert blob["levels"][0]["normalized"]["betti_q"][1] == "1/2"
    assert blob["levels"][0]["normalized"]["betti_q_decimal"][1] == 0.5
    assert "verdicts" in blob


def test_report_csv_rows():
    report = torus_report(levels=2)
    rows = list(report.csv_rows())
    assert rows[0][0] == "level"
    assert len(rows) == 1 + 2 * 3  # header + per (level, degree-k)
