import hashlib
import json
import os
import subprocess
import sys

import pytest

import homtower
from homtower import deltacomplex
from homtower.cli import main
from homtower.deltacomplex import BUILTIN_NAMES, builtin, complex_to_json

from test_deltacomplex import klein_cyclic_cover, torus_cover


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# homology

def test_homology_klein_pretty(capsys):
    code, out, _ = run(capsys, "homology", "--builtin", "klein_bottle")
    assert code == 0
    assert "H_1 = Z + Z/2" in out
    assert "H_0 = Z" in out


def test_homology_circle(capsys):
    code, out, _ = run(capsys, "homology", "--builtin", "circle", "-p", "2")
    assert code == 0
    assert "H_0 = Z" in out and "H_1 = Z" in out


def test_homology_from_file(tmp_path, capsys):
    path = tmp_path / "torus.json"
    path.write_text(json.dumps(complex_to_json(builtin("torus2"))))
    code, out, _ = run(capsys, "homology", str(path), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["complex"] == "torus"
    assert payload["degrees"][1]["group"]["pretty"] == "Z^2"


def test_homology_missing_file(capsys):
    code, _, err = run(capsys, "homology", "no-such-file.json")
    assert code == 3
    assert "cannot read" in err


def test_homology_json_syntax_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"dim": 1, "counts": [1, 1], ')
    code, _, err = run(capsys, "homology", str(path))
    assert code == 4
    assert "line" in err and "column" in err


def test_homology_format_error_positions(tmp_path, capsys):
    path = tmp_path / "neg.json"
    path.write_text('{"dim": 1, "counts": [1, 1], "faces": {"1": [[0, -1]]}}')
    code, _, err = run(capsys, "homology", str(path))
    assert code == 4
    assert "faces.1[0][1]" in err


def test_homology_rejects_json_booleans(tmp_path, capsys):
    # JSON true and false are not the integers 1 and 0, so this is no circle.
    path = tmp_path / "bools.json"
    path.write_text('{"dim": true, "counts": [1, true], "faces": {"1": [[0, false]]}}')
    code, out, err = run(capsys, "homology", str(path))
    assert (code, out) == (4, "")
    assert "dim must be a nonnegative integer" in err


def test_homology_invalid_complex_is_usage_error(tmp_path, capsys):
    path = tmp_path / "invalid.json"
    path.write_text('{"dim": 1, "counts": [1, 1], "faces": {"1": [[0, 7]]}}')
    code, _, err = run(capsys, "homology", str(path))
    assert code == 2
    assert "out of range" in err


@pytest.mark.parametrize("command", ["tower -m 2 -L 3", "bounds --via-double-cover"])
def test_face_identity_violation_is_usage_error(command, tmp_path, capsys):
    # rp2 with triangle 0 written [2, 0, 1] instead of [1, 0, 2]: the same
    # boundary chain, so d o d = 0, but face 0 of face 1 is vertex 1 while
    # face 0 of face 0 is vertex 0.  Covers and double covers rely on the
    # face identities, so the input is rejected before either is built.
    obj = complex_to_json(builtin("rp2"))
    obj["faces"]["2"][0] = [2, 0, 1]
    path = tmp_path / "rp2_twisted.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, *command.split(), str(path))
    assert (code, out) == (2, "")
    assert err == (f"homtower: {path}: invalid complex: face identity d_0 d_1 = d_0 d_0 "
                   "fails on 2-simplex 0: 1 != 0\n")


def test_exactly_one_input_source(tmp_path, capsys):
    code, _, err = run(capsys, "homology")
    assert code == 2
    path = tmp_path / "c.json"
    path.write_text(json.dumps(complex_to_json(builtin("circle"))))
    code, _, err = run(capsys, "homology", str(path), "--builtin", "circle")
    assert code == 2
    assert "exactly one" in err


def test_surface_requires_genus(capsys):
    code, _, err = run(capsys, "homology", "--builtin", "surface")
    assert code == 2
    assert "genus" in err


def test_primes_are_validated(capsys):
    code, _, err = run(capsys, "homology", "--builtin", "circle", "-p", "4")
    assert code == 2
    assert "not prime" in err
    code, _, _ = run(capsys, "tower", "--builtin", "circle", "-p", "9")
    assert code == 2


@pytest.mark.parametrize("prime, code, message", [
    (10**18 + 3, 0, None),
    (10**24 + 7, 0, None),
    # the least strong pseudoprime to the 13 Miller-Rabin bases
    (1287836182261 * 2575672364521, 2, "proven only below 3317044064679887385961981"),
    (1000000000039 * 1000000000061, 2, "is not prime"),
    (10**40 + 1, 2, "too large to test for primality"),
], ids=["1e18+3", "1e24+7", "psi13", "composite", "past-the-proof"])
def test_large_primes_answer_or_refuse_in_time(prime, code, message):
    # Trial division up to sqrt(p) never finished on 10^18 + 3.  A separate
    # process, so that a slow test is killed at the time bound.
    src = os.path.dirname(os.path.dirname(homtower.__file__))
    result = subprocess.run(
        [sys.executable, "-m", "homtower.cli", "homology", "--builtin", "torus2",
         "-p", str(prime), "--format", "json"],
        capture_output=True, text=True, timeout=20,
        env={**os.environ, "PYTHONPATH": src})
    assert result.returncode == code, result.stderr
    if code == 0:
        dims = [degree["fp_dims"][str(prime)] for degree in json.loads(result.stdout)["degrees"]]
        assert dims == [1, 2, 1]
    else:
        assert message in result.stderr


# ---------------------------------------------------------------------------
# bounds

def test_bounds_torus_passes(capsys):
    code, out, _ = run(capsys, "bounds", "--builtin", "torus2", "-p", "2")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_bounds_klein_requires_flag(capsys):
    code, _, err = run(capsys, "bounds", "--builtin", "klein_bottle")
    assert code == 5
    assert "--via-double-cover" in err


def test_bounds_klein_via_double_cover(capsys):
    code, out, _ = run(capsys, "bounds", "--builtin", "klein_bottle",
                       "--via-double-cover", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["index2_report"]["all_pass"] is True
    assert payload["index2_report"]["aspherical_model"] is True


def test_aspherical_registry_ignores_the_file_name(tmp_path, capsys):
    # rp2 saved under a surface's name is still not a registered example
    path = tmp_path / "surface_9.json"
    path.write_text(json.dumps(complex_to_json(builtin("rp2"))))
    code, out, _ = run(capsys, "bounds", str(path), "--via-double-cover", "--format", "json")
    assert code == 0
    report = json.loads(out)["index2_report"]
    assert report["aspherical_model"] is False
    assert report["caveat"] is not None


def test_disconnected_non_orientable_input_is_a_usage_error(tmp_path, capsys):
    # two disjoint Klein bottles have no connected orientation double cover;
    # that is a problem with the input, not a failed internal check
    klein = complex_to_json(builtin("klein_bottle"))["faces"]["2"]
    two = {"dim": 2, "counts": [2, 6, 4],
           "faces": {"1": [[0, 0]] * 3 + [[1, 1]] * 3,
                     "2": klein + [[f + 3 for f in row] for row in klein]}}
    path = tmp_path / "two_kleins.json"
    path.write_text(json.dumps(two))
    code, out, err = run(capsys, "bounds", str(path), "--via-double-cover")
    assert (code, out) == (2, "")
    assert err == ("homtower: orientation double cover needs a connected complex; "
                   "this one has 2 components\n")


def test_bounds_refuses_the_empty_complex_before_any_cycle(tmp_path, capsys):
    # A complex with no top simplex, in dimension 0 too, has no fundamental
    # cycle, so bounds refuses it before any bound formula sees a cycle size
    path = tmp_path / "empty.json"
    path.write_text('{"dim": 0, "counts": [0], "faces": {}}')
    code, out, err = run(capsys, "bounds", str(path))
    assert (code, out) == (2, "")
    assert err == "homtower: no top-dimensional simplices to orient\n"


def test_bounds_csv(capsys):
    code, out, _ = run(capsys, "bounds", "--builtin", "sphere2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "kind,prime,degree,actual,bound,margin,pass"


# ---------------------------------------------------------------------------
# tower

def test_tower_torus_series(capsys):
    code, out, _ = run(capsys, "tower", "--builtin", "torus2", "-m", "2",
                       "-L", "4", "-p", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["residual"] is True
    decimals = [level["normalized"]["betti_q_decimal"][1]
                for level in payload["report"]["levels"]]
    assert decimals == [0.5, 0.125, 0.03125, 0.0078125]
    assert payload["gap_check"]["status"] == "pass"


def test_amenable_registry_ignores_the_file_name(tmp_path, capsys):
    # a genus-2 surface saved under the torus's name is not an amenable base
    path = tmp_path / "torus2.json"
    path.write_text(json.dumps(complex_to_json(builtin("surface", genus=2))))
    statuses = []
    for source in ([str(path)], ["--builtin", "surface", "--g", "2"]):
        code, out, _ = run(capsys, "tower", *source, "-m", "2", "-L", "1", "-p", "2",
                           "--gap-threshold", "100", "--format", "json")
        assert code == 0
        statuses.append(json.loads(out)["gap_check"]["status"])
    assert statuses == ["not-applicable", "not-applicable"]


def test_tower_circle_degrees(capsys):
    code, out, _ = run(capsys, "tower", "--builtin", "circle", "-m", "3",
                       "-L", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    degrees = [level["degree"] for level in payload["report"]["levels"]]
    assert degrees == [3, 9, 27]


def test_tower_surface_residual_false(capsys):
    code, out, _ = run(capsys, "tower", "--builtin", "surface", "--g", "2",
                       "-m", "2", "-L", "1")
    assert code == 0
    assert "residual: false" in out


def test_tower_truncation_warns_but_succeeds(capsys):
    code, out, _ = run(capsys, "tower", "--builtin", "rp2", "-m", "2", "-L", "3",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["warnings"]
    assert [level["degree"] for level in payload["report"]["levels"]] == [2]


@pytest.mark.parametrize("name", ["interval", "sphere2"])
def test_tower_over_trivial_fundamental_group_is_empty(name, capsys):
    code, out, _ = run(capsys, "tower", "--builtin", name)
    assert code == 0
    assert "warning: level 1 quotient is trivial; tower is empty" in out


def test_tower_usage_errors(capsys):
    code, _, err = run(capsys, "tower", "--builtin", "circle", "-m", "1")
    assert code == 2
    code, _, err = run(capsys, "tower", "--builtin", "circle", "-L", "0")
    assert code == 2


# ---------------------------------------------------------------------------
# verify

def test_verify_small(capsys):
    code, out, _ = run(capsys, "verify", "--trials", "25", "--seed", "7")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_verify_single_trial(capsys):
    code, _, _ = run(capsys, "verify", "--trials", "1", "--seed", "0")
    assert code == 0


def test_verify_rejects_zero_trials(capsys):
    code, _, err = run(capsys, "verify", "--trials", "0")
    assert code == 2


def test_verify_json_shape(capsys):
    code, out, _ = run(capsys, "verify", "--trials", "5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["failures_total"] == 0
    assert [s["name"] for s in payload["suites"]] == [
        "torsion-exactness-lemmas", "cokernel-torsion-bound", "poincare-duality"]


# ---------------------------------------------------------------------------
# output plumbing and determinism

def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "homology", "--builtin", "rp2",
                       "--format", "json", "--out", str(target))
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["degrees"][1]["group"]["pretty"] == "Z/2"


def test_json_outputs_are_byte_identical(capsys):
    cases = [
        ("homology", "--builtin", "klein_bottle", "--format", "json"),
        ("bounds", "--builtin", "torus2", "--format", "json"),
        ("bounds", "--builtin", "rp2", "--via-double-cover", "--format", "json"),
        ("tower", "--builtin", "torus2", "-m", "2", "-L", "3", "-p", "2",
         "--format", "json", "--seed", "11"),
        ("verify", "--trials", "20", "--seed", "3", "--format", "json"),
    ]
    for argv in cases:
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second, argv
        assert first.encode("utf-8") == second.encode("utf-8")


# ---------------------------------------------------------------------------
# every input ends in a documented exit code

# input files of the sweep, with the exit code and the start of the error
# line each must give (None: any documented code)
TOO_MANY = "invalid complex: counts total 1000000000000001 simplices, more than 16777216"
FILE_SOURCES = {
    "disconnected": ('{"dim": 1, "counts": [2, 0], "faces": {"1": []}}', None, None),
    # 61 bytes asking for 10^15 vertices, which no face data backs
    "huge-counts": ('{"dim":1,"counts":[1000000000000000,1],"faces":{"1":[[0,1]]}}', 2, TOO_MANY),
    "huge-vertex-count": ('{"dim":0,"counts":[1000000000000001],"faces":{}}', 2, TOO_MANY),
    "deep-nesting": ("[" * 200000, 4, "JSON parse error: maximum recursion depth exceeded"),
    "not-utf8": (b'{"dim": 0, "counts": [1], "faces": {}}\xff', 4,
                 "JSON parse error: 'utf-8' codec can't decode byte 0xff"),
}
SUBCOMMANDS = ("homology", "bounds", "bounds --via-double-cover", "tower -L 2")


def _sweep_cases():
    for command in SUBCOMMANDS:
        for name in BUILTIN_NAMES + tuple(FILE_SOURCES):
            yield pytest.param(f"{command} -p 2", name, id=f"{command}-{name}")
        yield pytest.param(f"{command} -p 2 3 2", "torus2", id=f"{command}-repeated-prime")
    for value in ("nan", "inf", "-inf", "0", "-1"):
        yield pytest.param(f"tower -L 1 --gap-threshold={value} -p 2", "torus2",
                           id=f"tower-gap-threshold-{value}")
    yield pytest.param("verify --trials 2 --size-cap -1", None, id="verify-size-cap")


@pytest.mark.parametrize("command, source", _sweep_cases())
def test_every_input_exits_with_a_documented_code(command, source, tmp_path, capsys):
    argv = command.split()
    expected = None
    if source in FILE_SOURCES:
        text, expected, message = FILE_SOURCES[source]
        path = tmp_path / f"{source}.json"
        path.write_bytes(text if isinstance(text, bytes) else text.encode("ascii"))
        argv.insert(1, str(path))  # before -p, which takes every number after it
    elif source:
        argv += ["--builtin", source] + (["--g", "2"] if source == "surface" else [])
    code, _, err = run(capsys, *argv)
    assert code in range(6)
    if code:
        assert any(line.startswith("homtower: ") for line in err.splitlines())
    if expected is not None:
        assert code == expected
        assert err.startswith(f"homtower: {path}: {message}")


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_repeated_prime_exits_2(command, capsys):
    # a repeated prime would repeat a CSV column or a bound record
    code, out, err = run(capsys, *command.split(), "--builtin", "torus2", "-p", "2", "3", "2")
    assert (code, out, err) == (2, "", "homtower: --primes: 2 given twice\n")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1"])
def test_gap_threshold_must_be_finite_and_positive(value, capsys):
    # inf would be written as Infinity, which is not JSON
    code, out, err = run(capsys, "tower", "--builtin", "torus2", "-L", "1", "-p", "2",
                         f"--gap-threshold={value}", "--format", "json")
    assert (code, out) == (2, "")
    assert err == f"homtower: --gap-threshold must be finite and > 0: {float(value)}\n"


@pytest.mark.parametrize("command", ["homology", "bounds", "tower -L 1"])
def test_internal_check_failure_exits_1(command, monkeypatch, capsys):
    # One rank too many mod p breaks the universal-coefficient cross-check
    # against the integral Smith form; tower sees it wrapped by run_tower.
    true_ranks = deltacomplex._ranks_and_unit_columns

    def one_too_many(matrix, primes):
        ranks, unit_columns = true_ranks(matrix, primes)
        return {p: r + 1 for p, r in ranks.items()}, unit_columns

    monkeypatch.setattr(deltacomplex, "_ranks_and_unit_columns", one_too_many)
    code, out, err = run(capsys, *command.split(), "--builtin", "torus2", "-p", "2")
    assert code == 1
    assert out == ""
    assert err.startswith("homtower: internal check failed: ")
    assert "universal coefficient check failed" in err


GOLDEN_JSON_SHA256 = {
    "homology --builtin klein_bottle":
        "646fa6977b21db8bdd087cbebc8c31ab72832688980ae6993e0955b97f11fc46",
    "bounds --builtin torus2":
        "f34cf48b5383991b0ee8fec5087186950c68215790b53add5664d6f515759db3",
    "bounds --builtin rp2 --via-double-cover":
        "8f3bd578dd27a536f292ea6e062f634afd5a8a8036dcef5a278dae8231aa3d50",
    "bounds torus_16.json":
        "711fce9833372f40ac48d9d8e063d16bc3c921d7dc9887ed2af80863088a9fd5",
    "bounds klein_63.json --via-double-cover":
        "4ea6a7ab66f807858ddd1cd1227d2afc1b59e83a9004fb8d21eb4921e12a6cee",
    "tower --builtin torus2 -m 2 -L 3 -p 2 3 5":
        "0736326d045ce282b3d4052da7f14b39583d3ddb9217c6037a78ae4fbf8bafc2",
    "verify --trials 20 --seed 3":
        "0a9b9dbd22ebb3db92f172bfea0d56e75100496202fad0a1729a8461800e3b5d",
}


def test_json_outputs_match_the_recorded_digests(tmp_path, monkeypatch, capsys):
    # The --format json bytes of each command, pinned by their sha256; the
    # file inputs go under fixed relative names, since the report echoes the
    # input path and names the complex after the file.
    monkeypatch.chdir(tmp_path)
    for name, complex in (("torus_16.json", torus_cover(2)),
                          ("klein_63.json", klein_cyclic_cover(63))):
        with open(name, "w", encoding="utf-8") as fh:
            json.dump(complex_to_json(complex), fh)
    for command, digest in GOLDEN_JSON_SHA256.items():
        code, out, _ = run(capsys, *command.split(), "--format", "json")
        assert code == 0, command
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, command
