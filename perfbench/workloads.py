"""The benchmark's workloads: seeded inputs, the call into the program, and
output checks that do not trust the program.

Every input complex is a relabelled copy of a fixed complex: a random
permutation of simplex indices in each dimension, with the face lists
remapped to match and vertex positions inside each simplex left alone.  A
relabelled complex is isomorphic to the original, so the program's report
must not change by a single byte; its running time does, because pivot
order follows the labels.  A run spreads its iterations over many
labellings so that its median does not hang on one of them: where the
complex has few labellings (the torus has 3! * 2! = 12) the run visits all of
them in turn, in an order shuffled by the seed, and the benchmark takes the
median over labellings; otherwise iteration i of a run with seed s draws its
labelling from random.Random(f"{s}:{i}").

The inputs are written under a name that is not a built-in complex name,
so no name-keyed registry in the program can decide part of the report.
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
import random

WORK_DIR = ".perfbench_work"
TOWER_INPUT = os.path.join(WORK_DIR, "bench_torus.json")
COVER_INPUT = os.path.join(WORK_DIR, "bench_cover.json")
PRIMES = (2, 3, 5)
TOWER_LEVELS = 4
INTEGRAL_LEVELS = 5
COVER_LEVEL = 3
VERIFY_TRIALS = 3000
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def relabel(obj, perms):
    """A copy of a complex in interchange JSON form in which simplex j of
    dimension k is renamed perms[k][j]."""
    counts = obj["counts"]
    faces = {}
    for k in range(1, len(counts)):
        rows = [None] * counts[k]
        for j, row in enumerate(obj["faces"][str(k)]):
            rows[perms[k][j]] = [perms[k - 1][f] for f in row]
        faces[str(k)] = rows
    return {"dim": obj["dim"], "counts": list(counts), "faces": faces}


def every_labelling(counts, seed):
    """All relabellings of a complex with these counts, in a seeded order."""
    out = list(itertools.product(*(itertools.permutations(range(n)) for n in counts)))
    random.Random(seed).shuffle(out)
    return out


def random_labelling(counts, seed, index):
    rng = random.Random(f"{seed}:{index}")
    return [rng.sample(range(n), n) for n in counts]


def _cli_report(argv):
    from homtower.cli import main
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"homtower {' '.join(argv)} exited with code {code}")
    return buf.getvalue().encode("utf-8")


def _load_complex(path, name=None):
    """Build the input through the public parser and validator."""
    from homtower import complex_from_json, validate_complex
    with open(path, "r", encoding="utf-8") as fh:
        complex = complex_from_json(json.load(fh), name=name)
    report = validate_complex(complex)
    if not report.ok:
        raise ValueError(f"{path}: invalid complex: {report.problems[0]}")
    return complex


def _check_torus_levels(levels, count, primes):
    """Every finite cover of the torus is a torus: H = (Z, Z^2, Z), no
    torsion, F_p dimensions (1, 2, 1); the mod-2 tower has degrees 4^i."""
    problems = []
    degrees = [level["degree"] for level in levels]
    if degrees != [4 ** i for i in range(1, count + 1)]:
        problems.append(f"tower degrees {degrees}, expected 4^1..4^{count}")
    for level in levels:
        d = level["degree"]
        where = f"level {level['level']} (degree {d})"
        if level["counts"] != [d, 3 * d, 2 * d]:
            problems.append(f"{where}: counts {level['counts']}")
        if level["betti_q"] != [1, 2, 1]:
            problems.append(f"{where}: betti {level['betti_q']}")
        if level["torsion_order"] != ["1", "1", "1"]:
            problems.append(f"{where}: torsion {level['torsion_order']}")
        if sorted(level["betti_p"]) != sorted(str(p) for p in primes):
            problems.append(f"{where}: primes {sorted(level['betti_p'])}")
        for p, dims in level["betti_p"].items():
            if dims != [1, 2, 1]:
                problems.append(f"{where}: F_{p} dimensions {dims}")
    return problems


class Workload:
    """One workload.  `prepare` runs once per run in the benchmark process,
    `write_input` before each iteration; `setup` and `call` run in the fresh
    iteration process, `call` being the timed part; `check` judges the
    report bytes back in the benchmark process.  Iterations with the same
    `input_key` share an input; a run makes at least `min_iterations`."""

    name = ""
    min_iterations = 1

    def prepare(self, seed):
        pass

    def input_key(self, index):
        return index

    def write_input(self, seed, index):
        """Write iteration `index`'s input; seed None keeps the labels."""

    def setup(self):
        return None

    def call(self, state, seed):
        raise NotImplementedError

    def invariants(self, payload, seed):
        raise NotImplementedError

    def expected_digest(self, reference, seed):
        return reference["digests"][self.name]

    def check(self, report, seed, reference):
        """Problems with one report; an empty list means it passed."""
        try:
            payload = json.loads(report)
        except ValueError as exc:
            return [f"report is not JSON: {exc}"]
        try:
            problems = self.invariants(payload, seed)
        except (KeyError, TypeError, AttributeError) as exc:
            problems = [f"report lacks an expected field: {exc!r}"]
        digest = hashlib.sha256(report).hexdigest()
        if digest != self.expected_digest(reference, seed):
            problems.append(f"report sha256 {digest} differs from the reference")
        return problems


class _RelabelledInput(Workload):
    """A workload on a relabelled complex; by default a CLI run on its file."""

    path = None
    argv = None
    visit_all_labellings = False  # for complexes with few labellings

    def base_json(self):
        raise NotImplementedError

    def prepare(self, seed):
        self._base = self.base_json()
        counts = self._base["counts"]
        self._cycle = every_labelling(counts, seed) if self.visit_all_labellings else None
        if self._cycle:
            self.min_iterations = len(self._cycle)

    def input_key(self, index):
        return index % len(self._cycle) if self._cycle else index

    def write_input(self, seed, index):
        counts = self._base["counts"]
        if seed is None:
            perms = [range(n) for n in counts]
        elif self._cycle:
            perms = self._cycle[index % len(self._cycle)]
        else:
            perms = random_labelling(counts, seed, index)
        with open(self.path, "w", encoding="utf-8") as fh:
            json.dump(relabel(self._base, perms), fh, separators=(",", ":"))

    def setup(self):
        _load_complex(self.path)
        return self.argv

    def call(self, state, seed):
        return _cli_report(state)


def _torus_json():
    from homtower import builtin, complex_to_json
    return complex_to_json(builtin("torus2"))


class TowerTorus(_RelabelledInput):
    name = "tower-torus"
    path = TOWER_INPUT
    visit_all_labellings = True
    argv = ["tower", TOWER_INPUT, "-m", "2", "-L", str(TOWER_LEVELS),
            "-p", *map(str, PRIMES), "--format", "json"]

    def base_json(self):
        return _torus_json()

    def invariants(self, payload, seed):
        return _check_torus_levels(payload["report"]["levels"], TOWER_LEVELS, PRIMES)


class TowerIntegral(_RelabelledInput):
    name = "tower-integral"
    path = TOWER_INPUT
    visit_all_labellings = True

    def base_json(self):
        return _torus_json()

    def setup(self):
        return _load_complex(self.path, name="bench_torus")

    def call(self, state, seed):
        from homtower import mod_power_tower, run_tower
        report = run_tower(mod_power_tower(state, 2, INTEGRAL_LEVELS), primes=())
        return (json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n").encode("utf-8")

    def invariants(self, payload, seed):
        return _check_torus_levels(payload["levels"], INTEGRAL_LEVELS, ())


class BoundsCover(_RelabelledInput):
    name = "bounds-cover"
    path = COVER_INPUT
    argv = ["bounds", COVER_INPUT, "-p", *map(str, PRIMES), "--format", "json"]

    def base_json(self):
        from homtower import build_cover, builtin, complex_to_json, mod_power_tower
        torus = builtin("torus2")
        tower = mod_power_tower(torus, 2, COVER_LEVEL)
        cover, _ = build_cover(torus, tower.levels[-1].action)
        return complex_to_json(cover)

    def invariants(self, payload, seed):
        report = payload["report"]
        problems = [f"record {r['kind']} p={r['prime']} j={r['degree']} fails"
                    for r in report["records"] if r["pass"] is not True]
        kinds = sorted((r["kind"], r["prime"] or 0, r["degree"]) for r in report["records"])
        wanted = sorted([("torsion", 0, j) for j in range(3)]
                        + [("rank", p, j) for p in PRIMES for j in range(3)])
        if kinds != wanted:
            problems.append(f"records {kinds}, expected {wanted}")
        if report["all_pass"] is not True:
            problems.append("all_pass is not true")
        for flag, value in payload["duality"].items():
            if value is not True:
                problems.append(f"duality flag {flag} is {value}")
        return problems


class VerifySuite(Workload):
    name = "verify-suite"

    def call(self, state, seed):
        return _cli_report(["verify", "--trials", str(VERIFY_TRIALS), "--seed", str(seed),
                            "--format", "json"])

    def invariants(self, payload, seed):
        problems = []
        if payload["failures_total"] != 0:
            problems.append(f"failures_total {payload['failures_total']}")
        for suite in payload["suites"]:
            if suite["failures"]:
                problems.append(f"suite {suite['name']} has failures")
        return problems

    def expected_digest(self, reference, seed):
        # With no failures the report carries nothing seed-dependent but the
        # echoed seed, so the seed-0 reference text gives every seed's bytes.
        text = reference["verify_report_seed0"]
        text = text.replace('"seed": 0,', f'"seed": {seed},', 1)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


WORKLOADS = {w.name: w for w in (TowerTorus(), TowerIntegral(), BoundsCover(), VerifySuite())}


def load_reference():
    with open(REFERENCE, "r", encoding="utf-8") as fh:
        return json.load(fh)
