"""Independent triangulations and randomized cross-checks.

These tests exercise the same pipeline as the library examples but through
structures built here from scratch: a genuinely simplicial torus, the
classic 6-vertex projective plane (whose orientation double cover is the
icosahedron), a Moore space with 3-torsion, and randomized complexes and
covers.  A final cross-check compares the Smith normal form against sympy
when it is installed.
"""

import json
import random

import pytest

from homtower.bounds import check_bounds, check_index2_reduction, duality_report
from homtower.cli import main
from homtower.covers import (
    build_cover,
    edge_path_presentation,
    mod_power_tower,
    orientation_double_cover,
)
from homtower.deltacomplex import (
    DeltaComplex,
    boundary_matrix,
    builtin,
    homology_profile,
    orient,
    validate_complex,
)
from homtower.growth import run_tower
from homtower.intlinalg import FgAbelianGroup, smith_normal_form
from oracles import (
    abelianization,
    abelianization_action,
    chain_h1,
    from_rows,
    homology_at,
    projection_from_faces,
)

Z = FgAbelianGroup


# ---------------------------------------------------------------------------
# A 3x3 grid torus: 9 vertices, 27 edges, 18 triangles, fully simplicial

def grid_torus():
    def vid(i, j):
        return 3 * (i % 3) + (j % 3)

    def hor(i, j):
        return 3 * (i % 3) + (j % 3)          # (i,j) -> (i,j+1)

    def ver(i, j):
        return 9 + 3 * (i % 3) + (j % 3)      # (i,j) -> (i+1,j)

    def diag(i, j):
        return 18 + 3 * (i % 3) + (j % 3)     # (i,j) -> (i+1,j+1)

    edges = [None] * 27
    for i in range(3):
        for j in range(3):
            edges[hor(i, j)] = (vid(i, j + 1), vid(i, j))
            edges[ver(i, j)] = (vid(i + 1, j), vid(i, j))
            edges[diag(i, j)] = (vid(i + 1, j + 1), vid(i, j))
    triangles = []
    for i in range(3):
        for j in range(3):
            # upper triangle (i,j), (i,j+1), (i+1,j+1)
            triangles.append((ver(i, j + 1), diag(i, j), hor(i, j)))
            # lower triangle (i,j), (i+1,j), (i+1,j+1)
            triangles.append((hor(i + 1, j), diag(i, j), ver(i, j)))
    return DeltaComplex((9, 27, 18), {1: edges, 2: triangles}, name="grid_torus")


def test_grid_torus_homology_and_duality():
    torus = grid_torus()
    assert validate_complex(torus).ok
    assert torus.euler_characteristic() == 0
    profile = homology_profile(torus, (2, 3, 5))
    assert list(profile.groups) == [Z(1), Z(2), Z(1)]
    cycle = orient(torus)
    assert cycle is not None and len(cycle.signs) == 18
    report = duality_report(torus)
    assert report["betti_symmetric"] and report["cap_isomorphisms"]
    assert check_bounds(torus, (2, 3)).all_pass
    assert abelianization(edge_path_presentation(torus)) == Z(2)


def test_grid_torus_cover_stays_a_torus():
    torus = grid_torus()
    action = abelianization_action(torus, 2)
    assert action.degree == 4
    cover, _ = build_cover(torus, action)
    assert cover.counts == (36, 108, 72)
    assert list(homology_profile(cover, (2,)).groups) == [Z(1), Z(2), Z(1)]


# ---------------------------------------------------------------------------
# The 6-vertex projective plane; its double cover is the icosahedron

RP2_6_TRIANGLES = [
    (0, 1, 3), (0, 1, 4), (0, 2, 3), (0, 2, 5), (0, 4, 5),
    (1, 2, 4), (1, 2, 5), (1, 3, 5), (2, 3, 4), (3, 4, 5),
]


def rp2_six():
    pairs = sorted({(a, b) for tri in RP2_6_TRIANGLES
                    for a in tri for b in tri if a < b})
    assert len(pairs) == 15
    edge_index = {pair: idx for idx, pair in enumerate(pairs)}
    edges = [(b, a) for (a, b) in pairs]
    triangles = []
    for a, b, c in RP2_6_TRIANGLES:
        triangles.append((edge_index[b, c], edge_index[a, c], edge_index[a, b]))
    return DeltaComplex((6, 15, 10), {1: edges, 2: triangles}, name="rp2_6")


def test_rp2_six_is_a_projective_plane():
    rp2 = rp2_six()
    assert validate_complex(rp2).ok
    assert rp2.euler_characteristic() == 1
    profile = homology_profile(rp2, (2, 3))
    assert list(profile.groups) == [Z(1), Z(0, (2,)), Z(0)]
    assert orient(rp2) is None
    assert abelianization(edge_path_presentation(rp2)) == Z(0, (2,))


def test_rp2_six_double_cover_is_the_icosahedron():
    rp2 = rp2_six()
    cover, degree = orientation_double_cover(rp2)
    assert cover.counts == (12, 30, 20)
    assert cover.euler_characteristic() == 2
    assert list(homology_profile(cover, (2,)).groups) == [Z(1), Z(0), Z(1)]
    assert degree == 2
    # every base simplex has two lifts, and the face maps commute with the
    # projection
    projection_from_faces(rp2, cover, degree)
    report = check_index2_reduction(rp2, (2,))
    assert report.all_pass
    assert report.caveat is not None  # not a registered aspherical example


# ---------------------------------------------------------------------------
# A Moore space with 3-torsion, driven through the CLI as a file

MOORE_Z3 = {
    "dim": 2,
    "counts": [1, 2, 2],
    "faces": {"1": [[0, 0], [0, 0]],
              "2": [[1, 0, 1], [0, 1, 0]]},
}


def test_moore_space_z3_homology():
    complex = DeltaComplex(MOORE_Z3["counts"],
                           {1: MOORE_Z3["faces"]["1"], 2: MOORE_Z3["faces"]["2"]})
    assert validate_complex(complex).ok
    profile = homology_profile(complex, (2, 3, 5))
    assert list(profile.groups) == [Z(1), Z(0, (3,)), Z(0)]
    assert profile.fp_dim(1, 3) == 1
    assert profile.fp_dim(2, 3) == 1   # Tor term from the 3-torsion below
    assert profile.fp_dim(1, 2) == 0


def test_moore_space_through_cli(tmp_path, capsys):
    path = tmp_path / "moore.json"
    path.write_text(json.dumps(MOORE_Z3))
    code = main(["homology", str(path), "-p", "2", "3", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["degrees"][1]["group"]["pretty"] == "Z/3"
    assert payload["degrees"][1]["group"]["torsion"] == ["3"]
    assert payload["degrees"][1]["fp_dims"]["3"] == 1


# ---------------------------------------------------------------------------
# Klein bottle tower: covers are tori, so torsion dies at level 1

def test_klein_bottle_tower_levels_are_tori():
    tower = mod_power_tower(builtin("klein_bottle"), 2, 2)
    report = run_tower(tower, primes=(2,))
    assert report.degrees == (4, 8)
    for level in report.levels:
        assert level.betti_q == (1, 2, 1)
        assert level.torsion_orders == (1, 1, 1)
    assert report.residual is False  # prover cannot certify the Klein group


# ---------------------------------------------------------------------------
# Randomized complexes and covers

def random_complex(rng):
    """A random valid 2-complex: random multigraph plus triangles whose
    edges close up coherently (so the chain condition holds by design)."""
    n_vertices = rng.randint(1, 4)
    n_edges = rng.randint(1, 6)
    edges = []
    for _ in range(n_edges):
        a = rng.randrange(n_vertices)
        b = rng.randrange(n_vertices)
        edges.append((b, a))  # directed a -> b
    by_start = {}
    for idx, (end, start) in enumerate(edges):
        by_start.setdefault(start, []).append((idx, end))
    candidates = []
    for e2, (u1, u0) in enumerate(edges):
        for e0, u2 in by_start.get(u1, ()):
            for e1, w2 in by_start.get(u0, ()):
                if w2 == u2:
                    candidates.append((e0, e1, e2))
    triangles = []
    if candidates:
        for _ in range(rng.randint(0, 6)):
            triangles.append(rng.choice(candidates))
    return DeltaComplex((n_vertices, len(edges), len(triangles)),
                        {1: edges, 2: triangles})


def test_random_complexes_are_consistent():
    rng = random.Random("fuzz-complexes")
    seen_triangles = 0
    for _ in range(120):
        complex = random_complex(rng)
        assert validate_complex(complex).ok
        seen_triangles += complex.counts[2]
        profile = homology_profile(complex, (2, 3, 5))  # UCT asserted inside
        alternating = sum((-1) ** k * profile.betti(k) for k in range(3))
        assert alternating == complex.euler_characteristic()
        # homology_at agrees with the profile in the middle degree
        middle = homology_at(boundary_matrix(complex, 1), boundary_matrix(complex, 2))
        assert middle == profile.group(1)
    assert seen_triangles > 50  # the generator really produces 2-cells


def test_random_covers_multiply_and_validate():
    rng = random.Random("fuzz-covers")
    built = 0
    for _ in range(60):
        complex = random_complex(rng)
        if not complex.is_connected():
            continue
        assert abelianization(edge_path_presentation(complex)) == chain_h1(complex)
        modulus = rng.choice((2, 3))
        action = abelianization_action(complex, modulus)
        if action.degree == 1 or action.degree > 24:
            continue
        cover, _ = build_cover(complex, action)
        built += 1
        assert cover.counts == tuple(c * action.degree for c in complex.counts)
        homology_profile(cover, (2,))  # validates + UCT internally
    assert built >= 10


# ---------------------------------------------------------------------------
# Cross-check the Smith form against sympy when available

def test_smith_divisors_match_sympy():
    pytest.importorskip("sympy")
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = random.Random("sympy-cross")
    for _ in range(60):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        data = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        ours = list(smith_normal_form(from_rows(data)).divisors)
        theirs_matrix = sympy_snf(Matrix(data), domain=ZZ)
        theirs = [abs(theirs_matrix[i, i]) for i in range(min(rows, cols))]
        theirs = [d for d in theirs if d != 0]
        assert ours == theirs, data
