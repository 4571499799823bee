"""Three-dimensional complexes: the code paths for orientation, duality and
bounds are dimension-generic, so exercise them beyond surfaces."""

from itertools import combinations

import pytest

from homtower.bounds import check_bounds, duality_report
from homtower.covers import build_cover, mod_power_tower
from homtower.deltacomplex import (
    BUILTIN_NAMES,
    DeltaComplex,
    NotPseudomanifoldError,
    _boundary_or_zero,
    builtin,
    cap_duality_check,
    homology_profile,
    orient,
    orientation_double_cover,
    validate_complex,
)
from homtower.intlinalg import FgAbelianGroup
from oracles import homology_at

Z = FgAbelianGroup


def boundary_of_4_simplex():
    """The full face structure of the 4-simplex minus its top cell: an
    honest simplicial 3-sphere with 5 vertices."""
    vertices = range(5)
    edges = sorted(combinations(vertices, 2))
    triangles = sorted(combinations(vertices, 3))
    tets = sorted(combinations(vertices, 4))
    edge_idx = {e: i for i, e in enumerate(edges)}
    tri_idx = {t: i for i, t in enumerate(triangles)}
    edge_rows = [(b, a) for (a, b) in edges]
    tri_rows = [(edge_idx[b, c], edge_idx[a, c], edge_idx[a, b])
                for (a, b, c) in triangles]
    tet_rows = []
    for tet in tets:
        row = tuple(tri_idx[tuple(v for j, v in enumerate(tet) if j != i)]
                    for i in range(4))
        tet_rows.append(row)
    return DeltaComplex((5, 10, 10, 5),
                        {1: edge_rows, 2: tri_rows, 3: tet_rows},
                        name="sphere3")


def test_three_sphere_homology_and_orientation():
    sphere = boundary_of_4_simplex()
    assert validate_complex(sphere).ok
    assert sphere.euler_characteristic() == 0
    profile = homology_profile(sphere, (2, 3))
    assert list(profile.groups) == [Z(1), Z(0), Z(0), Z(1)]
    cycle = orient(sphere)
    assert cycle is not None
    assert cycle.support_size() == 5


def test_three_sphere_duality_and_bounds():
    sphere = boundary_of_4_simplex()
    report = duality_report(sphere, (2,))
    assert report["betti_symmetric"] and report["torsion_symmetric"]
    assert report["cap_isomorphisms"]
    cap = cap_duality_check(sphere, orient(sphere))
    assert [r.source for r in cap.records] == [Z(1), Z(0), Z(0), Z(1)]
    bounds = check_bounds(sphere, (2, 3))
    assert bounds.all_pass
    assert bounds.cycle_size == 5
    assert bounds.dim == 3


def suspension_of_rp2():
    """Hand-assembled suspension of the two-triangle projective plane.

    Base: vertices v=0, w=1; edges a=0, b=1 (both v->w), c=2 (loop at v);
    triangles U=(1,0,2), L=(0,1,2).  Poles N=2, S=3 are appended as the
    last vertex of every cone simplex, keeping face maps order-preserving.
    Cone edges: vN=3, wN=4, vS=5, wS=6; cone triangles aN=2, bN=3, cN=4,
    aS=5, bS=6, cS=7.
    """
    edges = [(1, 0), (1, 0), (0, 0),
             (2, 0), (2, 1), (3, 0), (3, 1)]
    triangles = [
        (1, 0, 2),            # U
        (0, 1, 2),            # L
        (4, 3, 0),            # aN = [v,w,N]
        (4, 3, 1),            # bN
        (3, 3, 2),            # cN = [v,v,N]
        (6, 5, 0),            # aS
        (6, 5, 1),            # bS
        (5, 5, 2),            # cS
    ]
    tets = [
        (3, 2, 4, 0),         # U*N: cones over U's faces (b, a, c), then U
        (2, 3, 4, 1),         # L*N
        (6, 5, 7, 0),         # U*S
        (5, 6, 7, 1),         # L*S
    ]
    return DeltaComplex((4, 7, 8, 4), {1: edges, 2: triangles, 3: tets})


def test_suspension_of_rp2_homology():
    s = suspension_of_rp2()
    assert validate_complex(s).ok
    profile = homology_profile(s, (2, 3))
    # reduced homology shifts up by one from the projective plane
    assert list(profile.groups) == [Z(1), Z(0), Z(0, (2,)), Z(0)]
    assert profile.fp_dim(2, 2) == 1 and profile.fp_dim(3, 2) == 1
    assert profile.fp_dim(2, 3) == 0


def test_suspension_of_rp2_is_not_orientable():
    assert orient(suspension_of_rp2()) is None


def test_suspension_double_cover_degenerates():
    # the poles have connected orientation covers of their links, so the
    # lifted complex cannot double in dimension 0; the construction must
    # refuse rather than hand back a non-cover
    with pytest.raises(NotPseudomanifoldError, match="degenerates"):
        orientation_double_cover(suspension_of_rp2())


def test_cohomology_by_universal_coefficients():
    """H^m = Z^{b_m} + tors H_{m-1}, as read off the homology, equals the
    cohomology of the cochain complex, ker d_{m+1}^T / im d_m^T."""
    torus = builtin("torus2")
    complexes = [builtin(name) for name in BUILTIN_NAMES if name != "surface"]
    complexes += [builtin("surface", genus=2), boundary_of_4_simplex(), suspension_of_rp2()]
    complexes += [orientation_double_cover(builtin(name))[0] for name in ("klein_bottle", "rp2")]
    complexes += [build_cover(torus, level.action)[0]
                  for level in mod_power_tower(torus, 2, 2).levels]
    for complex in complexes:
        profile = homology_profile(complex, ())
        for m in range(complex.dim + 1):
            direct = homology_at(_boundary_or_zero(complex, m + 1).transpose(),
                                 _boundary_or_zero(complex, m).transpose())
            assert profile.cohomology(m) == direct, (complex, m)
    # the suspension of RP^2 has H_2 = Z/2, so its H^3 is all torsion
    assert homology_profile(suspension_of_rp2(), ()).cohomology(3) == Z(0, (2,))
