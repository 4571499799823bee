"""Three-dimensional complexes: the code paths for orientation, duality and
bounds are dimension-generic, so exercise them beyond surfaces."""

from itertools import combinations, product

import pytest

from homtower.bounds import check_bounds, check_index2_reduction, duality_report
from homtower.covers import (
    PermutationAction,
    build_cover,
    lifted_profile,
    mod_power_tower,
    orientation_double_cover,
    validate_action,
)
from homtower.deltacomplex import (
    BUILTIN_NAMES,
    DeltaComplex,
    NotPseudomanifoldError,
    builtin,
    cap_duality_check,
    homology_profile,
    orient,
    validate_complex,
)
from homtower.intlinalg import FgAbelianGroup, IntegerMatrix, smith_normal_form
from oracles import _boundary_or_zero, homology_at, projection_from_faces

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
    assert len(cycle.signs) == 5


def test_three_sphere_duality_and_bounds():
    sphere = boundary_of_4_simplex()
    report = duality_report(sphere)
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


def _chains(a, b):
    """The strictly increasing chains in [a] x [b] that cover every row and
    column: from (0, 0) to (a, b) by steps (1, 0), (0, 1) and (1, 1)."""
    if (a, b) == (0, 0):
        return [((0, 0),)]
    return [chain + ((a, b),)
            for da, db in ((1, 0), (0, 1), (1, 1)) if da <= a and db <= b
            for chain in _chains(a - da, b - db)]


def delta_product(x, y):
    """The product of two delta-complexes.  A k-simplex is (sigma, tau,
    chain): sigma an a-simplex of x, tau a b-simplex of y and chain one of
    _chains(a, b) with k+1 points.  Face i drops the i-th point of the
    chain; a row (column) that is left empty takes sigma (tau) to its face
    there, and the rows (columns) above it move down by one."""
    cells = [[] for _ in range(x.dim + y.dim + 1)]
    for a in range(x.dim + 1):
        for b in range(y.dim + 1):
            for chain in _chains(a, b):
                cells[len(chain) - 1] += [(a, s, b, t, chain)
                                          for s in range(x.counts[a]) for t in range(y.counts[b])]
    index = [{cell: j for j, cell in enumerate(level)} for level in cells]
    faces = {}
    for k in range(1, len(cells)):
        rows = []
        for a, s, b, t, chain in cells[k]:
            row = []
            for i, (ri, ci) in enumerate(chain):
                face, rest = [a, s, b, t], chain[:i] + chain[i + 1:]
                if all(r != ri for r, _ in rest):
                    face[:2] = a - 1, x.faces[a][s][ri]
                    rest = tuple((r - (r > ri), c) for r, c in rest)
                if all(c != ci for _, c in rest):
                    face[2:] = b - 1, y.faces[b][t][ci]
                    rest = tuple((r, c - (c > ci)) for r, c in rest)
                row.append(index[k - 1][(*face, rest)])
            rows.append(tuple(row))
        faces[k] = rows
    return DeltaComplex([len(level) for level in cells], faces)


@pytest.mark.parametrize("name, base_homology, cover_homology", [
    ("rp2", [Z(1), Z(1, (2,)), Z(0, (2,)), Z(0)], [Z(1), Z(1), Z(1), Z(1)]),
    ("klein_bottle", [Z(1), Z(2, (2,)), Z(1, (2,)), Z(0)], [Z(1), Z(3), Z(3), Z(1)]),
])
def test_double_cover_of_a_product_with_a_circle(name, base_homology, cover_homology):
    # RP^2 x S^1 is covered by S^2 x S^1, and K x S^1 by the 3-torus
    base = delta_product(builtin(name), builtin("circle"))
    assert validate_complex(base).ok
    assert list(homology_profile(base, (2, 3)).groups) == base_homology
    assert orient(base) is None
    cover, degree = orientation_double_cover(base)
    assert degree == 2
    assert cover.counts == tuple(2 * c for c in base.counts)
    assert list(homology_profile(cover, (2, 3)).groups) == cover_homology
    projection_from_faces(base, cover, degree)
    assert cap_duality_check(cover, orient(cover)).all_isomorphisms
    assert check_index2_reduction(base, (2,)).all_pass


def identify_edges(complex, keep, drop):
    """A 3-complex with edge `drop` glued onto edge `keep`, both loops at
    its one vertex: the glued edge has a star of two components."""
    index = [keep if e == drop else e - (e > drop) for e in range(complex.counts[1])]
    faces = {1: [row for e, row in enumerate(complex.faces[1]) if e != drop],
             2: [tuple(index[e] for e in row) for row in complex.faces[2]],
             3: complex.faces[3]}
    return DeltaComplex((1, complex.counts[1] - 1, *complex.counts[2:]), faces)


def test_double_cover_of_two_loops_glued_together():
    # On the one-vertex K x S^1, loop e swaps the two sheets of the double
    # cover iff its lift from sheet 0 ends on sheet 1.  Two loops that lift
    # alike glue into an edge that still lifts one way, and the cover is
    # built and certified; two that do not leave the glued edge no lift.
    product = delta_product(builtin("klein_bottle"), builtin("circle"))
    assert product.counts[0] == 1
    lifts = orientation_double_cover(product)[0].faces[1]
    swaps = [lifts[2 * e][0] for e in range(product.counts[1])]
    assert swaps[0] == swaps[2] != swaps[1]
    alike = identify_edges(product, 0, 2)
    assert validate_complex(alike).ok and orient(alike) is None
    cover, degree = orientation_double_cover(alike)
    assert cover.counts == tuple(2 * c for c in alike.counts)
    projection_from_faces(alike, cover, degree)
    clash = identify_edges(product, 0, 1)
    assert validate_complex(clash).ok and orient(clash) is None
    with pytest.raises(NotPseudomanifoldError, match="degenerates in dimension 1"):
        orientation_double_cover(clash)


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


# The Sol bundle M_A, A = [[2, 1], [1, 1]], on one vertex: T^2 x I as the
# delta-product of torus2 and an interval, two flip tetrahedra taking the top
# torus T_0 = {a, b, a+b} to A.T_0, and A.T_0 glued onto T_0 x 0 by A.
SOL_COUNTS = (1, 9, 16, 8)
SOL_FACES = {
    1: [(0, 0)] * 9,
    2: [(2, 6, 0), (4, 7, 0), (1, 8, 0), (0, 6, 1), (0, 7, 3), (0, 8, 5), (1, 5, 3), (2, 1, 4),
        (3, 5, 1), (4, 1, 2), (2, 8, 7), (4, 8, 6), (6, 8, 3), (7, 8, 1), (1, 3, 4), (4, 3, 1)],
    3: [(7, 10, 2, 1), (9, 11, 2, 0), (0, 10, 12, 4), (1, 11, 13, 3), (3, 5, 12, 6),
        (4, 5, 13, 8), (9, 15, 14, 7), (14, 6, 8, 15)],
}
SOL_MONODROMY = ((2, 1), (1, 1))


def sol():
    return DeltaComplex(SOL_COUNTS, SOL_FACES, name="sol")


def _times_monodromy(matrix, modulus=None):
    """matrix . A, its entries reduced mod `modulus` when one is given."""
    out = tuple(tuple(sum(matrix[i][k] * SOL_MONODROMY[k][j] for k in range(2))
                      for j in range(2)) for i in range(2))
    return out if modulus is None else tuple(tuple(v % modulus for v in row) for row in out)


def monodromy_torsion(n):
    """The invariant factors of coker(A^n - I), from one 2 x 2 Smith form:
    tors H_1 of the degree-n cyclic cover of the Sol bundle."""
    power = ((1, 0), (0, 1))
    for _ in range(n):
        power = _times_monodromy(power)
    shifted = {(i, j): power[i][j] - (i == j) for i in range(2) for j in range(2)}
    return smith_normal_form(IntegerMatrix(2, 2, {pos: v for pos, v in shifted.items() if v}))


def test_sol_bundle_homology():
    bundle = sol()
    assert validate_complex(bundle).ok
    assert list(homology_profile(bundle, (2, 3)).groups) == [Z(1), Z(1), Z(1), Z(1)]
    assert orient(bundle) is not None


def test_sol_tower_matches_the_monodromy():
    # H_1 of the degree-n cyclic cover is Z + coker(A^n - I), an oracle that
    # never builds the cover; every level is a closed 3-manifold whose top
    # boundary goes through the dual forest, and primes (2, 3) run the
    # universal-coefficient cross-check against the mod-N elimination
    bundle = sol()
    tower = mod_power_tower(bundle, 2, 7)
    assert [level.degree for level in tower.levels] == [2 ** i for i in range(1, 8)]
    for level in tower.levels:
        cover, degree = build_cover(bundle, level.action)
        profile = homology_profile(cover, (2, 3))
        assert [profile.betti(k) for k in range(4)] == [1, 1, 1, 1], degree
        torsion = monodromy_torsion(degree)
        assert torsion.rank == 2
        assert profile.group(1) == Z(1, torsion.nontrivial_divisors()), degree


# An isomorphism rho from pi_1 of the Sol table onto Z^2 x|_A Z, where
# (v, k)(w, l) = (v + A^k w, k + l): edge e goes to (SOL_RHO_FIBER[e],
# SOL_RHO_CIRCLE[e]), and each triangle (f0, f1, f2) gives rho(f2) rho(f0) =
# rho(f1).  rho is onto (edge 0 has k = 1, and edges 2 and 4 go to (-1, 0)
# and (-1, -1), which span Z^2), and polycyclic groups are Hopfian.
SOL_RHO_CIRCLE = (1, 0, 0, 0, 0, 0, 1, 1, 1)
SOL_RHO_FIBER = ((4, 2), (-2, -1), (-1, 0), (-3, -2), (-1, -1), (-5, -3), (2, 1), (1, 0),
                 (-1, -1))


def sol_congruence_action(n, r):
    """The regular action of G = (Z/n)^2 x|_A Z/r, ord(A mod n) dividing r,
    through rho: sheets are the elements (x, y, k) in that order, and edge e
    acts by right multiplication by rho(e).  The kernel of pi_1 -> G is
    nZ^2 x| <A^r>, the bundle with monodromy A^r, so the cover has H_1 =
    Z + coker(A^r - I), which is monodromy_torsion(r)."""
    powers = [((1 % n, 0), (0, 1 % n))]  # A^k mod n for k = 0..r
    for _ in range(r):
        powers.append(_times_monodromy(powers[-1], n))
    if powers[r] != powers[0]:
        raise ValueError(f"the order of A mod {n} does not divide {r}")
    sheets = list(product(range(n), range(n), range(r)))
    index = {g: s for s, g in enumerate(sheets)}
    perms = []
    for (a, b), l in zip(SOL_RHO_FIBER, SOL_RHO_CIRCLE):
        perm = []
        for x, y, k in sheets:
            (p, q), (u, w) = powers[k]
            perm.append(index[(x + p * a + q * b) % n, (y + u * a + w * b) % n, (k + l) % r])
        perms.append(perm)
    return PermutationAction(len(sheets), perms)


@pytest.mark.parametrize("n, r", [(2, 3), (2, 6), (3, 4), (4, 3), (3, 8), (5, 10)])
def test_sol_congruence_covers_match_the_monodromy(n, r):
    # covers of a 3-dimensional base through a non-abelian quotient of its
    # pi_1, whose H_1 has torsion: the closed form Z + coker(A^r - I), and
    # the checks that every finite cover of a closed orientable 3-manifold
    # passes
    bundle = sol()
    action = sol_congruence_action(n, r)
    assert validate_action(bundle, action).ok
    cover, degree = build_cover(bundle, action)
    assert degree == n * n * r and cover.is_connected()
    primes = (2, 3, 5)
    profile = homology_profile(cover, primes)
    assert profile.group(1) == Z(1, monodromy_torsion(r).nontrivial_divisors())
    # the same homology from Sol's Morse complex lifted through the action
    lifted = lifted_profile(bundle, action, primes)
    assert (lifted.groups, lifted.fp_dims) == (profile.groups, profile.fp_dims)
    assert cover.euler_characteristic() == 0
    assert all(profile.fp_dim(k, p) >= profile.betti(k) for k in range(4) for p in primes)
    assert check_bounds(cover, primes).all_pass
    assert all(duality_report(cover).values())
