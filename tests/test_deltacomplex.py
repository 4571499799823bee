import itertools
import json

import pytest

from homtower import covers, deltacomplex, intlinalg
from homtower.bounds import check_bounds, check_index2_reduction, duality_report
from homtower.covers import (
    PermutationAction,
    build_cover,
    edge_path_presentation,
    lifted_profile,
    mod_power_tower,
    orientation_double_cover,
)
from homtower.deltacomplex import (
    BUILTIN_NAMES,
    ComplexFormatError,
    DeltaComplex,
    FundamentalCycle,
    NotPseudomanifoldError,
    boundary_matrix,
    builtin,
    builtin_facts,
    cap_duality_check,
    complex_from_json,
    complex_to_json,
    homology_profile,
    orient,
    validate_complex,
)
from homtower.growth import gap_consistency_check, run_tower
from homtower.intlinalg import (
    FgAbelianGroup,
    IntegerMatrix,
    _ranks_and_unit_columns,
    ranks_mod_primes,
    smith_normal_form,
)
from oracles import (
    cap_duality_records_full_basis,
    negated_cycle,
    orientation_by_search,
    projection_from_faces,
)
from test_dimension3 import boundary_of_4_simplex, delta_product, sol, suspension_of_rp2
from test_intlinalg import assert_kernel_lattice_basis, cover_boundaries

Z = FgAbelianGroup
PRIMES = (2, 3, 5)

# hand-derived homology of every built-in, frozen before the build
EXPECTED_HOMOLOGY = {
    "circle": [Z(1), Z(1)],
    "interval": [Z(1), Z(0)],
    "sphere2": [Z(1), Z(0), Z(1)],
    "torus2": [Z(1), Z(2), Z(1)],
    "klein_bottle": [Z(1), Z(1, (2,)), Z(0)],
    "rp2": [Z(1), Z(0, (2,)), Z(0)],
    "surface2": [Z(1), Z(4), Z(1)],
}


def make(name):
    if name == "surface2":
        return builtin("surface", genus=2)
    return builtin(name)


def all_builtins():
    return [(name, make(name)) for name in EXPECTED_HOMOLOGY]


# ---------------------------------------------------------------------------
# Structure and validation

def test_builtins_validate_and_have_expected_counts():
    assert builtin("circle").counts == (1, 1)
    assert builtin("interval").counts == (2, 1)
    assert builtin("torus2").counts == (1, 3, 2)
    assert builtin("sphere2").counts == (4, 6, 4)
    s2 = builtin("surface", genus=2)
    assert s2.counts == (1, 9, 6)
    assert s2.euler_characteristic() == -2
    for g in (1, 3, 4):
        s = builtin("surface", genus=g)
        assert s.counts == (1, 6 * g - 3, 4 * g - 2)
        assert s.euler_characteristic() == 2 - 2 * g
        assert validate_complex(s).ok


def test_builtin_rejects_bad_names():
    with pytest.raises(ValueError):
        builtin("moebius")
    with pytest.raises(ValueError):
        builtin("surface")
    with pytest.raises(ValueError):
        builtin("surface", genus=0)
    with pytest.raises(ValueError):
        builtin("torus2", genus=2)


def test_surface_counts_are_checked_before_any_face_list(monkeypatch):
    # The genus-g surface has 10g - 4 simplices, so genus 1677722 is the
    # largest within MAX_SIMPLICES.  A stand-in for the face builder shows
    # which genus reaches it, and the largest allowed surface is never built.
    reached = []

    def stand_in(genus):
        reached.append(genus)
        raise LookupError("the face lists would be built here")

    monkeypatch.setattr(deltacomplex, "_surface_faces", stand_in)
    with pytest.raises(LookupError):
        builtin("surface", genus=1677722)
    with pytest.raises(ValueError, match="^surface of genus 1677723: counts total 16777226 "
                                         "simplices, more than 16777216$"):
        builtin("surface", genus=1677723)
    assert reached == [1677722]


def test_validate_reports_out_of_range_face():
    bad = DeltaComplex((1, 2), {1: [(0, 0), (5, 0)]})
    report = validate_complex(bad)
    assert not report.ok
    assert "faces[1][1][0] = 5" in report.problems[0]


def test_validate_reports_chain_violation():
    # one triangle whose boundary is a single unbalanced edge: d o d != 0,
    # witnessed by the first face identity that fails, i = 0 and j = 2: face
    # 0 of face 2 is vertex 1, but face 1 of face 0 is vertex 0; an empty
    # dimension above it is skipped, and the failure is still found
    for bad in (DeltaComplex((2, 1, 1), {1: [(1, 0)], 2: [(0, 0, 0)]}),
                DeltaComplex((2, 1, 1, 0), {1: [(1, 0)], 2: [(0, 0, 0)], 3: []})):
        report = validate_complex(bad)
        assert not report.ok
        assert report.problems == [
            "face identity d_0 d_2 = d_1 d_0 fails on 2-simplex 0: 1 != 0"]


DEEP = []
for _ in range(2000):  # deeper than repr() can go under the default recursion limit
    DEEP = [DEEP]


@pytest.mark.parametrize("counts, faces, problem", [
    ((1, 2), {1: [(0, 0), (0.7, 0)]}, "faces[1][1][0] = 0.7 is not an integer"),
    ((1, 2), {1: [(0, 0), ("0", 0)]}, "faces[1][1][0] = '0' is not an integer"),
    ((1, 2), {1: [(0, 0), (0, False)]}, "faces[1][1][1] = False is not an integer"),
    ((1, 2), {1: [(0, 0), (0,)]}, "1-simplex 1: face list has 1 entries, expected 2"),
    ((1, 2), {1: [(0, 0), (0, 0, 0)]}, "1-simplex 1: face list has 3 entries, expected 2"),
    ((1, 2), {1: [(0, 0)]}, "dimension 1: 1 face lists for 2 simplices"),
    ((1, -1), {1: []}, "counts[1] = -1 is not a nonnegative integer"),
    ((1, 1.0), {1: [(0, 0)]}, "counts[1] = 1.0 is not a nonnegative integer"),
    ((1, True), {1: [(0, 0)]}, "counts[1] = True is not a nonnegative integer"),
    ((), {}, "counts must list at least the vertex count"),
    ((1, 1, 0), {1: [(0, 0)]}, "missing face lists for dimension 2"),
    ((1, 1), {1: [5]}, "faces[1][0] = 5 is not a face list"),
    ((1, 1), {1: 5}, "faces[1] = 5 is not a list of face lists"),
    ((1, 1), [None, [(0, 0)]], "faces must map each dimension k >= 1 to its face lists"),
    ((1, 1), {1: [b"\x00\x00"]}, "faces[1][0] = b'\\x00\\x00' is not a face list"),
    ((1, 1), {1: ["ab"]}, "faces[1][0] = 'ab' is not a face list"),
    ((1, 2), {1: [[0, 0], "ab"]}, "faces[1][1] = 'ab' is not a face list"),
    ((1, 1), {1: "ab"}, "faces[1] = 'ab' is not a list of face lists"),
    ((1, 1), {1: [(0, DEEP)]}, "faces[1][0][1] = [[[[[[[...]]]]]]] is not an integer"),
    ((1, DEEP), {1: []}, "counts[1] = [[[[[[[...]]]]]]] is not a nonnegative integer"),
], ids=["float", "str", "bool", "short-row", "long-row", "row-count", "negative-count",
        "float-count", "bool-count", "no-counts", "missing-dimension", "int-row", "int-rows",
        "faces-list", "bytes-row", "str-row", "str-among-rows", "str-rows", "deep-face",
        "deep-count"])
def test_validate_names_each_malformed_item(counts, faces, problem):
    # the constructor stores what it is given, so 0.7 and "0" stay what they
    # are, and validate_complex names the one bad item; bytes and str are
    # sequences, but a row b"\x00\x00" is no face list (0, 0) and a row "ab"
    # no faces 'a' and 'b', and a value is echoed cut short however deep it is
    report = validate_complex(DeltaComplex(counts, faces))
    assert not report.ok
    assert report.problems == [problem]


def test_validate_stops_at_the_first_problem():
    # The degree-16384 torus cover's faces under the counts (1, 1, 32768):
    # its row count and nearly every face index are wrong (196,601 problems
    # when each was listed), and only the first is named.
    torus = builtin("torus2")
    cover, _ = build_cover(torus, mod_power_tower(torus, 2, 7).levels[-1].action)
    assert cover.counts == (16384, 49152, 32768)
    report = validate_complex(DeltaComplex((1, 1, 32768), {1: cover.faces[1], 2: cover.faces[2]}))
    assert report.problems == ["dimension 1: 49152 face lists for 1 simplices"]


def test_every_reader_of_faces_refuses_an_invalid_complex():
    # a torus whose second triangle names a missing edge 7: past the gate,
    # each reader would run into it with an IndexError or a KeyError
    bad = DeltaComplex((1, 3, 2), {1: [(0, 0)] * 3, 2: [(0, 2, 1), (1, 2, 7)]})
    readers = {
        "homology_profile": lambda: homology_profile(bad),
        "boundary_matrix": lambda: boundary_matrix(bad, 2),
        "orient": lambda: orient(bad),
        "orientation_double_cover": lambda: orientation_double_cover(bad),
        "cap_duality_check": lambda: cap_duality_check(bad, FundamentalCycle((1, -1))),
        "edge_path_presentation": lambda: edge_path_presentation(bad),
        "mod_power_tower": lambda: mod_power_tower(bad, 2, 1),
        "build_cover": lambda: build_cover(bad, PermutationAction(1, [(0,)] * 3)),
    }
    for name, read in readers.items():
        with pytest.raises(ValueError) as caught:
            read()
        assert str(caught.value) == ("invalid complex: faces[2][1][2] = 7 out of range "
                                     "(complex has 3 simplices of dimension 1)"), name


def test_single_vertex_complex_is_ok():
    point = DeltaComplex((1,), {})
    assert validate_complex(point).ok
    assert point.dim == 0
    assert point.is_connected()
    points = DeltaComplex((3,), {})  # no edges: an empty forest and three components
    assert deltacomplex._spanning_forest(points) == ()
    assert points.component_count() == 3 and not points.is_connected()


# ---------------------------------------------------------------------------
# Boundary matrices

def test_boundary_matrix_examples():
    circle = builtin("circle")
    assert boundary_matrix(circle, 1) == IntegerMatrix.zeros(1, 1)
    interval = builtin("interval")
    assert boundary_matrix(interval, 1).to_rows() == [[-1], [1]]
    torus = builtin("torus2")
    d2 = boundary_matrix(torus, 2)
    assert d2.to_rows() == [[1, 1], [1, 1], [-1, -1]]
    with pytest.raises(ValueError):
        boundary_matrix(circle, 2)


def test_boundary_columns_obey_norm_bound():
    for name, complex in all_builtins():
        for k in range(1, complex.dim + 1):
            for j, column in enumerate(boundary_matrix(complex, k).columns()):
                assert sum(v * v for v in column.values()) <= (k + 1) ** 2, (name, k, j)


def test_chain_condition_for_all_builtins():
    for name, complex in all_builtins():
        assert validate_complex(complex).ok, name


# ---------------------------------------------------------------------------
# Homology

def test_homology_tables():
    for name, complex in all_builtins():
        profile = homology_profile(complex, PRIMES)
        assert list(profile.groups) == EXPECTED_HOMOLOGY[name], name


def test_mod_p_dimensions_match_hand_values():
    klein = homology_profile(builtin("klein_bottle"), PRIMES)
    assert [klein.fp_dim(k, 2) for k in range(3)] == [1, 2, 1]
    assert [klein.fp_dim(k, 3) for k in range(3)] == [1, 1, 0]
    torus = homology_profile(builtin("torus2"), PRIMES)
    assert [torus.fp_dim(k, 2) for k in range(3)] == [1, 2, 1]
    rp2 = homology_profile(builtin("rp2"), PRIMES)
    assert [rp2.fp_dim(k, 2) for k in range(3)] == [1, 1, 1]
    assert [rp2.fp_dim(k, 5) for k in range(3)] == [1, 0, 0]


def test_euler_characteristic_equals_alternating_betti():
    for name, complex in all_builtins():
        profile = homology_profile(complex, (2,))
        alternating = sum((-1) ** k * profile.betti(k) for k in range(complex.dim + 1))
        assert alternating == complex.euler_characteristic(), name


# ---------------------------------------------------------------------------
# Orientation

def test_orient_torus_signs():
    cycle = orient(builtin("torus2"))
    assert cycle is not None
    assert cycle.signs == (1, -1)


def double_cover_of(base):
    return lambda: orientation_double_cover(base())[0]


@pytest.mark.parametrize("make_complex, orientable", [
    pytest.param(lambda: builtin("circle"), True, id="circle"),
    pytest.param(lambda: builtin("sphere2"), True, id="sphere2"),
    pytest.param(lambda: builtin("torus2"), True, id="torus2"),
    *(pytest.param(lambda g=g: builtin("surface", genus=g), True, id=f"surface_{g}")
      for g in (1, 2, 3)),
    pytest.param(lambda: torus_cover(2), True, id="torus-cover-16"),
    pytest.param(lambda: builtin("klein_bottle"), False, id="klein_bottle"),
    pytest.param(lambda: builtin("rp2"), False, id="rp2"),
    *(pytest.param(double_cover_of(lambda name=name: builtin(name)), True,
                   id=f"{name}-double-cover") for name in ("klein_bottle", "rp2")),
    *(pytest.param(double_cover_of(lambda d=d: klein_cyclic_cover(d)), True,
                   id=f"klein-cyclic-{d}-double-cover") for d in (3, 63)),
])
def test_orient_finds_a_cycle_or_none(make_complex, orientable):
    # orient certifies its cycle by the clashes it marks, not by d_n; this
    # multiplies out d_n against the signs.  The cache keeps the cycle of an
    # orientable complex and no incidences, and orienting leaves no boundary.
    complex = make_complex()
    cycle = orient(complex)
    n = complex.dim
    assert not any(("boundary", k) in complex._cache for k in range(1, n + 1))
    if not orientable:
        assert cycle is None
        slots, eta = complex._cache["orientation"]
        assert len(slots) == 2 * len(eta) == 2 * complex.counts[n - 1] and any(eta)
        return
    assert complex._cache["orientation"] is cycle
    column = IntegerMatrix(complex.counts[n], 1, {(t, 0): s for t, s in enumerate(cycle.signs)})
    assert (boundary_matrix(complex, n) @ column).is_zero()


def test_one_sign_pass_per_complex_and_no_boundary_to_orient(monkeypatch):
    # One cached signed union-find gives the orientation and the Smith form
    # of d_n, so bounds and the duality report build the top-face
    # incidences once per complex, whether orientation or homology comes
    # first.  The double cover reads the orientation pass of its base:
    # the index-2 check builds them once on the base and once on the cover,
    # and no boundary matrix is built to orient.
    passes, builds = [], []
    real_incidences = deltacomplex._top_face_incidences
    real_boundary = deltacomplex._boundary_off_rows

    def counting_incidences(complex):
        passes.append(complex.counts)
        return real_incidences(complex)

    def counting_boundary(complex, k, dropped):
        builds.append(k)
        return real_boundary(complex, k, dropped)

    monkeypatch.setattr(deltacomplex, "_top_face_incidences", counting_incidences)
    monkeypatch.setattr(deltacomplex, "_boundary_off_rows", counting_boundary)
    orient(builtin("torus2"))
    orientation_double_cover(klein_cyclic_cover(3))
    assert builds == []
    passes.clear()
    for first in (orient, homology_profile):
        torus = builtin("torus2")
        first(torus)
        assert check_bounds(torus).all_pass
        assert all(duality_report(torus).values())
        assert passes == [(1, 3, 2)], first
        passes.clear()
    assert check_index2_reduction(builtin("klein_bottle")).all_pass
    assert passes == [(1, 3, 2), (2, 6, 4)]


def test_orient_surfaces():
    for g in (1, 2, 3):
        cycle = orient(builtin("surface", genus=g))
        assert cycle is not None
        assert len(cycle.signs) == 4 * g - 2


def test_orient_rejects_open_complex():
    with pytest.raises(NotPseudomanifoldError):
        orient(builtin("interval"))


def torus_wedge():
    # two one-vertex tori wedged at the vertex: connected complex,
    # disconnected dual graph
    return DeltaComplex((1, 6, 4), {
        1: [(0, 0)] * 6,
        2: [(0, 2, 1), (1, 2, 0), (3, 5, 4), (4, 5, 3)],
    })


def test_orient_rejects_disconnected_dual_graph():
    wedge = torus_wedge()
    assert validate_complex(wedge).ok
    with pytest.raises(NotPseudomanifoldError, match="dual graph"):
        orient(wedge)


def test_negated_cycle_is_still_a_cycle():
    sphere = builtin("sphere2")
    cycle = orient(sphere)
    flipped = negated_cycle(cycle)
    column = IntegerMatrix(4, 1, {(t, 0): s for t, s in enumerate(flipped.signs)})
    assert (boundary_matrix(sphere, 2) @ column).is_zero()
    with pytest.raises(ValueError):
        FundamentalCycle((1, 0))


@pytest.mark.parametrize("signs, named", [
    ([1.5, True, -1], "coefficient 1.5 is not"),  # was read as (1, 1, -1)
    ([1, True, -1], "coefficient True is not"),
    ([1.0, -1], "coefficient 1.0 is not"),
    ([1, "-1"], "coefficient '-1' is not"),
], ids=["float-and-bool", "bool", "float", "str"])
def test_fundamental_cycle_refuses_signs_that_are_not_ints(signs, named):
    with pytest.raises(ValueError, match=named):
        FundamentalCycle(signs)


# ---------------------------------------------------------------------------
# Orientation double cover

def test_klein_bottle_double_cover_is_torus_like():
    cover, degree = orientation_double_cover(builtin("klein_bottle"))
    assert cover.counts == (2, 6, 4)
    assert cover.euler_characteristic() == 0
    assert orient(cover) is not None
    profile = homology_profile(cover, (2,))
    assert list(profile.groups) == [Z(1), Z(2), Z(1)]
    assert degree == 2
    # the face maps commute with the projection, and every base simplex is
    # covered exactly twice in every dimension
    projection_from_faces(builtin("klein_bottle"), cover, degree)


def test_rp2_double_cover_is_sphere_like():
    cover, _ = orientation_double_cover(builtin("rp2"))
    assert cover.counts == (4, 6, 4)
    assert cover.euler_characteristic() == 2
    profile = homology_profile(cover, (2,))
    assert list(profile.groups) == [Z(1), Z(0), Z(1)]


def test_double_cover_rejects_orientable_input():
    with pytest.raises(ValueError, match="orientable"):
        orientation_double_cover(builtin("torus2"))


def klein_cyclic_cover(degree):
    """The cyclic cover of the Klein bottle that shifts the sheets by one
    along edges 0 and 2; for odd degree it is a Klein bottle again."""
    shift = [(s + 1) % degree for s in range(degree)]
    action = PermutationAction(degree, [shift, list(range(degree)), shift])
    return build_cover(builtin("klein_bottle"), action)[0]


@pytest.mark.parametrize("degree", [3, 63])
def test_odd_cyclic_klein_covers_are_double_covered_by_tori(degree):
    base = klein_cyclic_cover(degree)
    assert orient(base) is None
    cover, two = orientation_double_cover(base)
    assert two == 2
    assert cover.counts == (2 * degree, 6 * degree, 4 * degree)
    assert list(homology_profile(cover, PRIMES).groups) == [Z(1), Z(2), Z(1)]
    projection_from_faces(base, cover, 2)
    cycle = orient(cover)
    assert cap_duality_check(cover, cycle).all_isomorphisms
    assert [record[3] for record in cap_duality_records_full_basis(cover, cycle)] == [True] * 3


def test_subface_does_not_depend_on_the_order_of_the_drops():
    # _subface drops the positions outside `keep` highest first; dropping
    # them lowest first, each at its index among the positions still
    # there, must reach the same face on every valid complex
    complexes = [make(name) for name in EXPECTED_HOMOLOGY]
    complexes += [boundary_of_4_simplex(), suspension_of_rp2(), klein_cyclic_cover(3)]
    complexes += [orientation_double_cover(builtin(name))[0] for name in ("klein_bottle", "rp2")]
    for complex in complexes:
        n = complex.dim
        for t in range(complex.counts[n]):
            for mask in range(1, 1 << (n + 1)):
                keep = [p for p in range(n + 1) if mask >> p & 1]
                face, k = t, n
                for dropped, p in enumerate(q for q in range(n + 1) if q not in keep):
                    face, k = complex.faces[k][face][p - dropped], k - 1
                assert deltacomplex._subface(complex, n, t, keep) == face, (complex, t, keep)


# ---------------------------------------------------------------------------
# Cap product duality

def test_cap_duality_on_torus_and_sphere():
    for name in ("torus2", "sphere2"):
        complex = make(name)
        cycle = orient(complex)
        report = cap_duality_check(complex, cycle)
        assert report.all_isomorphisms, name
        for k, record in enumerate(report.records):
            assert record.degree == k
            assert record.source == record.target


def test_cap_duality_records_expected_groups():
    report = cap_duality_check(builtin("torus2"), orient(builtin("torus2")))
    assert report.records[0].source == Z(1)   # H^2 -> H_0
    assert report.records[1].source == Z(2)   # H^1 -> H_1
    assert report.records[2].source == Z(1)   # H^0 -> H_2


def pinched_sphere():
    """sphere2 with vertices 0 and 3 identified (a sphere with two points
    glued, S^2 v S^1): H^1 = H_1 = Z, but capping kills the loop class."""
    return DeltaComplex((3, 6, 4), {
        1: [(1, 0), (2, 0), (0, 0), (2, 1), (0, 1), (0, 2)],
        2: [(5, 4, 3), (5, 2, 1), (4, 2, 0), (3, 1, 0)],
    })


def doubled_one_vertex():
    """One vertex, loops e0..e2, triangles t3 = t0 and t2 = t1 face for
    face: the +-1 cycle t0 - t1 - t2 + t3 (DOUBLED_CYCLE) is twice t0 - t1,
    so its cap maps H^1 = Z^2 onto a sublattice of index 4 in H_1 = Z^2, of
    full rank."""
    return DeltaComplex((1, 3, 4), {
        1: [(0, 0)] * 3,
        2: [(2, 1, 0), (0, 1, 2), (0, 1, 2), (2, 1, 0)],
    })


DOUBLED_CYCLE = FundamentalCycle((1, -1, -1, 1))


def torus_cover(levels):
    """The last cover of the mod-2 tower of torus2, of degree 4^levels."""
    torus = builtin("torus2")
    return build_cover(torus, mod_power_tower(torus, 2, levels).levels[-1].action)[0]


def test_cap_duality_detects_non_surjective_cap():
    pinched = pinched_sphere()
    assert validate_complex(pinched).ok
    report = cap_duality_check(pinched, orient(pinched))
    record = report.records[1]
    assert record.source == record.target == Z(1)
    assert record.isomorphism is False
    assert not report.all_isomorphisms
    record = cap_duality_check(doubled_one_vertex(), DOUBLED_CYCLE).records[1]
    assert record.source == record.target == Z(2)
    assert record.isomorphism is False


def test_cap_duality_matches_the_full_cocycle_basis():
    # The cocycles that vanish on the unit pivots give the records a whole
    # basis of the cocycle lattice gives, both False verdicts included.
    complexes = [make(name) for name in ("torus2", "sphere2", "circle", "surface2")]
    complexes += [builtin("surface", genus=g) for g in (1, 3)]
    surface = make("surface2")
    complexes += [build_cover(surface, mod_power_tower(surface, 2, 1).levels[0].action)[0]]
    complexes += [orientation_double_cover(builtin(name))[0] for name in ("klein_bottle", "rp2")]
    complexes += [torus_cover(levels) for levels in (2, 3, 4)]
    complexes += [boundary_of_4_simplex(), pinched_sphere()]
    cases = [(c, orient(c)) for c in complexes] + [(doubled_one_vertex(), DOUBLED_CYCLE)]
    degree_1 = []
    for complex, cycle in cases:
        records = [(r.degree, r.source, r.target, r.isomorphism)
                   for r in cap_duality_check(complex, cycle).records]
        assert records == cap_duality_records_full_basis(complex, cycle), complex
        degree_1.append(records[1][3] if len(records) > 1 else None)
    # the onto test fails on the pinched sphere and on the doubled complex only
    assert degree_1[-2:] == [False, False]
    assert all(degree_1[:-2])


def test_duality_flags_match_the_homology_formula():
    # duality_report reads both symmetry flags from the cap-duality records;
    # the parent formula compares b_k with b_{n-k} and |tors H_k| with
    # |tors H_{n-k-1}| straight from the homology.  On the pinched sphere the
    # cap fails while both symmetries hold.
    complexes = [make(name) for name in ("torus2", "sphere2", "circle", "surface2")]
    complexes += [builtin("surface", genus=g) for g in (1, 3)]
    complexes += [orientation_double_cover(builtin(name))[0] for name in ("klein_bottle", "rp2")]
    complexes += [torus_cover(levels) for levels in (2, 3)]
    complexes += [boundary_of_4_simplex(), sol(), pinched_sphere()]
    flags = []
    for complex in complexes:
        profile, n = homology_profile(complex, ()), complex.dim
        expected = {
            "betti_symmetric": all(profile.betti(k) == profile.betti(n - k)
                                   for k in range(n + 1)),
            "torsion_symmetric": all(profile.torsion_order(k) == profile.torsion_order(n - k - 1)
                                     for k in range(n)),
            "cap_isomorphisms": cap_duality_check(complex, orient(complex)).all_isomorphisms,
        }
        flags.append(duality_report(complex))
        assert flags[-1] == expected, complex
    assert flags[-1] == {"betti_symmetric": True, "torsion_symmetric": True,
                         "cap_isomorphisms": False}
    assert all(all(f.values()) for f in flags[:-1])


def test_cap_duality_cocycles_are_few_on_a_torus_cover(monkeypatch):
    # Off the unit pivots, H^m of a torus cover comes from b_m cocycles: one,
    # two and one columns for k = 0, 1, 2, where the whole cocycle lattice
    # of the degree-16 cover has rank 32, 17 and 1.  Only m = 1 is
    # eliminated: H^0 is the component indicator, and H^2 the one top
    # simplex that is not a unit pivot of the dual forest.
    cover = torus_cover(2)
    assert cover.counts == (16, 48, 32)
    widths, spans = [], []
    real_kernel, real_smith = deltacomplex.integer_kernel, deltacomplex.smith_normal_form

    def counting(matrix):
        basis = real_kernel(matrix)
        widths.append(basis.cols)
        return basis

    def recording(matrix, keep_transforms=False):
        spans.append((matrix.rows, matrix.cols))
        return real_smith(matrix, keep_transforms)

    monkeypatch.setattr(deltacomplex, "integer_kernel", counting)
    monkeypatch.setattr(deltacomplex, "smith_normal_form", recording)
    assert cap_duality_check(cover, orient(cover)).all_isomorphisms
    assert widths == [2]
    # k = 0 sums the one image over the one component; k = 1 appends two
    # images to d_2, and k = 2 tests one image alone
    assert spans == [(1, 1), (48, 32 + 2), (32, 1)]


def test_integer_kernel_on_restricted_coboundaries(monkeypatch):
    # the matrices cap duality hands integer_kernel, d_{m+1}^T off the
    # columns in S_m for 0 < m < n, on torus, genus-2 and Sol covers
    real = deltacomplex.integer_kernel
    seen = []

    def checking(matrix):
        basis = real(matrix)
        assert_kernel_lattice_basis(matrix, basis)
        seen.append(basis.cols)
        return basis

    monkeypatch.setattr(deltacomplex, "integer_kernel", checking)
    surface, bundle = make("surface2"), sol()
    covers = [torus_cover(3), build_cover(surface, mod_power_tower(surface, 2, 1).levels[0].action)[0],
              build_cover(bundle, mod_power_tower(bundle, 2, 4).levels[-1].action)[0]]
    for cover in covers:
        cycle = orient(cover)
        assert cap_duality_check(cover, cycle).all_isomorphisms
        assert ([(r.degree, r.source, r.target, r.isomorphism)
                 for r in cap_duality_check(cover, cycle).records]
                == cap_duality_records_full_basis(cover, cycle))
    # b_1 = 2 on the torus cover and 34 on the genus-2 one; on the Sol
    # cover of degree 16, b_m = 1 plus the nontrivial divisors of d_m
    assert seen[:4] == [2, 2, 34, 34] and len(seen) == 8


def test_cap_duality_refuses_a_chain_that_is_not_a_cycle():
    # the boundary is summed from the faces; flipping one sign of these
    # fundamental cycles leaves a nonzero boundary (on the one-edge circle
    # every chain is a cycle)
    for complex in (builtin("torus2"), boundary_of_4_simplex(), torus_cover(2)):
        signs = list(orient(complex).signs)
        signs[-1] = -signs[-1]
        with pytest.raises(ValueError, match="not a cycle: its boundary is nonzero"):
            cap_duality_check(complex, FundamentalCycle(signs))
        with pytest.raises(ValueError, match="wrong number of coefficients"):
            cap_duality_check(complex, FundamentalCycle(signs + [1]))


def test_cap_duality_ends_on_disconnected_complexes():
    # H^0 is free on the component indicators and C_0/B_0 on the
    # components, so both ends of the check must see every component
    cases = {
        "torus2 + torus2": disjoint_union(builtin("torus2"), builtin("torus2")),
        "torus2 + sphere2": disjoint_union(builtin("torus2"), builtin("sphere2")),
        "circle + circle": disjoint_union(builtin("circle"), builtin("circle")),
        "three points": DeltaComplex((3,), {}),
    }
    for name, complex in cases.items():
        assert validate_complex(complex).ok, name
        cycle = orient(complex)
        records = [(r.degree, r.source, r.target, r.isomorphism)
                   for r in cap_duality_check(complex, cycle).records]
        assert records == cap_duality_records_full_basis(complex, cycle), name
        components = Z(3 if name == "three points" else 2)
        assert records[0][1:] == (components, components, True), name
        assert all(record[3] for record in records), name


def test_face_identities_are_stronger_than_the_chain_condition():
    # rp2 with triangle 0 written [2, 0, 1] instead of [1, 0, 2] has the
    # same boundary matrices, so d o d = 0, but not the same faces of faces
    rp2 = builtin("rp2")
    twisted = DeltaComplex(rp2.counts, {1: rp2.faces[1], 2: [(2, 0, 1), rp2.faces[2][1]]})
    # boundary_matrix refuses an invalid complex, so these read the builder
    assert deltacomplex._boundary_off_rows(twisted, 2, ()) == boundary_matrix(rp2, 2)
    assert (deltacomplex._boundary_off_rows(twisted, 1, ())
            @ deltacomplex._boundary_off_rows(twisted, 2, ())).is_zero()
    assert validate_complex(twisted).problems == [
        "face identity d_0 d_1 = d_0 d_0 fails on 2-simplex 0: 1 != 0"]


def test_smith_forms_are_shared_with_the_homology(monkeypatch):
    # no boundary of these closed surfaces is eliminated over Z, whatever
    # the primes (d_1's Smith form is the spanning forest, d_2's the dual
    # one), and the cap check adds one onto test per degree and at most a
    # core's Smith form for the cocycles of the middle degree
    calls = []
    real = intlinalg.smith_normal_form

    def counting(matrix, keep_transforms=False):
        calls.append(matrix)
        return real(matrix, keep_transforms)

    monkeypatch.setattr(intlinalg, "smith_normal_form", counting)
    monkeypatch.setattr(deltacomplex, "smith_normal_form", counting)
    for name in ("circle", "sphere2", "torus2", "surface2"):
        complex = make(name)
        homology_profile(complex, (2,))
        homology_profile(complex, (3,))
        assert len(calls) == 0, name
        calls.clear()
        cap_duality_check(complex, orient(complex))
        assert len(calls) <= 2 * (complex.dim + 1), name
        calls.clear()


def test_one_modular_elimination_per_boundary(monkeypatch):
    # All primes share one elimination of each boundary; the core is empty
    # on a torus cover, so nothing is finished prime by prime, and with no
    # primes the mod-p pass does not run at all.
    torus = builtin("torus2")
    tower = mod_power_tower(torus, 2, 2)
    calls = []
    real = intlinalg._ranks_and_unit_columns

    def counting(matrix, primes):
        calls.append((matrix.rows, matrix.cols, tuple(primes)))
        return real(matrix, primes)

    monkeypatch.setattr(intlinalg, "_ranks_and_unit_columns", counting)
    monkeypatch.setattr(deltacomplex, "_ranks_and_unit_columns", counting)
    cover, _ = build_cover(torus, tower.levels[-1].action)
    assert cover.counts == (16, 48, 32)
    homology_profile(cover, ())
    assert calls == []
    profile = homology_profile(cover, (2, 3, 5))
    assert calls == [(16, 48, (2, 3, 5)), (48, 32, (2, 3, 5))]
    assert all(profile.fp_dims[p] == (1, 2, 1) for p in (2, 3, 5))


def restriction_inputs():
    """(name, [d_1, ..., d_n]) for the boundary chains the restriction tests
    run on."""
    complexes = [(name, builtin(name)) for name in BUILTIN_NAMES if name != "surface"]
    complexes += [(f"surface_{g}", builtin("surface", genus=g)) for g in (2, 3)]
    complexes += [(f"{name} double cover", orientation_double_cover(builtin(name))[0])
                  for name in ("klein_bottle", "rp2")]
    complexes += [("suspension of rp2", suspension_of_rp2())]
    chains = [(name, [boundary_matrix(c, k) for k in range(1, c.dim + 1)])
              for name, c in complexes]
    d = cover_boundaries()
    return chains + [("degree-16 torus cover", d[:2]), ("surface_2 from cover_boundaries", d[2:])]


def without_rows(matrix, rows):
    return IntegerMatrix(matrix.rows, matrix.cols,
                         {(i, j): v for (i, j), v in matrix.items() if i not in rows})


def nonzero_rows(matrix):
    return {i for (i, _), _ in matrix.items()}


RESTRICTION_PRIME_SETS = ((2,), (3,), (2, 3, 5), (7,))


def test_dropping_unit_pivot_rows_keeps_every_boundary_invariant():
    # d_k without the rows that are unit-pivot columns S_{k-1} of the same
    # engine's elimination of d_{k-1} (itself restricted, as in
    # homology_profile) has the Smith divisors and F_p ranks of d_k.
    seen_3d = seen_torsion = False
    for name, chain in restriction_inputs():
        smith_units = ()
        mod_units = dict.fromkeys(RESTRICTION_PRIME_SETS, ())
        for k, d in enumerate(chain, start=1):
            full = smith_normal_form(d)
            kept = smith_normal_form(without_rows(d, set(smith_units)))
            assert (kept.rank, kept.divisors) == (full.rank, full.divisors), (name, k)
            smith_units = kept.unit_columns
            seen_torsion |= bool(full.nontrivial_divisors())
            for primes in RESTRICTION_PRIME_SETS:
                ranks, mod_units[primes] = _ranks_and_unit_columns(
                    without_rows(d, set(mod_units[primes])), primes)
                assert ranks == ranks_mod_primes(d, primes), (name, k, primes)
        seen_3d |= len(chain) == 3
    assert seen_3d and seen_torsion


def test_program_eliminates_the_restricted_boundaries():
    # _boundary_smith and homology_profile go through the restricted
    # matrices, and their results are those of the full boundaries.
    for c in (suspension_of_rp2(), builtin("surface", genus=3),
              orientation_double_cover(builtin("rp2"))[0]):
        units = ()
        for k in range(1, c.dim + 1):
            restricted = deltacomplex._boundary_off_rows(c, k, units)
            assert restricted == without_rows(boundary_matrix(c, k), set(units))
            assert restricted.nnz() < boundary_matrix(c, k).nnz() or not units
            snf = deltacomplex._boundary_smith(c, k)
            assert snf.divisors == smith_normal_form(boundary_matrix(c, k)).divisors
            units = snf.unit_columns
        profile = homology_profile(c, PRIMES)
        for p in PRIMES:
            ranks = [0] + [ranks_mod_primes(boundary_matrix(c, k), (p,))[p]
                           for k in range(1, c.dim + 1)] + [0]
            assert profile.fp_dims[p] == tuple(c.counts[k] - ranks[k] - ranks[k + 1]
                                               for k in range(c.dim + 1))


def test_dropping_a_row_outside_the_unit_pivots_changes_some_answer():
    # Negative control: the restriction tests can fail.  One more row, not a
    # unit-pivot column of d_{k-1}, changes the Smith divisors or the F_p
    # ranks of d_k on some input.
    smith_changed = []
    ranks_changed = []
    for name, chain in restriction_inputs():
        smith_units = ()
        mod_units = ()
        for k, d in enumerate(chain, start=1):
            full = smith_normal_form(d)
            full_ranks = ranks_mod_primes(d, PRIMES)
            for r in sorted(nonzero_rows(d) - set(smith_units)):
                if smith_normal_form(without_rows(d, {*smith_units, r})).divisors != full.divisors:
                    smith_changed.append((name, k, r))
                    break
            for r in sorted(nonzero_rows(d) - set(mod_units)):
                if ranks_mod_primes(without_rows(d, {*mod_units, r}), PRIMES) != full_ranks:
                    ranks_changed.append((name, k, r))
                    break
            smith_units = smith_normal_form(without_rows(d, set(smith_units))).unit_columns
            mod_units = _ranks_and_unit_columns(without_rows(d, set(mod_units)), PRIMES)[1]
    assert smith_changed and ranks_changed
    assert ("sphere2", 2) in {(name, k) for name, k, _ in smith_changed}


def disjoint_union(*parts):
    """The disjoint union of complexes, as one of the largest dimension."""
    dim = max(c.dim for c in parts)
    counts, faces = [0] * (dim + 1), {k: [] for k in range(1, dim + 1)}
    for c in parts:
        for k in range(1, c.dim + 1):
            faces[k] += [tuple(f + counts[k - 1] for f in row) for row in c.faces[k]]
        for k in range(c.dim + 1):
            counts[k] += c.counts[k]
    return DeltaComplex(counts, faces)


def forest_inputs():
    """(name, complex) for the spanning-forest tests: the restriction
    inputs as complexes, two torus covers, and hand-made complexes with
    loops, parallel edges and several components."""
    complexes = [(name, builtin(name)) for name in BUILTIN_NAMES if name != "surface"]
    complexes += [(f"surface_{g}", builtin("surface", genus=g)) for g in (2, 3)]
    complexes += [(f"{name} double cover", orientation_double_cover(builtin(name))[0])
                  for name in ("klein_bottle", "rp2")]
    complexes += [("suspension of rp2", suspension_of_rp2()),
                  ("degree-16 torus cover", torus_cover(2)),
                  ("degree-64 torus cover", torus_cover(3))]
    loops_and_parallels = DeltaComplex(
        (3, 5), {1: [(0, 0), (1, 0), (1, 0), (2, 2), (0, 1)]})
    return complexes + [
        ("loops and parallel edges, 2 components", loops_and_parallels),
        ("rp2 + interval", disjoint_union(builtin("rp2"), builtin("interval"))),
        ("torus2 + sphere2 + circle",
         disjoint_union(builtin("torus2"), builtin("sphere2"), builtin("circle"))),
        ("klein_bottle + loops and parallel edges",
         disjoint_union(builtin("klein_bottle"), loops_and_parallels)),
    ]


def components_by_search(complex, edges):
    """The vertex sets of the components of the graph on `edges`."""
    neighbours = [set() for _ in range(complex.counts[0])]
    for e in edges:
        u, v = complex.faces[1][e]
        neighbours[u].add(v)
        neighbours[v].add(u)
    seen, components = set(), []
    for root in range(complex.counts[0]):
        if root not in seen:
            component, stack = {root}, [root]
            while stack:
                for w in neighbours[stack.pop()] - component:
                    component.add(w)
                    stack.append(w)
            seen |= component
            components.append(component)
    return components


def test_spanning_forest_is_the_smith_form_of_d1():
    # d_1's Smith form, the component count and the tree of the edge-path
    # presentation all come from the one cached union-find, and agree with a
    # full elimination and a search; d_2 without the forest rows keeps its
    # divisors and is the relator matrix
    seen_loop = seen_parallel = seen_three = False
    for name, c in forest_inputs():
        assert validate_complex(c).ok, name
        forest = deltacomplex._spanning_forest(c)
        assert c._cache["forest"] is forest
        snf = deltacomplex._boundary_smith(c, 1)
        assert snf.divisors == smith_normal_form(boundary_matrix(c, 1)).divisors, name
        assert snf.unit_columns == forest, name
        assert c.component_count() == c.counts[0] - snf.rank, name
        assert c.component_count() == len(components_by_search(c, range(c.counts[1]))), name
        if c.dim >= 2:
            assert (deltacomplex._boundary_smith(c, 2).divisors
                    == smith_normal_form(boundary_matrix(c, 2)).divisors), name
        if c.is_connected() and c.dim >= 1:
            p = edge_path_presentation(c)
            assert set(range(c.counts[1])) - set(p.generator_edges) == set(forest), name
            if c.dim >= 2:
                off = deltacomplex._boundary_off_rows(c, 2, forest)
                generator_of = {e: g for g, e in enumerate(p.generator_edges)}
                assert p.relator_matrix() == IntegerMatrix(
                    p.generator_count, c.counts[2],
                    {(generator_of[e], t): v for (e, t), v in off.items()}), name
        edges = c.faces[1]
        seen_loop |= any(u == v for u, v in edges)
        seen_parallel |= len(set(map(frozenset, edges))) < len(edges)
        seen_three |= c.component_count() == 3
    assert seen_loop and seen_parallel and seen_three


def test_forest_edges_are_unit_columns_of_d1():
    # When forest edge e joins components A and B of the forest before it,
    # the indicator cochain chi_B has coboundary +-1 at e and 0 at every
    # earlier forest edge; no loop enters the forest.
    for name, c in forest_inputs():
        d1 = boundary_matrix(c, 1)
        forest = deltacomplex._spanning_forest(c)
        for i, e in enumerate(forest):
            end, start = c.faces[1][e]
            (component_b,) = [b for b in components_by_search(c, forest[:i]) if end in b]
            assert start not in component_b, (name, e)
            coboundary = IntegerMatrix(1, c.counts[0], dict.fromkeys(
                ((0, v) for v in component_b), 1)) @ d1
            assert coboundary[0, e] in (1, -1), (name, e)
            assert all(coboundary[0, f] == 0 for f in forest[:i]), (name, e)


def test_dropping_a_row_outside_the_forest_changes_some_answer():
    # Negative control for the forest: one more row of d_2, not a forest
    # edge, changes its Smith divisors on some input.
    changed = set()
    for name, c in forest_inputs():
        if c.dim < 2 or "torus cover" in name:
            continue
        d2 = boundary_matrix(c, 2)
        full = smith_normal_form(d2).divisors
        forest = set(deltacomplex._spanning_forest(c))
        if any(smith_normal_form(without_rows(d2, forest | {r})).divisors != full
               for r in sorted(nonzero_rows(d2) - forest)):
            changed.add(name)
    assert "sphere2" in changed


def test_integral_side_builds_no_d1(monkeypatch):
    # Over Z, neither d_1 nor the top boundary d_2 of a closed surface is
    # built or eliminated; the mod-N engine still eliminates both, so the
    # universal-coefficient cross-check compares two independent
    # computations.
    built = []
    real = deltacomplex._boundary_off_rows

    def counting(complex, k, dropped):
        built.append(k)
        return real(complex, k, dropped)

    monkeypatch.setattr(deltacomplex, "_boundary_off_rows", counting)
    cover = torus_cover(2)
    homology_profile(cover, ())
    assert built == []
    profile = homology_profile(cover, (2, 3))
    assert built == [1, 2]
    assert profile.fp_dims == {2: (1, 2, 1), 3: (1, 2, 1)}


def lone_triangle():
    return DeltaComplex((3, 3, 1), {1: [(2, 1), (2, 0), (1, 0)], 2: [(0, 1, 2)]})


def two_triangle_disk():
    """The square [0, 1, 2, 3] cut along its diagonal 02: edges 01, 02,
    03, 12, 23 and triangles 012, 023, so only edge 02 is interior."""
    return DeltaComplex((4, 5, 2), {1: [(1, 0), (2, 0), (3, 0), (2, 1), (3, 2)],
                                    2: [(3, 1, 0), (4, 2, 1)]})


def dunce_hat():
    # one edge, and one triangle with the edge on all three sides (a, a, a^-1)
    return DeltaComplex((1, 1, 1), {1: [(0, 0)], 2: [(0, 0, 0)]})


def without_top_simplex(complex, t):
    """The complex with top simplex t removed: its faces become half-edges."""
    n = complex.dim
    faces = {k: complex.faces[k] for k in range(1, n)}
    faces[n] = complex.faces[n][:t] + complex.faces[n][t + 1:]
    return DeltaComplex(complex.counts[:n] + (complex.counts[n] - 1,), faces)


def with_a_free_face(complex, face):
    """The complex with one more (n-1)-simplex, with the given faces, that
    lies in no top simplex."""
    n = complex.dim
    counts = list(complex.counts)
    counts[n - 1] += 1
    faces = {k: complex.faces[k] for k in range(1, n + 1)}
    if n >= 2:
        faces[n - 1] += (face,)
    return DeltaComplex(counts, faces)


def dual_forest_inputs():
    """(name, complex) pairs: every built-in, surfaces of genus 2 and 3,
    the mod-2 covers of the torus, Klein bottle and RP^2 and the cyclic
    Klein covers of degree 3 and 5 (with the double covers of the
    non-orientable ones), the 3-torus, the suspension of RP^2
    (a 2 in d_3), the 3-sphere, Sol and two of its covers, and the same
    with a top simplex taken out, plus the two half-edge disks and three
    complexes with an (n-1)-simplex in no top simplex, which a walk over
    the sorted top-face slots must step over: the torus plus a free loop
    edge (counts (1, 4, 2)), Sol plus a free triangle and the circle plus
    an isolated vertex."""
    out = [(name, make(name)) for name in BUILTIN_NAMES if name != "surface"]
    out += [(f"surface{g}", builtin("surface", genus=g)) for g in (2, 3)]
    for name in ("torus2", "klein_bottle", "rp2"):
        base = builtin(name)
        covers = [build_cover(base, level.action)[0]
                  for level in mod_power_tower(base, 2, 2).levels]
        for i, cover in enumerate([base] + covers):
            out.append((f"{name} cover {i}", cover))
            if orient(cover) is None:
                out.append((f"{name} cover {i} double", orientation_double_cover(cover)[0]))
    for d in (3, 5):
        shift = [(i + 1) % d for i in range(d)]
        action = PermutationAction(d, [shift, list(range(d)), shift])
        cover = build_cover(builtin("klein_bottle"), action)[0]
        out += [(f"cyclic klein cover {d}", cover),
                (f"cyclic klein cover {d} double", orientation_double_cover(cover)[0])]
    bundle = sol()
    out += [("sol", bundle)] + [(f"sol cover {level.degree}", build_cover(bundle, level.action)[0])
                                for level in mod_power_tower(bundle, 2, 2).levels]
    out += [("torus3", delta_product(builtin("torus2"), builtin("circle"))),
            ("suspension of rp2", suspension_of_rp2()), ("sphere3", boundary_of_4_simplex())]
    out += [(f"{name} minus a top simplex", without_top_simplex(c, c.counts[c.dim] // 2))
            for name, c in list(out) if c.dim >= 2]
    return out + [("lone triangle", lone_triangle()), ("two-triangle disk", two_triangle_disk()),
                  ("torus2 plus a free edge", with_a_free_face(builtin("torus2"), (0, 0))),
                  ("sol plus a free triangle", with_a_free_face(bundle, (0, 0, 0))),
                  ("circle plus a vertex", with_a_free_face(builtin("circle"), None))]


def dual_forest_smith(complex):
    """The Smith form of d_n from _dual_forest, on a complex with no
    (n-1)-simplex in three top faces."""
    smith = deltacomplex._dual_forest(complex)[3]
    assert smith is not None
    return smith


def test_dual_forest_is_the_smith_form_of_the_top_boundary():
    # The signed union-find over the top simplices gives the divisors of a
    # full elimination of d_n, and _boundary_smith takes it for every
    # complex here of dimension at least 2, closed or with half-edges
    seen_two = seen_half = False
    for name, c in dual_forest_inputs():
        assert validate_complex(c).ok, name
        n = c.dim
        forest = dual_forest_smith(c)
        full = smith_normal_form(boundary_matrix(c, n))
        assert forest.divisors == full.divisors, name
        assert (forest.rows, forest.cols) == (full.rows, full.cols), name
        assert len(set(forest.unit_columns)) == forest.divisors.count(1), name
        if n >= 2:  # on a fresh copy, which has no dual forest cached
            cached = deltacomplex._boundary_smith(complex_from_json(complex_to_json(c)), n)
            assert (cached.divisors, cached.unit_columns) == (
                forest.divisors, forest.unit_columns), name
        seen_two |= 2 in forest.divisors and n == 3
        seen_half |= 1 in deltacomplex._top_face_incidences(c)[1]
    assert seen_two and seen_half


def test_dual_forest_on_half_edges():
    for c, divisors in ((lone_triangle(), (1,)), (two_triangle_disk(), (1, 1))):
        assert validate_complex(c).ok
        assert dual_forest_smith(c).divisors == divisors
        assert list(homology_profile(c, PRIMES).groups) == [Z(1), Z(0), Z(0)]
    # the join at edge 02 absorbs the root 0, then the root 1 of the one
    # tree that has half-edges comes last
    assert dual_forest_smith(two_triangle_disk()).unit_columns == (0, 1)


def test_dunce_hat_falls_back_to_elimination(monkeypatch):
    hat = dunce_hat()
    assert validate_complex(hat).ok
    assert deltacomplex._top_face_incidences(hat) == ([0, 1, 2], [3])
    assert deltacomplex._dual_forest(hat)[1:] == (None, None, None)
    assert ("smith", 2) not in hat._cache
    calls = []
    real = deltacomplex.smith_normal_form
    monkeypatch.setattr(deltacomplex, "smith_normal_form",
                        lambda matrix: calls.append(matrix) or real(matrix))
    assert list(homology_profile(hat, PRIMES).groups) == [Z(1), Z(0), Z(0)]
    assert len(calls) == 1 and calls[0].rows == calls[0].cols == 1


def test_dual_forest_unit_columns_are_cap_duality_pivots():
    # Cap duality needs, for each pivot, a coboundary that is +-1 there and
    # 0 at every earlier pivot: the columns of d_n on each prefix of the
    # unit columns have full rank and every divisor 1
    for name, c in dual_forest_inputs():
        if sum(c.counts) > 200:
            continue
        d = boundary_matrix(c, c.dim)
        pivots = dual_forest_smith(c).unit_columns
        for i in range(1, len(pivots) + 1):
            prefix = smith_normal_form(IntegerMatrix(
                d.rows, i, {(r, pivots.index(t)): v for (r, t), v in d.items()
                            if t in pivots[:i]}))
            assert prefix.divisors == (1,) * i, (name, i)


def documented_unit_columns(complex):
    """The unit columns in the order _dual_forest documents, from component
    labels instead of a union-find, read off complex.faces: a row joining
    two components pivots on the label of its first incidence's, which
    takes the label of the second's; then the final labels of the
    components with a half-edge, in increasing order."""
    n = complex.dim
    tops = [[] for _ in range(complex.counts[n - 1])]  # f's top simplices, in order
    for t, row in enumerate(complex.faces[n]):
        for f in row:
            tops[f].append(t)
    label = list(range(complex.counts[n]))
    joins, half = [], set()
    for on_f in tops:
        if len(on_f) == 1:
            half.add(on_f[0])
        elif len(on_f) == 2:
            a, b = label[on_f[0]], label[on_f[1]]
            if a != b:
                joins.append(a)
                label = [b if x == a else x for x in label]
    return tuple(joins + sorted({label[t] for t in half}))


def test_dual_forest_joins_come_before_the_half_edge_roots():
    # A half-edge root's telescoped row is +-1 at the root alone, so it may
    # follow the joins; the joins keep the order in which they were found
    for name, c in dual_forest_inputs():
        assert dual_forest_smith(c).unit_columns == documented_unit_columns(c), name


def double_cover_or_refusal(complex):
    try:
        return orientation_double_cover(complex)[0].faces
    except ValueError as exc:
        return repr(exc)


def test_orientation_matches_the_search_oracle():
    # The signed dual forest gives the signs of a breadth-first search from
    # the lowest top simplex of each dual component, the same component
    # count, and clashes from which the double cover gets the same faces as
    # from the search's clashes (an edge swaps the sheets or not whatever
    # the tentative signs), or the same refusal.
    disjoint = {"two tori": [(0, 2, 1), (1, 2, 0), (3, 5, 4), (4, 5, 3)],
                "a torus and a Klein bottle": [(0, 2, 1), (1, 2, 0), (3, 5, 4), (4, 3, 5)]}
    inputs = dual_forest_inputs() + [
        *((f"cyclic klein cover {d}", klein_cyclic_cover(d)) for d in (7, 63, 255)),
        ("wedge of two tori", torus_wedge()),
        *((name, DeltaComplex((2, 6, 4), {1: [(0, 0)] * 3 + [(1, 1)] * 3, 2: triangles}))
          for name, triangles in disjoint.items())]
    seen = {"open": 0, "free": 0, "split": 0, "oriented": 0, "clash": 0}
    for name, complex in inputs:
        c = complex_from_json(complex_to_json(complex))  # nothing cached
        assert validate_complex(c).ok, name
        n = c.dim
        named = [f for row in c.faces[n] for f in row]
        tally = [named.count(f) for f in range(c.counts[n - 1])]
        if any(count != 2 for count in tally):
            f = next(f for f, count in enumerate(tally) if count != 2)
            with pytest.raises(NotPseudomanifoldError, match=(
                    f"not a closed pseudomanifold: {n - 1}-simplex {f} has {tally[f]} top-simplex")):
                orient(c)
            seen["open" if tally[f] else "free"] += 1
            continue
        incidences, signs, eta, components = orientation_by_search(c)
        if c.is_connected() and components > 1:
            with pytest.raises(NotPseudomanifoldError,
                               match=f"dual graph has {components} components"):
                orient(c)
            seen["split"] += 1
            continue
        cycle = orient(c)
        if not any(eta):
            assert cycle.signs == tuple(signs), name
            seen["oriented"] += 1
            continue
        assert cycle is None, name
        searched = complex_from_json(complex_to_json(c))
        assert validate_complex(searched).ok
        searched._cache["orientation"] = (
            [t * (n + 1) + i for pairs in incidences for t, i in pairs], eta)
        assert double_cover_or_refusal(c) == double_cover_or_refusal(searched), name
        seen["clash"] += 1
    assert min(seen.values()) >= 1, seen


def test_unit_cocycle_caps_to_fundamental_cycle():
    # the all-ones vertex cochain capped with tau gives back tau on the nose
    for name in ("torus2", "sphere2"):
        complex = make(name)
        cycle = orient(complex)
        n = complex.dim
        out = [0] * complex.counts[n]
        for t, s in enumerate(cycle.signs):
            front_vertex = deltacomplex._subface(complex, n, t, range(1))
            assert 0 <= front_vertex < complex.counts[0]
            out[deltacomplex._subface(complex, n, t, range(n + 1))] += s * 1
        assert tuple(out) == cycle.signs, name


def test_cap_duality_rejects_fake_cycle():
    sphere = builtin("sphere2")
    bad = FundamentalCycle((1, 1, 1, 1))
    cycle = orient(sphere)
    if bad == cycle or bad == negated_cycle(cycle):
        bad = FundamentalCycle((1, 1, 1, -1))
    with pytest.raises(ValueError, match="cycle"):
        cap_duality_check(sphere, bad)


# ---------------------------------------------------------------------------
# Poincare duality numerics (oriented closed examples)

def test_poincare_duality_betti_and_torsion():
    for name in ("circle", "sphere2", "torus2", "surface2"):
        complex = make(name)
        assert orient(complex) is not None
        n = complex.dim
        profile = homology_profile(complex, (2,))
        for k in range(n + 1):
            assert profile.betti(k) == profile.betti(n - k), (name, k)
        for k in range(n):
            assert profile.torsion_order(k) == profile.torsion_order(n - k - 1), (name, k)


# ---------------------------------------------------------------------------
# JSON interchange

def test_json_round_trip():
    for name, complex in all_builtins():
        blob = json.dumps(complex_to_json(complex))
        again = complex_from_json(json.loads(blob))
        assert again == complex, name


def _file_problem(obj):
    """The reader's ComplexFormatError for an interchange object, else the
    first problem validate_complex finds in what the reader stored."""
    try:
        complex = complex_from_json(obj)
    except ComplexFormatError as exc:
        return str(exc)
    return validate_complex(complex).problems[0]


def test_json_parser_positions():
    # the reader checks the envelope; every count and face is validate_complex's
    with pytest.raises(ComplexFormatError, match=r"\$"):
        complex_from_json([1, 2])
    with pytest.raises(ComplexFormatError, match="missing key"):
        complex_from_json({"dim": 1, "counts": [1, 1]})
    with pytest.raises(ComplexFormatError, match="counts"):
        complex_from_json({"dim": 1, "counts": [1], "faces": {"1": []}})
    assert _file_problem({"dim": 1, "counts": [1, 1], "faces": {"1": [[0, -2]]}}) == (
        "faces[1][0][1] = -2 out of range (complex has 1 simplices of dimension 0)")
    assert _file_problem({"dim": 1, "counts": [1, 2], "faces": {"1": [[0, 0]]}}) == (
        "dimension 1: 1 face lists for 2 simplices")
    with pytest.raises(ComplexFormatError, match="unexpected keys"):
        complex_from_json({"dim": 0, "counts": [1], "faces": {"1": []}})


@pytest.mark.parametrize("obj, problem", [
    ({"dim": True, "counts": [1, 1], "faces": {"1": [[0, 0]]}},
     "dim: dim must be a nonnegative integer"),
    ({"dim": 1, "counts": [1, True], "faces": {"1": [[0, 0]]}},
     "counts[1] = True is not a nonnegative integer"),
    ({"dim": 1, "counts": [1, 1], "faces": {"1": [[0, False]]}},
     "faces[1][0][1] = False is not an integer"),
], ids=["dim", "count", "face-index"])
def test_json_parser_rejects_booleans(obj, problem):
    # json.load gives bool, a subclass of int; true and false are not numbers:
    # the reader refuses a bool dim, and validate_complex a bool count or face
    assert _file_problem(obj) == problem


def test_builtin_facts_table():
    # (aspherical, amenable pi_1, residual mod-2 tower, degrees to level 2, gap verdict)
    table = {
        ("circle", None): (True, True, True, (2, 4), "pass"),
        ("torus2", None): (True, True, True, (4, 16), "pass"),
        ("surface", 1): (True, True, True, (4, 16), "pass"),
        # pi_1 is virtually Z^2, but no Klein-bottle tower is residual
        ("klein_bottle", None): (True, True, False, (4, 8), "not-applicable"),
        ("interval", None): (True, True, True, (), "not-applicable"),  # contractible
        ("sphere2", None): (False, True, True, (), "not-applicable"),
        # pi_1 = Z/2: a residual tower of one level, so amenability alone
        # would give it a verdict; the gap check also needs an aspherical base
        ("rp2", None): (False, True, True, (2,), "not-applicable"),
        ("surface", 2): (True, False, False, (16, 256), "not-applicable"),
    }
    assert {name for name, _ in table} == set(BUILTIN_NAMES)
    for (name, genus), (aspherical, amenable, residual, degrees, status) in table.items():
        made = builtin(name, genus=genus)
        assert builtin_facts(made) == (aspherical, amenable), name
        report = run_tower(mod_power_tower(made, 2, 2), primes=(2,))
        assert (report.residual, report.degrees) == (residual, degrees), name
        assert report.amenable == (aspherical and amenable), name
        assert gap_consistency_check(report, 100)["status"] == status, name
        # the same faces from a file saved under the built-in's name carry no facts
        copy = complex_from_json(complex_to_json(made), name=made.name)
        assert copy == made and builtin_facts(copy) == (False, False), name
    # bounds refuses the interval before its index-2 step could read a fact
    with pytest.raises(NotPseudomanifoldError):
        check_index2_reduction(builtin("interval"))


@pytest.mark.parametrize("genus, message", [
    (None, "surface requires genus >= 1"),
    (0, "surface requires genus >= 1"),
    (True, "surface genus True is not an int"),
    (2.0, "surface genus 2.0 is not an int"),
], ids=["none", "zero", "bool", "float"])
def test_surface_genus_must_be_an_int(genus, message):
    # builtin("surface", genus=True) used to build a torus named surface_True
    with pytest.raises(ValueError) as info:
        builtin("surface", genus=genus)
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# Discrete Morse complex

def relabelled(complex, perms):
    """A copy of complex in which k-simplex j is renamed perms[k][j]."""
    faces = {}
    for k in range(1, complex.dim + 1):
        rows = [None] * complex.counts[k]
        for j, row in enumerate(complex.faces[k]):
            rows[perms[k][j]] = tuple(perms[k - 1][f] for f in row)
        faces[k] = rows
    return DeltaComplex(complex.counts, faces)


# critical cells of each built-in; each count is the F_2 Betti number, the least possible
BUILTIN_CRITICAL = {"circle": (1, 1), "interval": (1, 0), "sphere2": (1, 0, 1), "torus2": (1, 2, 1),
                    "klein_bottle": (1, 2, 1), "rp2": (1, 1, 1)}


def morse_bases():
    """(name, complex, critical counts): every built-in, surfaces of genus 2
    and 3, the tests' Sol and torus3, all 12 relabellings of torus2 that the
    benchmark reads, three points and two circles."""
    torus = builtin("torus2")
    assert set(BUILTIN_CRITICAL) | {"surface"} == set(BUILTIN_NAMES)
    bases = [(name, builtin(name), counts) for name, counts in BUILTIN_CRITICAL.items()]
    bases += [("points", DeltaComplex((3,), {}), (3,)),
              ("two circles", DeltaComplex((2, 2), {1: [(0, 0), (1, 1)]}), (2, 2))]
    bases += [(f"surface{g}", builtin("surface", genus=g), (1, 2 * g, 1)) for g in (1, 2, 3)]
    bases += [("sol", sol(), (1, 2, 2, 1)),
              ("torus3", delta_product(torus, builtin("circle")), (1, 3, 3, 1))]
    bases += [(f"torus2 {edges} {triangles}", relabelled(torus, [(0,), edges, triangles]), (1, 2, 1))
              for edges in itertools.permutations(range(3))
              for triangles in itertools.permutations(range(2))]
    return bases


def lifted_boundaries(complex, action):
    """The Morse boundaries lifted through an action, straight from the
    terms of _morse: (sign, q, word) of critical c puts sign at row
    q * d + word(s) of column c * d + s."""
    _, critical, boundary = deltacomplex._morse(complex)
    d, matrices = action.degree, {}
    for k in range(1, complex.dim + 1):
        entries = {}
        for c, terms in enumerate(boundary[k]):
            for sign, q, word in terms:
                for s in range(d):
                    t = s
                    for e, x in word:
                        t = action.edge_perms[e][t] if x > 0 else action.edge_perms[e].index(t)
                    entries[q * d + t, c * d + s] = entries.get((q * d + t, c * d + s), 0) + sign
        matrices[k] = IntegerMatrix(d * len(critical[k - 1]), d * len(critical[k]),
                                    {pos: v for pos, v in entries.items() if v})
    return matrices


def is_acyclic(complex, pairs):
    """Whether no gradient path closes, by Kahn's algorithm on each layer's
    digraph: paired face f -> every other paired face g of f's partner."""
    for k, layer in enumerate(pairs[:-1]):
        after = {f: [g for g in complex.faces[k + 1][s] if g != f and g in layer]
                 for f, (s, _) in layer.items()}
        into = {f: 0 for f in layer}
        for targets in after.values():
            for g in targets:
                into[g] += 1
        ready = [f for f, n in into.items() if n == 0]
        for f in ready:
            for g in after[f]:
                into[g] -= 1
                if into[g] == 0:
                    ready.append(g)
        if len(ready) != len(layer):
            return False
    return True


@pytest.mark.parametrize("name, complex, counts", [pytest.param(*base, id=base[0]) for base in morse_bases()])
def test_morse_matching_and_boundaries(name, complex, counts):
    pairs, critical, boundary = deltacomplex._morse(complex)
    in_pairs = [list(layer) for layer in pairs]
    for k, layer in enumerate(pairs[:-1]):
        for f, (s, slot) in layer.items():
            # a face fills exactly one slot of its partner: incidence +-1
            assert complex.faces[k + 1][s][slot] == f and complex.faces[k + 1][s].count(f) == 1
            in_pairs[k + 1].append(s)
    assert all(len(cells) == len(set(cells)) for cells in in_pairs), "a simplex in two pairs"
    assert [sorted(set(range(c)) - set(cells)) for c, cells in zip(complex.counts, in_pairs)] \
        == critical
    assert is_acyclic(complex, pairs)
    assert tuple(map(len, critical)) == counts
    trivial = PermutationAction(1, [(0,)] * (complex.counts[1] if complex.dim else 0))
    actions = [trivial] + [level.action for level in (
        mod_power_tower(complex, 2, 2).levels if complex.dim and complex.is_connected() else ())]
    for action in actions:
        lifted = lifted_boundaries(complex, action)
        for k in range(1, complex.dim):
            assert (lifted[k] @ lifted[k + 1]).is_zero(), (name, action.degree, k)
    # the base's Morse homology is its simplicial homology
    morse, simplicial = lifted_profile(complex, trivial, PRIMES), homology_profile(complex, PRIMES)
    assert morse.groups == simplicial.groups and morse.fp_dims == simplicial.fp_dims


def test_morse_never_pairs_a_face_that_fills_two_slots():
    # rp2's loop edge 2 fills both slots of its edge, two triangles of the
    # suspension of rp2 (a middle layer) repeat an edge, and so does the
    # triangle (a, b, a), alone on top and as the middle layer of a
    # 3-complex, where the greedy pass meets a in slot 2 first.  Such an
    # incidence is 0 or +-2, not invertible on a cover, so no pair uses it.
    triangle = {1: [(0, 0)] * 2, 2: [(0, 1, 0)]}
    for complex in (builtin("rp2"), suspension_of_rp2(), DeltaComplex((1, 2, 1), triangle),
                    DeltaComplex((1, 2, 1, 0), {**triangle, 3: []})):
        repeated = {(k, j, f) for k in range(1, complex.dim + 1)
                    for j, row in enumerate(complex.faces[k]) for f in row if row.count(f) > 1}
        assert repeated
        pairs = deltacomplex._morse(complex)[0]
        assert not {(k + 1, s, f) for k, layer in enumerate(pairs) for f, (s, _) in layer.items()} \
            & repeated
        trivial = PermutationAction(1, [(0,)] * complex.counts[1])
        assert lifted_profile(complex, trivial, PRIMES).groups == homology_profile(complex, ()).groups


def test_morse_refuses_a_closed_gradient_path(monkeypatch):
    # the matching is checked, not trusted: with edge 0 paired to triangle 0
    # and edge 1 to triangle 1, torus2's gradient path from edge 0 runs
    # through triangle 0 to edge 1, then through triangle 1 back to edge 0
    real = deltacomplex._tree_links
    monkeypatch.setattr(deltacomplex, "_tree_links",
                        lambda count, links: [(0, 0), (1, 1)] if count == 2 else real(count, links))
    with pytest.raises(AssertionError, match="Morse matching is not acyclic: a gradient path "
                                             "returns to 1-simplex [01]"):
        deltacomplex._morse(builtin("torus2"))


def test_lifted_top_boundary_off_the_forest_shape_is_eliminated(monkeypatch):
    # each edge of doubled_one_vertex lies in four triangles, so the lifted
    # top boundary has rows of four entries: no signed union-find applies,
    # the lift eliminates it, and it agrees with the built cover
    complex, eliminated = doubled_one_vertex(), []
    real = deltacomplex.smith_normal_form
    monkeypatch.setattr(deltacomplex, "smith_normal_form",
                        lambda matrix, *args: eliminated.append(matrix.rows) or real(matrix, *args))
    for level in mod_power_tower(complex, 2, 2).levels:
        eliminated.clear()
        lifted = lifted_profile(complex, level.action, PRIMES)
        assert eliminated == [3 * level.degree]
        built = homology_profile(build_cover(complex, level.action)[0], PRIMES)
        assert (lifted.groups, lifted.fp_dims) == (built.groups, built.fp_dims)


def test_lifted_half_edges_on_covers_of_punctured_surfaces(monkeypatch):
    # A surface with a top simplex taken out has free edges, each in one
    # triangle, which stay critical, and the Morse boundaries of its
    # critical triangles meet each once: the lifted top has rows of one
    # entry, the half-edges of _signed_forest, one per sheet.  Through every level of
    # the mod-2 tower (degrees 4 to 256) the lift is the built cover's
    # homology, over Z and over F_p.
    halves, real = [], covers._signed_forest
    monkeypatch.setattr(covers, "_signed_forest",
                        lambda rows, columns, joins, half: halves.append(len(half))
                        or real(rows, columns, joins, half))
    degrees = {}
    for name, complex, levels in (("torus2", builtin("torus2"), 4),
                                  ("klein_bottle", builtin("klein_bottle"), 4),
                                  ("surface2", builtin("surface", genus=2), 2)):
        punctured = without_top_simplex(complex, complex.counts[2] // 2)
        for level in mod_power_tower(punctured, 2, levels).levels:
            halves.clear()
            lifted = lifted_profile(punctured, level.action, PRIMES)
            built = homology_profile(build_cover(punctured, level.action)[0], PRIMES)
            assert (lifted.groups, lifted.fp_dims) == (built.groups, built.fp_dims), name
            assert halves and halves[0] > 0 and halves[0] % level.degree == 0, (name, level.degree)
            degrees[name, level.degree] = list(lifted.groups)
    assert {degree for _, degree in degrees} == {4, 16, 64, 256}
    assert degrees["torus2", 16] == [Z(1), Z(17), Z(0)]


def test_morse_gives_up_a_matching_whose_paths_outgrow_the_base(monkeypatch):
    # Gradient paths through middle pairs branch, and as words they never
    # merge: with no limit on the search for a closed path, one critical
    # triangle's boundary on the degree-16 cover of Sol as a base reached
    # 22880 terms.  Counted before any word is made, such paths pass four
    # times the base's incidences, and the matching is given up for the
    # empty one, whose lifted complex is the cover's own.  A middle pair
    # whose search meets _REACH simplices is refused, so the degree-16 cover
    # keeps a matching; the degree-128 cover still gives its up.  Surfaces
    # keep theirs (a torus cover of degree 64 still has (1, 2, 1) critical cells).
    s = sol()
    actions = {degree: level.action for level in mod_power_tower(s, 2, 7).levels
               if (degree := level.degree) in (16, 128)}
    kept, given_up = build_cover(s, actions[16])[0], build_cover(s, actions[128])[0]
    assert tuple(map(len, deltacomplex._morse(kept)[1])) == (1, 16, 16, 1)
    pairs, critical, _ = deltacomplex._morse(given_up)
    assert any(deltacomplex._matching(given_up))
    assert not any(pairs) and tuple(map(len, critical)) == given_up.counts
    for base in (kept, given_up):
        level = mod_power_tower(base, 2, 1).levels[0]
        lifted = lifted_profile(base, level.action, PRIMES)
        built = homology_profile(build_cover(base, level.action)[0], PRIMES)
        assert (lifted.groups, lifted.fp_dims) == (built.groups, built.fp_dims)
    # With the empty matching, critical cell c on sheet s is the cover's
    # simplex c * degree + s, so the lifted top hands _signed_forest the
    # joins of the built cover's _dual_forest in the same order, and the two
    # Smith forms agree in their divisors and in their unit columns, order
    # included.
    tops, real = [], covers._smith_forms
    monkeypatch.setattr(covers, "_smith_forms", lambda *args: tops.append(real(*args)) or tops[-1])
    for level in mod_power_tower(given_up, 2, 2).levels:
        tops.clear()
        lifted_profile(given_up, level.action, ())
        simplicial = deltacomplex._dual_forest(build_cover(given_up, level.action)[0])[3]
        assert [(top.divisors, top.rows, top.cols, top.unit_columns) for *_, top in tops] == [
            (simplicial.divisors, simplicial.rows, simplicial.cols, simplicial.unit_columns)]
        assert simplicial.unit_columns and level.degree > 1
    monkeypatch.setattr(deltacomplex, "_REACH", 10 ** 9)
    base = build_cover(s, actions[16])[0]
    pairs, critical, _ = deltacomplex._morse(base)
    assert any(deltacomplex._matching(base))
    assert not any(pairs) and tuple(map(len, critical)) == base.counts
    torus = builtin("torus2")
    surface = build_cover(torus, mod_power_tower(torus, 2, 3).levels[-1].action)[0]
    assert tuple(map(len, deltacomplex._morse(surface)[1])) == (1, 2, 1)
