import hashlib
import json
import math
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from homtower import covers, deltacomplex
from homtower.bounds import check_bounds, check_index2_reduction, duality_report
from homtower.cli import main
from homtower.covers import (
    MAX_WORD_LENGTH,
    Presentation,
    PermutationAction,
    TowerLevel,
    _verify_certificate,
    action_to_json,
    build_cover,
    edge_path_presentation,
    lifted_profile,
    mod_power_tower,
    orientation_double_cover,
    proves_abelian,
    validate_action,
)
from homtower.deltacomplex import (
    BUILTIN_NAMES,
    MAX_SIMPLICES,
    DeltaComplex,
    ValidationReport,
    builtin,
    homology_profile,
    orient,
    validate_complex,
)
from homtower.growth import run_tower
from homtower.intlinalg import FgAbelianGroup, IntegerMatrix
from oracles import (
    abelianization,
    abelianization_action,
    action_by_decoding,
    chain_h1,
    is_transitive,
    presentation_smith,
    projection_from_faces,
    proves_abelian_scanning_every_relator,
    quotient_coordinates,
    reduction_by_decoding,
    tracked_smith_transform,
)
from test_dimension3 import delta_product, sol, sol_congruence_action

Z = FgAbelianGroup


def surface2():
    return builtin("surface", genus=2)


# ---------------------------------------------------------------------------
# Presentations

def test_circle_presentation():
    p = edge_path_presentation(builtin("circle"))
    assert p.generator_count == 1
    assert p.relators == ()
    assert abelianization(p) == Z(1)


def test_torus_presentation():
    p = edge_path_presentation(builtin("torus2"))
    assert p.generator_count == 3  # one vertex, three edges, empty tree
    assert len(p.relators) == 2
    assert abelianization(p) == Z(2)


def test_sphere_presentation_has_trivial_abelianization():
    p = edge_path_presentation(builtin("sphere2"))
    assert len(set(range(p.edge_count)) - set(p.generator_edges)) == 3  # a spanning tree
    assert p.generator_count == 3
    assert abelianization(p) == Z(0)


def test_generator_count_formula():
    for name in ("circle", "interval", "sphere2", "torus2", "klein_bottle", "rp2"):
        complex = builtin(name)
        p = edge_path_presentation(complex)
        assert p.generator_count == complex.counts[1] - (complex.counts[0] - 1), name


def test_presentation_abelianization_matches_chain_h1():
    # the relator matrix is d_2 off the forest rows, whose Smith form the
    # profile reads too, so H_1 is checked against the full-basis oracle
    names = ("circle", "interval", "sphere2", "torus2", "klein_bottle", "rp2")
    for name in names:
        complex = builtin(name)
        p = edge_path_presentation(complex)
        assert abelianization(p) == chain_h1(complex), name
    s2 = surface2()
    assert abelianization(edge_path_presentation(s2)) == Z(4)


def test_presentation_needs_connected_complex(tmp_path, capsys):
    from homtower.deltacomplex import DeltaComplex
    for empty_or_two_points in (DeltaComplex((2, 0), {1: []}), DeltaComplex((0, 0), {1: []})):
        with pytest.raises(ValueError, match="connected"):
            edge_path_presentation(empty_or_two_points)
    # no vertex at all: refused with exit 2, not an empty tower or a traceback
    path = tmp_path / "empty.json"
    path.write_text('{"dim": 1, "counts": [0, 0], "faces": {"1": []}}')
    assert main(["tower", str(path)]) == 2
    assert "needs a connected complex" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Abelianness prover

def test_proves_abelian_on_library():
    expectations = {
        "circle": True,
        "torus2": True,
        "sphere2": True,
        "rp2": True,
        "klein_bottle": False,
    }
    for name, expected in expectations.items():
        p = edge_path_presentation(builtin(name))
        assert proves_abelian(p) is expected, name
    assert proves_abelian(edge_path_presentation(surface2())) is False


def cyclic_klein_cover(degree):
    shift = [(i + 1) % degree for i in range(degree)]
    action = PermutationAction(degree, [shift, list(range(degree)), shift])
    return build_cover(builtin("klein_bottle"), action)[0]


def test_presentation_transform_keeps_only_the_coordinate_columns():
    # mod_power_tower reads V of the transposed relator matrix only where
    # d_c > 1 or c >= rank; its divisor-1 columns are empty, so on the
    # degree-255 cyclic Klein cover V has about one nonzero per generator,
    # where the whole tracked transform has 65030
    cover = cyclic_klein_cover(255)
    presentation, snf = presentation_smith(cover)
    assert presentation.generator_count == 511 and snf.nontrivial_divisors() == (2,)
    assert snf.V.nnz() <= presentation.generator_count + 1
    whole = tracked_smith_transform(presentation.relator_matrix().transpose())
    assert whole.nnz() == 65030
    start = snf.divisors.count(1)
    assert snf.V == IntegerMatrix(511, 511, {(i, c): v for (i, c), v in whole.items()
                                             if c >= start})


def test_proves_abelian_verdict_does_not_depend_on_untouched_relators():
    # A Tietze step rewrites only the relators that hold the eliminated
    # generator, found through the generator index, and takes the lowest
    # relator with a singleton from a heap; the verdict is that of scanning
    # and testing every relator at every step, on one-vertex and
    # many-vertex presentations alike: every built-in, its mod-2 covers,
    # and the cyclic Klein covers up to degree 1023, where the scan is
    # quadratic
    complexes = [builtin(name) for name in BUILTIN_NAMES if name not in ("surface", "interval")]
    complexes += [builtin("surface", genus=g) for g in (1, 2, 3)]
    complexes += [build_cover(base, level.action)[0] for base in list(complexes)
                  for level in mod_power_tower(base, 2, 2).levels if level.degree <= 256]
    complexes += [cyclic_klein_cover(2 ** k - 1) for k in range(2, 11)]
    verdicts = []
    for c in complexes:
        p = edge_path_presentation(c)
        verdicts.append(proves_abelian(p))
        assert verdicts[-1] is proves_abelian_scanning_every_relator(p), c
    assert True in verdicts and False in verdicts
    # a relator longer than MAX_WORD_LENGTH that no step touches still ends
    # the search, as it did when every step tested every relator, even
    # where the relators left would prove the group abelian
    long_word = ((1, 1), (2, 1)) * MAX_WORD_LENGTH
    commutator = ((1, 1), (2, 1), (1, -1), (2, -1))
    p = Presentation(3, range(3), [((0, 1),), long_word])
    assert proves_abelian(p) is proves_abelian_scanning_every_relator(p) is False
    p = Presentation(3, range(3), [((0, 1),), long_word, commutator])
    assert proves_abelian(p) is proves_abelian_scanning_every_relator(p) is False
    p = Presentation(3, range(3), [((0, 1),), commutator])
    assert proves_abelian(p) is proves_abelian_scanning_every_relator(p) is True


def words(generators, min_length, max_length):
    letters = st.tuples(st.integers(0, generators - 1), st.sampled_from((1, -1)))
    return st.lists(letters, min_size=min_length, max_size=max_length)


@st.composite
def presentations(draw):
    """Small presentations mixing random words, commutators of generator
    pairs and an occasional word near MAX_WORD_LENGTH."""
    generators = draw(st.integers(1, 5))
    relators = draw(st.lists(st.one_of(
        words(generators, 0, 8),
        st.tuples(st.integers(0, generators - 1), st.integers(0, generators - 1)).map(
            lambda gh: ((gh[0], 1), (gh[1], 1), (gh[0], -1), (gh[1], -1))),
        words(generators, MAX_WORD_LENGTH - 8, MAX_WORD_LENGTH + 4),
    ), max_size=8))
    return Presentation(generators, range(generators), relators)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(presentations())
def test_proves_abelian_matches_the_reference_on_small_presentations(p):
    assert proves_abelian(p) is proves_abelian_scanning_every_relator(p)


# ---------------------------------------------------------------------------
# Actions

def test_validate_action_circle_cycle():
    action = PermutationAction(3, [(1, 2, 0)])
    assert validate_action(builtin("circle"), action).ok
    assert is_transitive(action)


def test_validate_action_torus_commuting():
    torus = builtin("torus2")
    # both square generators the same transposition forces the diagonal
    # to act trivially
    swap = (1, 0)
    ident = (0, 1)
    for perms in ([swap, swap, ident],):
        action = PermutationAction(2, perms)
        assert validate_action(torus, action).ok


def test_validate_action_noncommuting_fails_with_relator():
    a = (1, 2, 0)
    b = (1, 0, 2)
    action = PermutationAction(3, [a, b, (0, 1, 2)])
    report = validate_action(builtin("torus2"), action)
    assert not report.ok
    assert report.problems[0].startswith("2-simplex 0, sheet ")


def _walk_triangle(action, triangle, start):
    """Per-sheet reference: the sheets that the path along face 2 and then
    face 0 of a triangle, and the path along its face 1, reach from `start`."""
    f0, f1, f2 = triangle
    perms = action.edge_perms
    return perms[f0][perms[f2][start]], perms[f1][start]


def _open_sheets(base, action):
    """The (2-simplex, sheet) pairs, in order, whose two walks part."""
    return [(t, s) for t, triangle in enumerate(base.faces[2]) for s in range(action.degree)
            if len(set(_walk_triangle(action, triangle, s))) == 2]


def test_validate_action_relator_permutation_matches_sheet_walk():
    # edge 2 is edge 1 then edge 0, so triangle 0 closes; triangle 1 asks
    # that edges 0 and 1 commute, which they do on sheet 0 alone
    torus = builtin("torus2")
    action = PermutationAction(4, [(0, 1, 3, 2), (0, 2, 1, 3), (0, 3, 1, 2)])
    t, s = _open_sheets(torus, action)[0]
    assert (t, s) == (1, 1)
    (f0, f1, f2), (around, along) = torus.faces[2][t], _walk_triangle(action, torus.faces[2][t], s)
    report = validate_action(torus, action)
    assert report.problems == [f"2-simplex {t}, sheet {s}: edges {f2} then {f0} reach "
                               f"sheet {around}, edge {f1} reaches {along}"]


def test_validate_action_lets_a_tree_edge_act():
    # the tree edge 0 of rp2 swaps the sheets, and so does edge 1: both
    # triangles close on both sheets, and the cover is two copies of rp2
    rp2 = builtin("rp2")
    assert deltacomplex._spanning_forest(rp2) == (0,)
    swap, ident = (1, 0), (0, 1)
    action = PermutationAction(2, [swap, swap, ident])
    assert validate_action(rp2, action).ok
    cover, _ = build_cover(rp2, action)
    assert validate_complex(cover).ok and cover.component_count() == 2
    # the tree edge alone swapping leaves the first triangle open
    report = validate_action(rp2, PermutationAction(2, [swap, ident, ident]))
    assert report.problems == ["2-simplex 0, sheet 0: edges 2 then 1 reach sheet 0, "
                               "edge 0 reaches 1"]


def test_build_cover_takes_a_disconnected_base():
    # no presentation is read, so a base of two circles is covered as it is
    two_circles = DeltaComplex((2, 2), {1: [(0, 0), (1, 1)]})
    assert not two_circles.is_connected()
    action = PermutationAction(3, [(1, 2, 0), (0, 2, 1)])
    assert validate_action(two_circles, action).ok
    cover, degree = build_cover(two_circles, action)
    assert validate_complex(cover).ok
    assert (cover.counts, degree, cover.component_count()) == ((6, 6), 3, 3)


def test_build_cover_refuses_an_action_of_the_wrong_length():
    torus = builtin("torus2")
    with pytest.raises(ValueError, match="invalid action: action covers 2 edges, "
                                         "complex has 3"):
        build_cover(torus, PermutationAction(2, [(0, 1)] * 2))
    assert validate_action(DeltaComplex((1,), {}), PermutationAction(2, [])).ok
    assert validate_action(DeltaComplex((1,), {}), PermutationAction(2, [(0, 1)])).problems == [
        "action covers 1 edges, complex has 0"]


def test_action_json_round_trip_and_errors():
    # action_to_json keys the level cache; its JSON rebuilds the action
    action = PermutationAction(3, [(1, 2, 0), (0, 1, 2)])
    obj = action_to_json(action)
    assert obj == {"degree": 3, "edge_perms": [[1, 2, 0], [0, 1, 2]]}
    assert PermutationAction(obj["degree"], obj["edge_perms"]) == action
    with pytest.raises(ValueError, match="degree"):
        PermutationAction(0, [])
    with pytest.raises(ValueError, match="edge 1: .* is not a permutation of 0..1"):
        PermutationAction(2, [(0, 1), (0, 0)])


def test_permutation_action_refuses_sheets_that_are_not_ints():
    # int() used to accept [0.9, 1.2] as the identity and [True, False] as
    # a swap; a bool or a float names no sheet and counts no sheets
    for perm in ([0.9, 1.2], [0.0, 1.0], [True, False], [1, False], ["0", "1"]):
        with pytest.raises(ValueError, match="edge 0: .* is not a permutation of 0..1"):
            PermutationAction(2, [perm])
    for degree in (2.0, True):
        with pytest.raises(ValueError, match="is not an int >= 1"):
            PermutationAction(degree, [])
    assert PermutationAction(2, [[1, 0], range(2)]).edge_perms == ((1, 0), (0, 1))


# ---------------------------------------------------------------------------
# Covers

def test_circle_triple_cover_is_a_circle():
    circle = builtin("circle")
    cover, degree = build_cover(circle, PermutationAction(3, [(1, 2, 0)]))
    assert cover.counts == (3, 3)
    assert cover.is_connected()
    profile = homology_profile(cover, (2,))
    assert list(profile.groups) == [Z(1), Z(1)]
    assert degree == 3
    # the faces alone project cover simplex (base, sheet) to its base
    projection = projection_from_faces(circle, cover, degree)
    assert projection == [[0, 0, 0], [0, 0, 0]]


def test_disconnected_cover_from_trivial_action():
    circle = builtin("circle")
    cover, _ = build_cover(circle, PermutationAction(2, [(0, 1)]))
    assert cover.counts == (2, 2)
    assert cover.component_count() == 2


def test_circle_five_fold_cover_keeps_circle_homology():
    circle = builtin("circle")
    cover, _ = build_cover(circle, PermutationAction(5, [(1, 2, 3, 4, 0)]))
    assert cover.is_connected()
    assert list(homology_profile(cover, (2,)).groups) == [Z(1), Z(1)]


def test_torus_degree2_cover_is_a_torus():
    torus = builtin("torus2")
    # send one square generator to the swap; the diagonal follows suit
    action = PermutationAction(2, [(1, 0), (0, 1), (1, 0)])
    assert validate_action(torus, action).ok
    cover, _ = build_cover(torus, action)
    assert cover.euler_characteristic() == 0
    profile = homology_profile(cover, (2,))
    assert list(profile.groups) == [Z(1), Z(2), Z(1)]


def test_torus_degree4_cover_is_a_torus():
    torus = builtin("torus2")
    action = abelianization_action(torus, 2)
    assert action.degree == 4
    cover, _ = build_cover(torus, action)
    assert cover.euler_characteristic() == 0
    assert cover.is_connected()
    profile = homology_profile(cover, (2,))
    assert list(profile.groups) == [Z(1), Z(2), Z(1)]
    assert orient(cover) is not None


def test_surface2_mod2_cover_has_rank_34():
    base = surface2()
    action = abelianization_action(base, 2)
    assert action.degree == 16
    cover, _ = build_cover(base, action)
    assert cover.euler_characteristic() == -32
    assert validate_complex(cover).ok
    profile = homology_profile(cover, (2,))
    assert profile.betti(1) == 34
    assert profile.group(1) == Z(34)


def test_cover_validation_report_is_cached():
    cover, _ = build_cover(builtin("torus2"), abelianization_action(builtin("torus2"), 2))
    first = validate_complex(cover)
    assert first.ok
    assert validate_complex(cover) is first


def test_every_cover_passes_the_full_gate_on_a_fresh_copy():
    # build_cover certifies a cover by its face identities alone; the shape
    # pass of validate_complex must pass a copy that shares no cache
    from test_deltacomplex import klein_cyclic_cover
    made = [(base, build_cover(base, level.action))
            for base, modulus, levels in ((builtin("torus2"), 2, 3), (surface2(), 2, 1),
                                          (builtin("klein_bottle"), 2, 1),
                                          (builtin("rp2"), 2, 1), (builtin("circle"), 5, 1))
            for level in mod_power_tower(base, modulus, levels).levels]
    made += [(builtin("klein_bottle"), (klein_cyclic_cover(d), d)) for d in (3, 63)]
    made += [(builtin(name), orientation_double_cover(builtin(name)))
             for name in ("klein_bottle", "rp2")]
    assert [d for _, (_, d) in made] == [4, 16, 64, 16, 4, 2, 5, 3, 63, 2, 2]
    for base, (cover, degree) in made:
        fresh = DeltaComplex(cover.counts, {k: [list(row) for row in cover.faces[k]]
                                            for k in range(1, cover.dim + 1)})
        assert validate_complex(fresh).ok, cover
        assert fresh == cover
        assert cover.counts == tuple(c * degree for c in base.counts)


def test_cover_certificate_catches_a_bad_construction(monkeypatch):
    # with the relator check out of the way, an action that breaks the
    # torus relator d_0 d_1 = d_0 d_0 still fails the cover's face identities
    monkeypatch.setattr(covers, "validate_action", lambda *_: ValidationReport([]))
    bad = PermutationAction(3, [(1, 0, 2), (0, 2, 1), (0, 1, 2)])
    with pytest.raises(AssertionError, match=r"constructed cover failed validation: face "
                                             r"identity d_0 d_1 = d_0 d_0 fails on 2-simplex 0"):
        build_cover(builtin("torus2"), bad)


@st.composite
def small_actions(draw):
    """(base, action) on at most 4 sheets, for torus2, klein_bottle, rp2 and
    the 3-dimensional Sol bundle: either every edge a random permutation, or
    a level-1 action of a mod-m tower (valid by construction) with its sheets
    relabelled at random and, half the time, one edge redrawn."""
    base = draw(st.sampled_from([builtin("torus2"), builtin("klein_bottle"),
                                 builtin("rp2"), sol()]))
    edges = base.counts[1]
    if draw(st.booleans()):
        degree = draw(st.integers(1, 4))
        return base, PermutationAction(degree, [draw(st.permutations(range(degree)))
                                                for _ in range(edges)])
    levels = [level for m in (2, 3, 4) for level in mod_power_tower(base, m, 1).levels
              if level.degree <= 4]
    level = draw(st.sampled_from(levels))
    label = draw(st.permutations(range(level.degree)))
    perms = list(_solved_action(base, dict(enumerate(level.action.edge_perms)), label).edge_perms)
    if draw(st.booleans()):
        perms[draw(st.integers(0, edges - 1))] = draw(st.permutations(range(level.degree)))
    return base, PermutationAction(level.degree, perms)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(small_actions())
def test_validate_action_is_exactly_the_cover_face_identities(drawn):
    # With the gate out of the way, build_cover still certifies what it
    # built by the cover's face identities; the gate passes exactly the
    # actions whose covers pass them, and its first bad (triangle, sheet)
    # is the cover's first bad 2-simplex
    base, action = drawn
    report = validate_action(base, action)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(covers, "validate_action", lambda *_: ValidationReport([]))
        try:
            build_cover(base, action)
            failure = None
        except AssertionError as caught:
            failure = str(caught)
    assert report.ok is (failure is None)
    if failure is not None:
        t, s = _open_sheets(base, action)[0]
        assert report.problems[0].startswith(f"2-simplex {t}, sheet {s}: ")
        assert failure.startswith("constructed cover failed validation: face identity d_0 d_1 "
                                  f"= d_0 d_0 fails on 2-simplex {t * action.degree + s}: ")


def test_tower_covers_skip_the_shape_pass(monkeypatch):
    tower = mod_power_tower(builtin("torus2"), 2, 3)
    calls = []
    entry_problems = deltacomplex._entry_problems
    monkeypatch.setattr(deltacomplex, "_entry_problems",
                        lambda complex: calls.append(complex) or entry_problems(complex))
    assert run_tower(tower).degrees == (4, 16, 64)
    assert calls == []


def test_cover_simplex_counts_multiply():
    for name in ("torus2", "klein_bottle", "rp2"):
        base = builtin(name)
        action = abelianization_action(base, 2)
        cover, _ = build_cover(base, action)
        assert cover.counts == tuple(c * action.degree for c in base.counts), name


def test_trivial_abelianization_quotient_warns():
    for complex, modulus in ((builtin("sphere2"), 2), (builtin("rp2"), 3)):
        assert abelianization_action(complex, modulus).degree == 1
        tower = mod_power_tower(complex, modulus, 1)
        assert tower.degrees == ()
        assert tower.warnings == ("level 1 quotient is trivial; tower is empty",)


def test_abelianization_degrees():
    assert abelianization_action(builtin("circle"), 4).degree == 4
    assert abelianization_action(builtin("torus2"), 2).degree == 4
    assert abelianization_action(builtin("rp2"), 2).degree == 2


@st.composite
def commuting_torus_actions(draw):
    """(sigma, tau, c) on at most 40 sheets: sigma the cycles of a random
    partition of the sheets, tau a power of each of those cycles, so the two
    commute and the c cycles are the orbits of <sigma, tau>."""
    degree = draw(st.integers(1, 40))
    sheets = draw(st.permutations(range(degree)))
    cuts = draw(st.lists(st.booleans(), min_size=degree - 1, max_size=degree - 1))
    ends = [i for i, cut in enumerate(cuts, start=1) if cut] + [degree]
    sigma, tau = [None] * degree, [None] * degree
    for start, end in zip([0] + ends, ends):
        cycle = sheets[start:end]
        power = draw(st.integers(0, len(cycle) - 1))
        for i, s in enumerate(cycle):
            sigma[s] = cycle[(i + 1) % len(cycle)]
            tau[s] = cycle[(i + power) % len(cycle)]
    return sigma, tau, len(ends)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(commuting_torus_actions())
def test_random_torus_covers_are_tori(drawn):
    # The torus's triangles read e1 e0 = e2 = e0 e1, so (sigma, tau, sigma tau)
    # with sigma tau = tau sigma is an action, and each of its c orbits is
    # covered by a torus: H = (Z^c, Z^2c, Z^c) with no torsion, and the same
    # F_p dimensions.
    sigma, tau, c = drawn
    base = builtin("torus2")
    cover, _ = build_cover(base, PermutationAction(len(sigma), [
        sigma, tau, [sigma[t] for t in tau]]))
    profile = homology_profile(cover, (2, 3, 5))
    expected = [c, 2 * c, c]
    assert [(g.free_rank, g.torsion) for g in profile.groups] == [(b, ()) for b in expected]
    assert all([profile.fp_dim(k, p) for k in range(3)] == expected for p in (2, 3, 5))
    # transfer: the rational homology of the base injects into the cover's
    base_profile = homology_profile(base, ())
    assert all(profile.betti(k) >= base_profile.betti(k) for k in range(3))
    assert orient(cover) is not None
    assert check_bounds(cover).all_pass
    assert all(duality_report(cover).values())


def _solve_edges(base, known):
    """Every edge's sheet permutation of a one-vertex 2-complex, from those
    in `known`, solved through the triangles: the path along face 2 and
    then face 0 of a triangle is its face 1, so p1[s] = p0[p2[s]]."""
    perms = dict(known)
    while len(perms) < base.counts[1]:
        for f0, f1, f2 in base.faces[2]:
            p0, p1, p2 = perms.get(f0), perms.get(f1), perms.get(f2)
            if p1 is None and None not in (p0, p2):
                perms[f1] = [p0[s] for s in p2]
            elif p0 is None and None not in (p1, p2):
                perms[f0] = [None] * len(p1)
                for s, image in zip(p2, p1):
                    perms[f0][s] = image
            elif p2 is None and None not in (p0, p1):
                inverse = {image: s for s, image in enumerate(p0)}
                perms[f2] = [inverse[image] for image in p1]
    return [perms[e] for e in range(base.counts[1])]


def _solved_action(base, known, label):
    """The action of _solve_edges(base, known) with sheet s renamed label[s]."""
    perms = []
    for perm in _solve_edges(base, known):
        relabelled = [None] * len(label)
        for s, image in enumerate(perm):
            relabelled[label[s]] = label[image]
        perms.append(relabelled)
    return PermutationAction(len(label), perms)


@st.composite
def klein_bottle_or_genus2_actions(draw):
    """(base, action) for a connected cover of degree at most 24.  The Klein
    bottle's triangles give e1 e0 e1 = e0, so e0 a reflection x -> a - x and
    e1 a rotation x -> x + b of Z/n act; they are transitive when gcd(b, n)
    is 1, or 2 with a odd.  On the genus-2 surface a1, b1, a2, b2 -> x, y,
    y, x satisfies [a1, b1][a2, b2] = 1 for any x, y in S_d.  The remaining
    edges are solved from the triangles, and sheets are relabelled at random."""
    if draw(st.booleans()):
        base, n = builtin("klein_bottle"), draw(st.integers(1, 24))
        a = draw(st.integers(0, n - 1))
        b = draw(st.sampled_from([b for b in range(n) if math.gcd(b, n) == 1
                                  or (math.gcd(b, n) == 2 and a % 2)]))
        known = {0: [(a - s) % n for s in range(n)], 1: [(s + b) % n for s in range(n)]}
    else:
        base, n = surface2(), draw(st.integers(1, 24))
        x, y = draw(st.permutations(range(n))), draw(st.permutations(range(n)))
        known = {0: x, 1: y, 2: y, 3: x}
    action = _solved_action(base, known, draw(st.permutations(range(n))))
    assume(is_transitive(action))
    return base, action


@settings(derandomize=True, max_examples=100, deadline=None)
@given(klein_bottle_or_genus2_actions())
def test_random_klein_bottle_and_genus2_covers(drawn):
    # No closed form: the checks are those every finite cover satisfies.
    base, action = drawn
    assert validate_action(base, action).ok
    cover, degree = build_cover(base, action)
    assert cover.euler_characteristic() == degree * base.euler_characteristic()
    primes = (2, 3, 5)
    profile, base_profile = homology_profile(cover, primes), homology_profile(base, ())
    for k in range(3):
        assert profile.betti(k) >= base_profile.betti(k)  # transfer over Q
        assert all(profile.fp_dim(k, p) >= profile.betti(k) for p in primes)
    if orient(cover) is not None:
        assert check_bounds(cover, primes).all_pass
        assert all(duality_report(cover).values())
    else:
        assert check_index2_reduction(cover, primes).all_pass


@st.composite
def three_torus_actions(draw):
    """(base, action, c) on at most 24 sheets: the base is torus x circle,
    whose edges 0, 1 and 2 (the circle's edge and the torus's edges 0 and
    1) translate G = Z/a x Z/b x Z/e by three drawn elements, so they
    commute; c counts the cosets of the subgroup H they generate, the
    orbits.  The other edges are solved from the triangles, and sheets are
    relabelled at random."""
    base = delta_product(builtin("torus2"), builtin("circle"))
    a = draw(st.integers(1, 24))
    b = draw(st.integers(1, 24 // a))
    sizes = (a, b, draw(st.integers(1, 24 // (a * b))))
    sheets = list(product(*map(range, sizes)))
    gens = [draw(st.sampled_from(sheets)) for _ in range(3)]

    def shift(x, g):
        return tuple((u + v) % m for u, v, m in zip(x, g, sizes))

    index = {x: s for s, x in enumerate(sheets)}
    known = {e: [index[shift(x, g)] for x in sheets] for e, g in enumerate(gens)}
    span = {sheets[0]}
    while len(grown := span | {shift(h, g) for h in span for g in gens}) > len(span):
        span = grown
    action = _solved_action(base, known, draw(st.permutations(range(len(sheets)))))
    return base, action, len(sheets) // len(span)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(three_torus_actions())
def test_random_three_torus_covers_are_three_tori(drawn):
    # pi_1 of the 3-torus is Z^3, so three commuting permutations of edges
    # 0, 1 and 2 extend to an action, and each of its c orbits is covered by
    # a 3-torus: H = (Z^c, Z^3c, Z^3c, Z^c) with no torsion, and the same F_p
    # dimensions.  d_2 is eliminated over Z, and cap duality reads
    # integer_kernel in degrees 1 and 2, which no surface cover reaches.
    base, action, c = drawn
    assert base.counts == (1, 7, 12, 6)
    assert validate_action(base, action).ok
    cover, _ = build_cover(base, action)
    primes = (2, 3, 5)
    profile = homology_profile(cover, primes)
    expected = [c, 3 * c, 3 * c, c]
    assert [(g.free_rank, g.torsion) for g in profile.groups] == [(b, ()) for b in expected]
    assert all([profile.fp_dim(k, p) for k in range(4)] == expected for p in primes)
    assert orient(cover) is not None
    assert check_bounds(cover, primes).all_pass
    assert all(duality_report(cover).values())


def torus_action(drawn):
    """The action of commuting_torus_actions' (sigma, tau, c) on torus2."""
    sigma, tau, _ = drawn
    return builtin("torus2"), PermutationAction(len(sigma), [sigma, tau, [sigma[t] for t in tau]])


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.one_of(
    commuting_torus_actions().map(torus_action),
    klein_bottle_or_genus2_actions(),
    three_torus_actions().map(lambda drawn: drawn[:2]),
    st.sampled_from([(2, 3), (2, 6), (3, 4), (4, 3), (3, 8), (5, 10)]).map(
        lambda nr: (sol(), sol_congruence_action(*nr)))))
def test_lifted_profile_is_the_homology_of_the_built_cover(drawn):
    # Two different chain complexes of one cover: the base's Morse complex
    # lifted sheet by sheet through the action, and the simplicial cover
    # that build_cover makes (disconnected ones included); their integral
    # groups and F_p dimensions must agree.
    base, action = drawn
    primes = (2, 3, 5)
    lifted = lifted_profile(base, action, primes)
    built = homology_profile(build_cover(base, action)[0], primes)
    assert lifted.groups == built.groups and lifted.fp_dims == built.fp_dims


def test_run_tower_builds_no_cover(monkeypatch):
    # every level's homology comes from the base's Morse complex lifted
    # through the level's action, so no complex is made: a cover is a
    # DeltaComplex whichever name reaches build_cover
    tower, made = mod_power_tower(builtin("torus2"), 2, 3), []
    real = DeltaComplex.__init__
    monkeypatch.setattr(DeltaComplex, "__init__",
                        lambda self, *args, **kwargs: made.append(args[0]) or real(self, *args, **kwargs))
    report = run_tower(tower, primes=(2, 3, 5))
    assert made == []
    assert report.degrees == (4, 16, 64)
    assert all(level.betti_q == (1, 2, 1) and level.torsion_orders == (1, 1, 1)
               and all(dims == (1, 2, 1) for dims in level.fp_dims.values())
               for level in report.levels)


def test_lifted_profile_refuses_an_invalid_action():
    torus = builtin("torus2")
    with pytest.raises(ValueError, match="invalid action: action covers 2 edges, complex has 3"):
        lifted_profile(torus, PermutationAction(2, [(1, 0), (0, 1)]))
    with pytest.raises(ValueError, match=r"invalid action: 2-simplex 0, sheet 0: "):
        lifted_profile(torus, PermutationAction(3, [(1, 2, 0), (1, 0, 2), (0, 1, 2)]))


# ---------------------------------------------------------------------------
# Towers

def test_circle_tower():
    tower = mod_power_tower(builtin("circle"), 2, 3)
    assert tower.degrees == (2, 4, 8)
    assert tower.residual is True
    assert tower.warnings == ()


def test_torus_tower():
    tower = mod_power_tower(builtin("torus2"), 2, 3)
    assert tower.degrees == (4, 16, 64)
    assert tower.residual is True


def test_surface_tower_not_proven_residual():
    tower = mod_power_tower(surface2(), 2, 2)
    assert tower.degrees == (16, 256)
    assert tower.residual is False


def test_rp2_tower_truncates():
    tower = mod_power_tower(builtin("rp2"), 2, 3)
    assert tower.degrees == (2,)
    assert any("stagnates" in w for w in tower.warnings)
    # pi_1 = Z/2 is abelian and its torsion is a power of 2, so the chain
    # really is residual (it reaches the trivial subgroup)
    assert tower.residual is True


def test_rp2_tower_mod3_is_empty():
    tower = mod_power_tower(builtin("rp2"), 3, 2)
    assert tower.degrees == ()
    assert any("trivial" in w for w in tower.warnings)


def test_tower_functoriality_exhaustive():
    # projecting the level-2 cover through its sheet map and then to the
    # base agrees with the direct projection, simplex by simplex
    for name, modulus in (("torus2", 2), ("klein_bottle", 4)):
        _check_sheet_map_projects(mod_power_tower(builtin(name), modulus, 2))


def _check_sheet_map_projects(tower):
    base = tower.base
    lo, hi = tower.levels
    phi = hi.sheet_map
    hi_cover, _ = build_cover(base, hi.action)
    lo_cover, _ = build_cover(base, lo.action)
    d_hi, d_lo = hi.degree, lo.degree

    def push(k, idx):
        b, s = divmod(idx, d_hi)
        return b * d_lo + phi[s]

    for k in range(base.dim + 1):
        for idx in range(hi_cover.counts[k]):
            assert push(k, idx) // d_lo == idx // d_hi  # same base simplex
    for k in range(1, base.dim + 1):
        for idx in range(hi_cover.counts[k]):
            mapped = push(k, idx)
            for i in range(k + 1):
                assert push(k - 1, hi_cover.faces[k][idx][i]) == \
                    lo_cover.faces[k][mapped][i], (k, idx, i)


# the moduli of the top level of each tower below, by base and modulus
TOP_MODULI = {
    ("torus2", 2): (32, 32),
    ("torus2", 3): (27, 27),
    ("klein_bottle", 2): (2, 16),
    ("klein_bottle", 4): (2, 64),
    ("klein_bottle", 6): (2, 36),
    ("surface", 2): (4, 4, 4, 4),
    ("rp2", 2): (2,),
    ("rp2", 4): (2,),
    ("circle", 6): (216,),
}


@pytest.mark.parametrize("name, genus, modulus, levels", [
    ("torus2", None, 2, 5),
    ("torus2", None, 3, 3),
    ("klein_bottle", None, 2, 4),
    ("klein_bottle", None, 4, 3),
    ("klein_bottle", None, 6, 2),
    ("surface", 2, 2, 2),
    ("rp2", None, 2, 3),
    ("rp2", None, 4, 3),
    ("circle", None, 6, 3),
])
def test_mixed_radix_actions_match_sheet_by_sheet_decoding(name, genus, modulus, levels):
    # the actions and sheet maps are built as mixed-radix products on
    # coordinates fixed once for the tower; the oracle reads each level's
    # quotient from the Smith form for that level's modulus alone, and
    # decodes and re-encodes every sheet
    tower = mod_power_tower(builtin(name, genus), modulus, levels)
    assert tower.levels
    quotients = [quotient_coordinates(tower.base, level.modulus) for level in tower.levels]
    assert len({coords for coords, _, _ in quotients}) == 1
    # on the Klein bottle the torsion coordinate stays at 2 as the free one grows
    assert quotients[-1][1] == TOP_MODULI[name, modulus]
    for level, (_, moduli, shifts) in zip(tower.levels, quotients):
        assert level.action == action_by_decoding(moduli, shifts)
    assert tower.levels[0].sheet_map is None
    for i, finer in enumerate(tower.levels):
        # the sheet maps composed down to every coarser level
        composed = tuple(range(finer.degree))
        for j in range(i, 0, -1):
            composed = tuple(map(tower.levels[j].sheet_map.__getitem__, composed))
            assert composed == reduction_by_decoding(quotients[i], quotients[j - 1])
    if name == "rp2":
        assert tower.degrees == (2,) and "stagnates at 2" in tower.warnings[0]


# sha256 of json.dumps(action_to_json(action)) for each level of four mod-2
# towers, recorded when the quotient coordinates were read from the U
# transform of the relator matrix itself.  run_tower's on-disk cache is keyed
# on this JSON, so equal digests keep the entries written then valid.
TOWER_ACTION_DIGESTS = {
    "torus2": (
        "732db7961e1663a75704662f3cd311c0bcd4a13995063cf0234943c3d7473487",
        "80a4a8c6abaf5407ffd7cd5e2c78f849bac12c6e28a3de0155e55f2f1bdc6efa",
        "9cf6b6c9a910f6441e29605dac8a9eb07fbcb26d2a59e770dd1a2fed61bcf0b1",
        "937b27c2eb73315c693c5e17f2db2f49adcb7b4bd92410297461779f81ad7f9b",
    ),
    "klein_bottle": (
        "732db7961e1663a75704662f3cd311c0bcd4a13995063cf0234943c3d7473487",
        "294a6c6a2aac9d7b1416e4bfb943772d889bd8fd44b32241de898d89241c0cd1",
        "7d37fa385356c82cf70fc5595c395a4ba37f141da64de4d6f69fae89d0795063",
        "94058a6bd4078cad939702cb725c887854af8921504e598a7615f25817895b86",
        "5596fb00b57833f5665ffabc66ea435b4914eb66744477366d80e07261ee287f",
        "dbc705f0b8a96e91b51973041b5881c60aca897ad84c224b98574d6165695a0b",
    ),
    "surface2": (
        "3ac47f54e1a9e2cb9d95d398944eec21de272060734929059f9cf3564eafe871",
        "a827966dec404cbca5484b0b0d4546ea83e78a25c15d6d1ff80c1670c190b4f9",
    ),
    "sol": (
        "c63b707ef868da186791350c4d636a7b4691c3220092f19934a3f85a5d731b3d",
        "a974d23586f8d7e5d0c74c8d41a8572a05355323b4a055f87c8fd29bbed102ac",
        "af804552dc4c6c81dd8f42c63ddb45573c69a9f4cc7723f241a8eab7bb43332d",
        "e435c51fc6f351a0e0c2c0026202907a24149b086b4f7a445a8baf29b83af8bc",
        "562b7b9ed271b516e9b60a981665bf1eb9e76c2afb922567d88380ee69003d9b",
        "d3df221b51fa874b31def728481f8bb1a91f5ffd28dbb58005639f201901b62e",
        "bf1007d65f4952d3c210e6f41a01d9d5c0edb8f205286712109c170e87792586",
        "e4e1acf4a8b97be01eb23d980576e9b6e429d9c4592cfe499a6f0f201cbdec8a",
    ),
}

def test_tower_actions_match_the_recorded_digests():
    complexes = {"torus2": (builtin("torus2"), 4), "klein_bottle": (builtin("klein_bottle"), 6),
                 "surface2": (surface2(), 2), "sol": (sol(), 8)}
    for name, (complex, levels) in complexes.items():
        digests = tuple(hashlib.sha256(json.dumps(action_to_json(level.action)).encode())
                        .hexdigest() for level in mod_power_tower(complex, 2, levels).levels)
        assert digests == TOWER_ACTION_DIGESTS[name], name


def test_nesting_certificate_rejects_swapped_sheets():
    tower = mod_power_tower(builtin("torus2"), 2, 2)
    coarser, finer = tower.levels
    _verify_certificate(finer, coarser)
    sheet_map = list(finer.sheet_map)
    other = next(s for s in range(finer.degree) if sheet_map[s] != sheet_map[0])
    sheet_map[0], sheet_map[other] = sheet_map[other], sheet_map[0]
    # the first edge and sheet that a sheet-by-sheet check finds broken
    e, s = next((e, s) for e, (hi, lo) in enumerate(zip(finer.action.edge_perms,
                                                       coarser.action.edge_perms))
                for s in range(finer.degree) if sheet_map[hi[s]] != lo[sheet_map[s]])
    with pytest.raises(AssertionError, match=f"nesting certificate broken at edge {e}, sheet {s}$"):
        _verify_certificate(TowerLevel(finer.modulus, finer.action, sheet_map), coarser)


def test_tower_refuses_covers_too_large_to_build():
    # H_1 of the genus-17 surface is Z^34: level 1 of its mod-2 tower has
    # 2^34 sheets, refused before any sheet permutation is built
    with pytest.raises(ValueError, match=r"tower level 1 has degree 17179869184: "
                                         r"its cover would have \d+ simplices"):
        mod_power_tower(builtin("surface", genus=17), 2, 1)
    assert MAX_SIMPLICES >= 4 ** 8 * sum(builtin("torus2").counts)


def test_tower_rejects_bad_parameters():
    with pytest.raises(ValueError):
        mod_power_tower(builtin("circle"), 1, 2)
    with pytest.raises(ValueError):
        mod_power_tower(builtin("circle"), 2, 0)
