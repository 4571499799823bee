import pytest

from homtower.covers import (
    PermutationAction,
    _verify_certificate,
    abelianization_action,
    action_from_json,
    action_to_json,
    build_cover,
    edge_path_presentation,
    mod_power_tower,
    proves_abelian,
    validate_action,
)
from homtower.deltacomplex import builtin, homology_profile, orient, validate_complex
from homtower.intlinalg import FgAbelianGroup

Z = FgAbelianGroup


def surface2():
    return builtin("surface", genus=2)


# ---------------------------------------------------------------------------
# Presentations

def test_circle_presentation():
    p = edge_path_presentation(builtin("circle"))
    assert p.generator_count == 1
    assert p.relators == ()
    assert p.abelianization() == Z(1)


def test_torus_presentation():
    p = edge_path_presentation(builtin("torus2"))
    assert p.generator_count == 3  # one vertex, three edges, empty tree
    assert len(p.relators) == 2
    assert p.abelianization() == Z(2)


def test_sphere_presentation_has_trivial_abelianization():
    p = edge_path_presentation(builtin("sphere2"))
    assert len(p.tree_edges) == 3
    assert p.generator_count == 3
    assert p.abelianization() == Z(0)


def test_generator_count_formula():
    for name in ("circle", "interval", "sphere2", "torus2", "klein_bottle", "rp2"):
        complex = builtin(name)
        p = edge_path_presentation(complex)
        assert p.generator_count == complex.counts[1] - (complex.counts[0] - 1), name


def test_presentation_abelianization_matches_chain_h1():
    # two independent routes to H_1: relator matrix vs boundary matrices
    names = ("circle", "interval", "sphere2", "torus2", "klein_bottle", "rp2")
    for name in names:
        complex = builtin(name)
        p = edge_path_presentation(complex)
        assert p.abelianization() == homology_profile(complex, (2,)).group(1), name
    s2 = surface2()
    assert edge_path_presentation(s2).abelianization() == Z(4)


def test_presentation_needs_connected_complex():
    from homtower.deltacomplex import DeltaComplex
    two_points = DeltaComplex((2, 0), {1: []})
    with pytest.raises(ValueError, match="connected"):
        edge_path_presentation(two_points)


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


# ---------------------------------------------------------------------------
# Actions

def test_validate_action_circle_cycle():
    p = edge_path_presentation(builtin("circle"))
    action = PermutationAction(3, [(1, 2, 0)])
    assert validate_action(p, action).ok
    assert action.is_transitive()


def test_validate_action_torus_commuting():
    p = edge_path_presentation(builtin("torus2"))
    # both square generators the same transposition forces the diagonal
    # to act trivially
    swap = (1, 0)
    ident = (0, 1)
    for perms in ([swap, swap, ident],):
        action = PermutationAction(2, perms)
        assert validate_action(p, action).ok


def test_validate_action_noncommuting_fails_with_relator():
    p = edge_path_presentation(builtin("torus2"))
    a = (1, 2, 0)
    b = (1, 0, 2)
    action = PermutationAction(3, [a, b, (0, 1, 2)])
    report = validate_action(p, action)
    assert not report.ok
    assert "relator" in report.problems[0]


def _walk_relator(presentation, action, word):
    """Per-sheet reference: follow the word's edge path from every sheet."""
    out = []
    for start in range(action.degree):
        s = start
        for g, e in word:
            perm = action.edge_perms[presentation.generator_edges[g]]
            s = perm[s] if e == 1 else perm.index(s)
        out.append(s)
    return tuple(out)


def test_validate_action_relator_permutation_matches_sheet_walk():
    p = edge_path_presentation(builtin("torus2"))
    action = PermutationAction(3, [(1, 2, 0), (0, 2, 1), (2, 0, 1)])
    word = p.relators[0]
    assert any(e == -1 for _, e in word)
    walked = _walk_relator(p, action, word)
    assert walked != (0, 1, 2)
    report = validate_action(p, action)
    assert not report.ok
    assert report.problems[0].startswith("relator 0 ")
    assert report.problems[0].endswith(f"evaluates to {walked}")


def test_validate_action_tree_edges_must_be_identity():
    p = edge_path_presentation(builtin("rp2"))
    tree_edge = min(p.tree_edges)
    perms = [(0, 1)] * 3
    perms[tree_edge] = (1, 0)
    report = validate_action(p, PermutationAction(2, perms))
    assert not report.ok
    assert "tree edge" in report.problems[0]


def test_action_json_round_trip_and_errors():
    action = PermutationAction(3, [(1, 2, 0), (0, 1, 2)])
    assert action_from_json(action_to_json(action)) == action
    with pytest.raises(ValueError, match="degree"):
        action_from_json({"degree": 0, "edge_perms": []})
    with pytest.raises(ValueError, match=r"edge_perms\[0\]"):
        action_from_json({"degree": 2, "edge_perms": [[0, 0]]})
    with pytest.raises(ValueError):
        PermutationAction(2, [(0, 0)])


# ---------------------------------------------------------------------------
# Covers

def test_circle_triple_cover_is_a_circle():
    circle = builtin("circle")
    cover, projection = build_cover(circle, PermutationAction(3, [(1, 2, 0)]))
    assert cover.counts == (3, 3)
    assert cover.is_connected()
    profile = homology_profile(cover, (2,))
    assert list(profile.groups) == [Z(1), Z(1)]
    assert projection.degree == 3
    assert projection.base_of(1, 2) == 0


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
    p = edge_path_presentation(torus)
    # send one square generator to the swap; the diagonal follows suit
    action = PermutationAction(2, [(1, 0), (0, 1), (1, 0)])
    assert validate_action(p, action).ok
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


def test_cover_simplex_counts_multiply():
    for name in ("torus2", "klein_bottle", "rp2"):
        base = builtin(name)
        action = abelianization_action(base, 2)
        cover, _ = build_cover(base, action)
        assert cover.counts == tuple(c * action.degree for c in base.counts), name


def test_trivial_abelianization_quotient_warns():
    sphere = builtin("sphere2")
    with pytest.warns(UserWarning, match="trivial"):
        action = abelianization_action(sphere, 2)
    assert action.degree == 1
    with pytest.warns(UserWarning):
        assert abelianization_action(builtin("rp2"), 3).degree == 1


def test_abelianization_degrees():
    assert abelianization_action(builtin("circle"), 4).degree == 4
    assert abelianization_action(builtin("torus2"), 2).degree == 4
    assert abelianization_action(builtin("rp2"), 2).degree == 2


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
    # projecting the level-2 cover through the certificate and then to the
    # base agrees with the direct projection, simplex by simplex
    base = builtin("torus2")
    tower = mod_power_tower(base, 2, 2)
    hi = tower.levels[1]
    lo = tower.levels[0]
    phi = tower.certificates[0]
    hi_cover, _ = build_cover(base, hi.action, tower.presentation)
    lo_cover, _ = build_cover(base, lo.action, tower.presentation)
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


def test_nesting_certificate_rejects_swapped_sheets():
    tower = mod_power_tower(builtin("torus2"), 2, 2)
    coarser, finer = tower.levels
    sheet_map = list(tower.certificates[0])
    _verify_certificate(finer, coarser, sheet_map)
    other = next(s for s in range(finer.degree) if sheet_map[s] != sheet_map[0])
    sheet_map[0], sheet_map[other] = sheet_map[other], sheet_map[0]
    with pytest.raises(AssertionError, match="nesting certificate broken"):
        _verify_certificate(finer, coarser, sheet_map)


def test_tower_rejects_bad_parameters():
    with pytest.raises(ValueError):
        mod_power_tower(builtin("circle"), 1, 2)
    with pytest.raises(ValueError):
        mod_power_tower(builtin("circle"), 2, 0)
