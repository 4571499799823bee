import hashlib
import json

import pytest

from homtower import covers, deltacomplex
from homtower.cli import main
from homtower.covers import (
    MAX_WORD_LENGTH,
    Presentation,
    PermutationAction,
    _verify_certificate,
    action_to_json,
    build_cover,
    edge_path_presentation,
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
from homtower.intlinalg import FgAbelianGroup
from oracles import (
    abelianization,
    abelianization_action,
    action_by_decoding,
    chain_h1,
    is_transitive,
    projection_from_faces,
    proves_abelian_reexpanding_every_relator,
    reduction_by_decoding,
)
from test_dimension3 import sol

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
    assert len(p.tree_edges) == 3
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


def test_proves_abelian_verdict_does_not_depend_on_untouched_relators():
    # A Tietze step leaves alone the relators without the eliminated
    # generator; the verdict is that of re-expanding every relator, on
    # one-vertex and many-vertex presentations alike
    complexes = [builtin(name) for name in BUILTIN_NAMES if name not in ("surface", "interval")]
    complexes += [builtin("surface", genus=g) for g in (1, 2, 3)]
    complexes += [cyclic_klein_cover(d) for d in (3, 63)]
    torus = builtin("torus2")
    complexes += [build_cover(torus, level.action)[0]
                  for level in mod_power_tower(torus, 2, 2).levels]
    verdicts = []
    for c in complexes:
        p = edge_path_presentation(c)
        verdicts.append(proves_abelian(p))
        assert verdicts[-1] is proves_abelian_reexpanding_every_relator(p), c
    assert True in verdicts and False in verdicts
    # a relator longer than MAX_WORD_LENGTH that no step touches still ends
    # the search, as it did when every relator was expanded again
    long_word = ((1, 1), (2, 1)) * MAX_WORD_LENGTH
    p = Presentation(3, (), range(3), [((0, 1),), long_word])
    assert proves_abelian(p) is proves_abelian_reexpanding_every_relator(p) is False
    p = Presentation(3, (), range(3), [((0, 1),), ((1, 1), (2, 1), (1, -1), (2, -1))])
    assert proves_abelian(p) is proves_abelian_reexpanding_every_relator(p) is True


# ---------------------------------------------------------------------------
# Actions

def test_validate_action_circle_cycle():
    p = edge_path_presentation(builtin("circle"))
    action = PermutationAction(3, [(1, 2, 0)])
    assert validate_action(p, action).ok
    assert is_transitive(action)


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
    # action_to_json keys the level cache; its JSON rebuilds the action
    action = PermutationAction(3, [(1, 2, 0), (0, 1, 2)])
    obj = action_to_json(action)
    assert obj == {"degree": 3, "edge_perms": [[1, 2, 0], [0, 1, 2]]}
    assert PermutationAction(obj["degree"], obj["edge_perms"]) == action
    with pytest.raises(ValueError, match="degree"):
        PermutationAction(0, [])
    with pytest.raises(ValueError, match="edge 1: .* is not a permutation of 0..1"):
        PermutationAction(2, [(0, 1), (0, 0)])


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
    phi = hi.quotient.reduction_to(lo.quotient)
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


@pytest.mark.parametrize("name, genus, modulus, levels", [
    ("torus2", None, 2, 5),
    ("torus2", None, 3, 3),
    ("klein_bottle", None, 2, 4),
    ("surface", 2, 2, 2),
    ("rp2", None, 2, 3),
])
def test_mixed_radix_actions_match_sheet_by_sheet_decoding(name, genus, modulus, levels):
    # action() and reduction_to() are built as mixed-radix products; the
    # oracle decodes and re-encodes every sheet
    tower = mod_power_tower(builtin(name, genus), modulus, levels)
    assert tower.levels
    for level in tower.levels:
        assert level.action == action_by_decoding(level.quotient)
    for finer_index, finer in enumerate(tower.levels):
        for coarser in tower.levels[:finer_index]:
            assert finer.quotient.reduction_to(coarser.quotient) == \
                reduction_by_decoding(finer.quotient, coarser.quotient)
    if name == "klein_bottle":
        # H_1 = Z + Z/2, so the coordinates have different moduli
        assert tower.levels[-1].quotient.moduli == (2, 16)


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
    sheet_map = list(finer.quotient.reduction_to(coarser.quotient))
    _verify_certificate(finer, coarser, sheet_map)
    other = next(s for s in range(finer.degree) if sheet_map[s] != sheet_map[0])
    sheet_map[0], sheet_map[other] = sheet_map[other], sheet_map[0]
    with pytest.raises(AssertionError, match="nesting certificate broken"):
        _verify_certificate(finer, coarser, sheet_map)


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
