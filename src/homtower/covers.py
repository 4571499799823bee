"""Edge-path group presentations and finite regular covers.

The fundamental group of a connected complex is presented on one generator
per edge outside the spanning tree _spanning_forest (the unit columns of
d_1's Smith form) with one relator per 2-simplex: reading the triangle
boundary as the edge path (face 2)(face 0)(face 1)^-1 and dropping tree edges.

A cover of degree d is described by one sheet permutation per edge (identity
on tree edges) satisfying every relator.  Lifted simplices are anchored at
their vertex-0 corner: the copy (s, sheet) has faces (face_i s, sheet) for
i >= 1, while face 0, whose anchor is vertex 1, lives on the sheet reached
through the [v0, v1] edge of s.  The relator condition is exactly what makes
the lifted face maps close up into a complex.  An action is validated against
the relators when a cover is built from it, and every constructed cover is
certified by its face identities.  The orientation double cover is the cover
of the orientation character.
"""

import math
from itertools import combinations

from .deltacomplex import (
    MAX_SIMPLICES,
    DeltaComplex,
    NotPseudomanifoldError,
    ValidationReport,
    _face_identity_violation,
    _find,
    _orientation,
    _spanning_forest,
    _subface,
    _valid,
    orient,
)
from .intlinalg import IntegerMatrix, smith_normal_form


class Presentation:
    """Edge-path presentation of the fundamental group of a complex."""

    __slots__ = ("edge_count", "tree_edges", "generator_edges", "generator_of_edge",
                 "relators")

    def __init__(self, edge_count, tree_edges, generator_edges, relators):
        self.edge_count = edge_count
        self.tree_edges = frozenset(tree_edges)
        self.generator_edges = tuple(generator_edges)
        self.generator_of_edge = {e: g for g, e in enumerate(self.generator_edges)}
        self.relators = tuple(tuple(word) for word in relators)

    @property
    def generator_count(self):
        return len(self.generator_edges)

    def relator_matrix(self):
        """Exponent sums: generators x relators, presenting H_1."""
        entries = {}
        for j, word in enumerate(self.relators):
            for g, e in word:
                entries[g, j] = entries.get((g, j), 0) + e
        return IntegerMatrix(self.generator_count, len(self.relators), entries)


def edge_path_presentation(complex):
    """Presentation of pi_1 from the 2-skeleton of a connected complex;
    relator t is read off 2-simplex t."""
    _valid(complex)
    if complex.dim < 1:
        raise ValueError("edge-path presentation needs dimension >= 1")
    if not complex.is_connected():
        raise ValueError("edge-path presentation needs a connected complex")
    tree = set(_spanning_forest(complex))
    generator_edges = [e for e in range(complex.counts[1]) if e not in tree]
    gen_of = {e: g for g, e in enumerate(generator_edges)}
    relators = []
    if complex.dim >= 2:
        for f0, f1, f2 in complex.faces[2]:
            word = []
            for e, exp in ((f2, 1), (f0, 1), (f1, -1)):
                if e not in tree:
                    word.append((gen_of[e], exp))
            relators.append(tuple(word))
    return Presentation(complex.counts[1], tree, generator_edges, relators)


# ---------------------------------------------------------------------------
# Conservative abelianness prover (drives the residual flag)

def _free_reduce(word):
    out = []
    for letter in word:
        if out and out[-1][0] == letter[0] and out[-1][1] == -letter[1]:
            out.pop()
        else:
            out.append(letter)
    return out


def _cyclic_reduce(word):
    word = _free_reduce(list(word))
    while len(word) >= 2 and word[0][0] == word[-1][0] and word[0][1] == -word[-1][1]:
        word = _free_reduce(word[1:-1])
    return tuple(word)


def _invert(word):
    return tuple((g, -e) for g, e in reversed(word))


def _canonical_rotation(word):
    if not word:
        return word
    return min(tuple(word[i:] + word[:i]) for i in range(len(word)))


# the longest relator the abelianness prover expands before it gives up
MAX_WORD_LENGTH = 64


def proves_abelian(presentation):
    """Try to certify that the presented group is abelian.

    Tietze-eliminates generators that occur exactly once in some relator,
    then declares success iff at most one generator survives or the relator
    set contains the commutator of every surviving pair (up to rotation and
    inversion).  Each step re-expands and re-reduces only the relators that
    contain the eliminated generator; the others are cyclically reduced
    already.  Gives up (False) once any relator is longer than
    MAX_WORD_LENGTH.  Returns False whenever unsure; never a wrong True.
    """
    words = [_cyclic_reduce(w) for w in presentation.relators]
    live = set(range(presentation.generator_count))
    changed = True
    while changed:
        changed = False
        for idx, word in enumerate(words):
            counts = {}
            for g, _ in word:
                counts[g] = counts.get(g, 0) + 1
            target = next((g for g in counts if counts[g] == 1), None)
            if target is None:
                continue
            pos = next(i for i, (g, _) in enumerate(word) if g == target)
            exp = word[pos][1]
            head, tail = word[:pos], word[pos + 1:]
            replacement = _invert(head) + _invert(tail)  # word for target^exp
            if exp == -1:
                replacement = _invert(replacement)
            new_words = []
            for j, other in enumerate(words):
                if j == idx:
                    continue
                if (target, 1) in other or (target, -1) in other:
                    expanded = []
                    for g, e in other:
                        if g == target:
                            expanded.extend(replacement if e == 1 else _invert(replacement))
                        else:
                            expanded.append((g, e))
                    other = _cyclic_reduce(expanded)
                if len(other) > MAX_WORD_LENGTH:
                    return False
                new_words.append(other)
            words = new_words
            live.discard(target)
            changed = True
            break
    words = [w for w in words if w]
    if len(live) <= 1:
        return True
    canon_words = {_canonical_rotation(w) for w in words}
    live_list = sorted(live)
    for a_idx in range(len(live_list)):
        for b_idx in range(a_idx + 1, len(live_list)):
            g, h = live_list[a_idx], live_list[b_idx]
            comm = ((g, 1), (h, 1), (g, -1), (h, -1))
            wanted = {_canonical_rotation(comm), _canonical_rotation(_invert(comm))}
            if not (wanted & canon_words):
                return False
    return True


def _divides_a_power_of(t, m):
    """Whether every prime factor of t divides m."""
    while (g := math.gcd(t, m)) > 1:
        t //= g
    return t == 1


# ---------------------------------------------------------------------------
# Permutation actions

class PermutationAction:
    """One sheet permutation per edge; perm[s] is the image of sheet s."""

    __slots__ = ("degree", "edge_perms")

    def __init__(self, degree, edge_perms):
        if degree < 1:
            raise ValueError("degree must be >= 1")
        self.degree = degree
        fixed = []
        for e, perm in enumerate(edge_perms):
            perm = tuple(int(x) for x in perm)
            if sorted(perm) != list(range(degree)):
                raise ValueError(f"edge {e}: {perm} is not a permutation of 0..{degree - 1}")
            fixed.append(perm)
        self.edge_perms = tuple(fixed)

    def __eq__(self, other):
        if not isinstance(other, PermutationAction):
            return NotImplemented
        return self.degree == other.degree and self.edge_perms == other.edge_perms

    __hash__ = None

    def __repr__(self):
        return f"<PermutationAction degree={self.degree} on {len(self.edge_perms)} edges>"


def _invert_perm(perm):
    out = [0] * len(perm)
    for i, v in enumerate(perm):
        out[v] = i
    return tuple(out)


def validate_action(presentation, action):
    """Check tree edges act trivially and every relator acts trivially.

    Returns a ValidationReport naming the first failing relator with the
    permutation its word evaluates to.
    """
    problems = []
    if len(action.edge_perms) != presentation.edge_count:
        problems.append(
            f"action covers {len(action.edge_perms)} edges, complex has "
            f"{presentation.edge_count}")
        return ValidationReport(problems)
    identity = tuple(range(action.degree))
    for e in sorted(presentation.tree_edges):
        if action.edge_perms[e] != identity:
            problems.append(f"tree edge {e} must act as the identity, got "
                            f"{action.edge_perms[e]}")
            return ValidationReport(problems)
    for idx, word in enumerate(presentation.relators):
        # evaluated[s] is the sheet that the word's path from sheet s ends on
        evaluated = identity
        for g, e in word:
            perm = action.edge_perms[presentation.generator_edges[g]]
            if e != 1:
                perm = _invert_perm(perm)
            evaluated = tuple(perm[s] for s in evaluated)
        if evaluated != identity:
            pretty = " ".join(
                f"g{g}" if e == 1 else f"g{g}^-1" for g, e in word) or "(empty)"
            problems.append(
                f"relator {idx} (2-simplex {idx}, "
                f"word {pretty}) evaluates to {evaluated}")
            return ValidationReport(problems)
    return ValidationReport(problems)


def action_to_json(action):
    return {"degree": action.degree,
            "edge_perms": [list(p) for p in action.edge_perms]}


# ---------------------------------------------------------------------------
# Cover construction

def build_cover(complex, action):
    """The covering complex described by a validated permutation action.

    Returns (cover, degree); cover simplex (base, sheet) has index
    base * degree + sheet.  The cover's face identities certify it and are
    cached as its validation; a valid base and action fix every index's range.
    """
    report = validate_action(edge_path_presentation(complex), action)
    if not report.ok:
        raise ValueError(f"invalid action: {report.problems[0]}")
    d = action.degree
    counts = [c * d for c in complex.counts]
    faces = {}
    for k in range(1, complex.dim + 1):
        rows = faces[k] = []
        for simplex, (first, *rest) in enumerate(complex.faces[k]):
            lead = action.edge_perms[_subface(complex, k, simplex, (0, 1))]
            rows.extend(zip([first * d + s for s in lead], *(range(f * d, f * d + d) for f in rest)))
    cover = DeltaComplex(counts, faces)
    check = cover._cache["validation"] = ValidationReport(_face_identity_violation(cover))
    if not check.ok:
        raise AssertionError(f"constructed cover failed validation: {check.problems[0]}")
    return cover, d


def orientation_double_cover(complex):
    """The orientable connected double cover of a connected non-orientable
    closed pseudomanifold: (cover, 2) from build_cover of the orientation
    character, simplex (base, sheet) numbered base * 2 + sheet.  It reads
    the incidences and the clashes eta that the complex's orientation pass
    found.  Corners (t, u, p), vertex p of top simplex t on side u of its
    tentative sign, are joined across each (n-1)-simplex (side u to
    u ^ eta) and along both lifts of each tree edge in one top simplex
    through it.  The two lifts of the tree must be the only classes left;
    an edge swaps the sheets iff its ends lie in different ones, in every
    top simplex through it.  The cover must be connected and orient."""
    n = complex.dim
    if n < 1:
        raise ValueError("orientation double cover needs dimension >= 1")
    if orient(complex) is not None:
        raise ValueError("complex is already orientable; its orientation double cover "
                         "would be the disconnected trivial cover")
    if not complex.is_connected():
        raise ValueError("orientation double cover needs a connected complex; this one "
                         f"has {complex.component_count()} components")
    incidences, eta = _orientation(complex)
    width = n + 1  # corner (t, u, p) is number (2t + u) * width + p
    parent = list(range(2 * complex.counts[n] * width))
    for f, ((a, ia), (b, ib)) in enumerate(incidences):
        sides = [p for p in range(width) if p != ia], [q for q in range(width) if q != ib]
        for u in (0, 1):
            for p, q in zip(*sides):
                parent[_find(parent, (2 * a + u) * width + p)] = \
                    _find(parent, (2 * b + (u ^ eta[f])) * width + q)
    ends = [[] for _ in range(complex.counts[1])]  # each edge's end corners on side 0
    for t in range(complex.counts[n]):
        for p, q in combinations(range(width), 2):
            ends[_subface(complex, n, t, (p, q))].append((2 * t * width + p, 2 * t * width + q))
    for e in _spanning_forest(complex):
        for p, q in ends[e][:1]:
            parent[_find(parent, p)] = _find(parent, q)
            parent[_find(parent, p + width)] = _find(parent, q + width)
    roots = {_find(parent, c) for c in range(len(parent))}
    if len(roots) != 2 or _find(parent, 0) == _find(parent, width):
        raise NotPseudomanifoldError(
            f"double cover degenerates in dimension 0: classes of lifted corners: "
            f"{len(roots)}, not the two lifts of a spanning tree")
    perms = []
    for e, pairs in enumerate(ends):
        swaps = {_find(parent, p) != _find(parent, q) for p, q in pairs}
        if len(swaps) != 1:  # no top simplex through e, or two that disagree
            raise NotPseudomanifoldError(
                f"double cover degenerates in dimension 1: the top simplices "
                f"through edge {e} give it {len(swaps)} ways to lift")
        perms.append((1, 0) if swaps.pop() else (0, 1))
    cover, degree = build_cover(complex, PermutationAction(2, perms))
    if not cover.is_connected():
        raise AssertionError("orientation double cover came out disconnected")
    if orient(cover) is None:
        raise AssertionError("orientation double cover came out non-orientable")
    return cover, degree


# ---------------------------------------------------------------------------
# Abelianization quotients and towers

class AbelianQuotient:
    """H_1(X; Z) tensor Z/m in explicit coordinates.

    Coordinates come from one Smith transform of the relator matrix A,
    shared across all moduli, so the reduction maps between the quotients
    for m^i and m^{i+1} are literally componentwise.  It is V_t of A^T:
    U_t A^T V_t = D gives V_t^T A U_t^T = D^T, so V_t^T is a U for A, and
    coordinate i of generator g is entry (g, i) of V_t.  Sheet s is the
    element whose coordinates are the digits of s in the mixed radix of
    `moduli`, the first most significant; the sheet maps act digit by digit,
    so they are built as mixed-radix products (_radix_product), decoding no
    sheet.
    """

    __slots__ = ("modulus", "coords", "moduli", "size", "_strides", "_shifts")

    def __init__(self, presentation, snf, modulus):
        gens = presentation.generator_count
        divisors = snf.divisors
        full = [math.gcd(div, modulus) for div in divisors]
        full.extend([modulus] * (gens - len(divisors)))
        self.modulus = modulus
        self.coords = tuple(i for i, q in enumerate(full) if q > 1)
        self.moduli = tuple(full[i] for i in self.coords)
        self.size = math.prod(self.moduli)
        strides = []
        acc = 1
        for q in reversed(self.moduli):
            strides.append(acc)
            acc *= q
        self._strides = tuple(reversed(strides))
        images = []
        for e in range(presentation.edge_count):
            g = presentation.generator_of_edge.get(e)
            if g is None:
                images.append((0,) * len(self.coords))
            else:
                images.append(tuple(snf.V.entry(g, i) % q
                                    for i, q in zip(self.coords, self.moduli)))
        self._shifts = tuple(images)

    def action(self):
        """The translation action on the quotient's elements: edge e moves
        every sheet by its image in the quotient (size 1 gives the degree-1
        identity action)."""
        perms = [_radix_product([[(v + t) % q * stride for v in range(q)]
                                 for t, q, stride in zip(shift, self.moduli, self._strides)])
                 for shift in self._shifts]
        return PermutationAction(self.size, perms)

    def reduction_to(self, coarser):
        """Sheet map to the quotient for a modulus dividing this one (a
        coordinate it lacks contributes nothing)."""
        target = dict(zip(coarser.coords, zip(coarser.moduli, coarser._strides)))
        tables = []
        for c, q in zip(self.coords, self.moduli):
            q2, stride = target.get(c, (1, 0))
            tables.append([v % q2 * stride for v in range(q)])
        return tuple(_radix_product(tables))


def _radix_product(tables):
    """The sheet map sending each sheet to the sum over coordinates c of
    tables[c][digit c]: each step pairs every image so far with every entry
    of the next table, so the map comes out in sheet order."""
    out = [0]
    for table in tables:
        out = [a + b for a in out for b in table]
    return out


def _presentation_smith(complex):
    """The presentation and the Smith form, V tracked, of its transposed
    relator matrix (see AbelianQuotient)."""
    presentation = edge_path_presentation(complex)
    return presentation, smith_normal_form(presentation.relator_matrix().transpose(), True)


class TowerLevel:
    __slots__ = ("modulus", "degree", "action", "quotient")

    def __init__(self, modulus, action, quotient):
        self.modulus = modulus
        self.degree = action.degree
        self.action = action
        self.quotient = quotient


class Tower:
    """A nested family of finite regular covers from mod-m^i abelianization
    quotients, whose reduction certificates between levels were verified
    when it was built."""

    __slots__ = ("base", "modulus", "levels", "residual", "warnings")

    def __init__(self, base, modulus, levels, residual, warning_list):
        self.base = base
        self.modulus = modulus
        self.levels = tuple(levels)
        self.residual = residual
        self.warnings = tuple(warning_list)

    @property
    def degrees(self):
        return tuple(level.degree for level in self.levels)


def _verify_certificate(finer, coarser, sheet_map):
    """The reduction must intertwine the two levels' actions edgewise."""
    for e, (hi, lo) in enumerate(zip(finer.action.edge_perms, coarser.action.edge_perms)):
        for s in range(finer.degree):
            if sheet_map[hi[s]] != lo[sheet_map[s]]:
                raise AssertionError(
                    f"nesting certificate broken at edge {e}, sheet {s}")


def mod_power_tower(complex, modulus, levels):
    """Tower whose level i covers come from H_1 tensor Z/m^i.

    Levels with a stagnating quotient order truncate the tower with a
    warning; one whose cover would have more than MAX_SIMPLICES
    simplices is refused with ValueError.  Level actions are not validated
    here: build_cover validates an action against the relators when it
    builds the level's cover.  The residual flag is set only when the
    presentation provably gives an abelian group and every torsion
    coefficient of H_1 has all its prime factors dividing m; in that case the
    kernels of pi_1 -> H_1 tensor Z/m^i really do intersect trivially.
    """
    if modulus < 2:
        raise ValueError("modulus must be >= 2")
    if levels < 1:
        raise ValueError("levels must be >= 1")
    presentation, snf = _presentation_smith(complex)
    quotients = []
    warning_list = []
    for i in range(1, levels + 1):
        q = AbelianQuotient(presentation, snf, modulus ** i)
        if quotients and q.size <= quotients[-1].size:
            warning_list.append(
                f"tower truncated at level {len(quotients)}: quotient order "
                f"stagnates at {q.size}")
            break
        if q.size == 1:
            warning_list.append("level 1 quotient is trivial; tower is empty")
            break
        if (simplices := q.size * sum(complex.counts)) > MAX_SIMPLICES:
            raise ValueError(f"tower level {i} has degree {q.size}: its cover would have "
                             f"{simplices} simplices, more than {MAX_SIMPLICES}")
        quotients.append(q)
    tower_levels = [TowerLevel(q.modulus, q.action(), q) for q in quotients]
    for finer, coarser in zip(tower_levels[1:], tower_levels[:-1]):
        _verify_certificate(finer, coarser, finer.quotient.reduction_to(coarser.quotient))
    abelian = proves_abelian(presentation)
    torsion = snf.nontrivial_divisors()
    torsion_ok = all(_divides_a_power_of(t, modulus) for t in torsion)
    residual = abelian and torsion_ok
    return Tower(complex, modulus, tower_levels, residual, warning_list)
