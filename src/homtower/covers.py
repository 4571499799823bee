"""Edge-path group presentations and finite regular covers.

The fundamental group of a connected complex is presented on one generator
per edge outside the spanning tree _spanning_forest (the unit columns of
d_1's Smith form) with one relator per 2-simplex: reading the triangle
boundary as the edge path (face 2)(face 0)(face 1)^-1 and dropping tree edges.

A cover of degree d is described by one sheet permutation per edge; edge e
runs from sheet s to sheet perm[s].  Lifted simplices are anchored at their
vertex-0 corner: the copy (s, sheet) has faces (face_i s, sheet) for i >= 1,
while face 0, whose anchor is vertex 1, lives on the sheet reached through
the [v0, v1] edge of s.  The lifted face maps close up into a complex
exactly when every triangle closes on every sheet (validate_action), which
is checked when a cover is built from the action, and every constructed
cover is certified by its face identities; a tower level's homology is the
base's Morse complex lifted through the action in the same way
(lifted_profile).  The orientation double cover is the cover of the
orientation character.
"""

import heapq
import math
from itertools import chain, combinations

from .deltacomplex import (
    MAX_SIMPLICES,
    DeltaComplex,
    NotPseudomanifoldError,
    ValidationReport,
    _face_identity_violation,
    _find,
    _forest,
    _morse,
    _orientation,
    _profile,
    _signed_forest,
    _smith_forms,
    _spanning_forest,
    _subface,
    _valid,
    orient,
)
from .intlinalg import IntegerMatrix, smith_normal_form


class Presentation:
    """Edge-path presentation of the fundamental group of a complex."""

    __slots__ = ("edge_count", "generator_edges", "relators")

    def __init__(self, edge_count, generator_edges, relators):
        self.edge_count = edge_count
        self.generator_edges = tuple(generator_edges)
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
    return Presentation(complex.counts[1], generator_edges, relators)


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
    inversion).  Each step takes the lowest-numbered relator in which some
    generator occurs once, from a heap of the relators that may have one
    (all at first, then those a step rewrote), and rewrites only the
    relators that hold the eliminated generator, found through an index
    from each generator to its relators; the others are cyclically reduced
    already and keep their lengths.  Gives up (False) once any relator is
    longer than MAX_WORD_LENGTH, checking every relator at the first step
    and the rewritten ones after.  Returns False whenever unsure; never a
    wrong True.
    """
    words = [_cyclic_reduce(w) for w in presentation.relators]
    holders = [set() for _ in range(presentation.generator_count)]
    for r, word in enumerate(words):
        for g, _ in word:
            holders[g].add(r)
    live = set(range(presentation.generator_count))
    queue, first = list(range(len(words))), True  # a sorted list is a heap
    while queue:
        idx = heapq.heappop(queue)
        word = words[idx]
        if word is None:
            continue
        counts = {}
        for g, _ in word:
            counts[g] = counts.get(g, 0) + 1
        target = next((g for g in counts if counts[g] == 1), None)
        if target is None:
            continue
        pos = next(i for i, (g, _) in enumerate(word) if g == target)
        # the word for target^exp, exp = word[pos][1]
        replacement = _invert(word[:pos]) + _invert(word[pos + 1:])
        if word[pos][1] == -1:
            replacement = _invert(replacement)
        words[idx] = None
        for g in counts:
            holders[g].discard(idx)
        touched, holders[target] = holders[target], set()
        for j in touched:
            old = words[j]
            expanded = []
            for g, e in old:
                if g == target:
                    expanded.extend(replacement if e == 1 else _invert(replacement))
                else:
                    expanded.append((g, e))
            words[j] = new = _cyclic_reduce(expanded)
            before, after = {g for g, _ in old}, {g for g, _ in new}
            for g in before - after:
                holders[g].discard(j)
            for g in after - before:
                holders[g].add(j)
            heapq.heappush(queue, j)
        if any(w is not None and len(w) > MAX_WORD_LENGTH
               for w in (words if first else (words[j] for j in touched))):
            return False
        live.discard(target)
        first = False
    if len(live) <= 1:
        return True
    canon_words = {_canonical_rotation(w) for w in words if w}
    live = sorted(live)
    for a, g in enumerate(live):
        for h in live[a + 1:]:
            comm = ((g, 1), (h, 1), (g, -1), (h, -1))
            if not {_canonical_rotation(comm), _canonical_rotation(_invert(comm))} & canon_words:
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
        if type(degree) is not int or degree < 1:  # type(), so a bool is refused too
            raise ValueError(f"degree {degree!r} is not an int >= 1")
        self.degree = degree
        fixed = []
        for e, perm in enumerate(edge_perms):
            perm = tuple(perm)
            if set(map(type, perm)) - {int} or sorted(perm) != list(range(degree)):
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


def validate_action(complex, action):
    """Check that the action has one permutation per edge and that every
    2-simplex (f0, f1, f2) closes on every sheet: the path along edge f2
    and then edge f0 ends where edge f1 does, p0[p2[s]] = p1[s].

    This is exactly the face identities of the cover that build_cover makes
    from a valid base.  On the lift of a 2-simplex to sheet s, d_0 d_1 =
    d_0 d_0 is the vertex reached along f1 against the one reached along f2
    and then f0, which is the relation above; d_0 d_2 = d_1 d_0 and d_1 d_2 =
    d_1 d_1 compare sheets that the anchoring makes equal, so they hold
    whenever the base's do.  On a k-simplex, k > 2, every identity but
    d_0 d_1 = d_0 d_0 compares sheets made equal in the same way (a face
    j >= 2 keeps vertices 0 and 1, and with them the [v0, v1] edge), and
    that one is the relation of the 2-face on vertices 0, 1 and 2.  Returns
    a ValidationReport naming the first 2-simplex that fails and its first
    bad sheet.
    """
    _valid(complex)
    perms = action.edge_perms
    edges = complex.counts[1] if complex.dim else 0
    if len(perms) != edges:
        return ValidationReport([f"action covers {len(perms)} edges, complex has {edges}"])
    for t, (f0, f1, f2) in enumerate(complex.faces[2] if complex.dim >= 2 else ()):
        p0 = perms[f0]
        if (path := [p0[s] for s in perms[f2]]) != list(perms[f1]):
            s = next(s for s, (a, b) in enumerate(zip(path, perms[f1])) if a != b)
            return ValidationReport([
                f"2-simplex {t}, sheet {s}: edges {f2} then {f0} reach sheet {path[s]}, "
                f"edge {f1} reaches {perms[f1][s]}"])
    return ValidationReport([])


def action_to_json(action):
    return {"degree": action.degree,
            "edge_perms": [list(p) for p in action.edge_perms]}


# ---------------------------------------------------------------------------
# Cover construction

def build_cover(complex, action):
    """The covering complex described by a permutation action, which
    validate_action checks first; the base need not be connected.

    Returns (cover, degree); cover simplex (base, sheet) has index
    base * degree + sheet.  The cover's face identities certify it and are
    cached as its validation; a valid base and action fix every index's range.
    """
    report = validate_action(complex, action)
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


def lifted_profile(complex, action, primes=(2, 3, 5)):
    """homology_profile of the cover of a valid action (validate_action),
    from the base's _morse complex lifted sheet by sheet; no cover is built.
    Critical cell c on sheet s is cell c * degree + s, and a term (sign, q,
    word) of c's boundary puts sign at row q * degree + word(s) of column
    c * degree + s.  A lifted d_1 is a graph's incidence matrix (Smith form:
    _forest), and a top boundary whose +-1 terms meet each row block at most
    twice has rows of at most two +-1 entries (_signed_forest)."""
    report = validate_action(complex, action)
    if not report.ok:
        raise ValueError(f"invalid action: {report.problems[0]}")
    d, perms, made = action.degree, action.edge_perms, {(): range(action.degree)}

    def sheets(word):  # word(s) for every sheet s, each word made once
        if word not in made:
            made[word] = range(d)
            for e, x in word:
                step = perms[e] if x > 0 else sorted(range(d), key=perms[e].__getitem__)
                made[word] = [step[s] for s in made[word]]
        return made[word]
    _, critical, boundary = _morse(complex)
    counts = [d * len(cells) for cells in critical]

    def off_rows(k, dropped):
        dropped, entries = set(dropped), {}
        for c, terms in enumerate(boundary[k]):
            for v, q, word in terms:
                for col, t in enumerate(sheets(word), c * d):
                    if (row := q * d + t) not in dropped:
                        entries[row, col] = entries.get((row, col), 0) + v
        return IntegerMatrix._trusted(counts[k - 1], counts[k],
                                      {pos: v for pos, v in entries.items() if v})

    def forest():
        return _forest(counts[0], chain.from_iterable(
            zip([a * d + t for t in sheets(wa)], [b * d + t for t in sheets(wb)])
            for (_, a, wa), (_, b, wb) in boundary[1]))

    def top():  # slot (c * d + s) * width + 2i + (sign < 0) is term i of column c * d + s
        n, hits = len(counts) - 1, [[] for _ in critical[-2]]
        width = 2 * max(map(len, boundary[n]), default=0)
        for c, terms in enumerate(boundary[n]):
            for i, (v, q, word) in enumerate(terms):
                hits[q].append((c, 2 * i + (v < 0), v, word))
        if any(len(h) > 2 or any(v not in (1, -1) for *_, v, _ in h) for h in hits):
            return None
        slots = [x for h in hits for group in zip(*(  # row q * d + t holds column c * d + s
            [(c * d + s) * width + i for s in sheets(_invert(word))] for c, i, _, word in h))
            for x in group]
        return _signed_forest(counts[n], slots, [len(h) for h in hits for _ in range(d)], width)[2]
    return _profile(counts, _smith_forms(counts, off_rows, forest, top), off_rows, tuple(primes))


def orientation_double_cover(complex):
    """The orientable connected double cover of a connected non-orientable
    closed pseudomanifold: (cover, 2) from build_cover of the orientation
    character, simplex (base, sheet) numbered base * 2 + sheet.  It reads
    the sorted top-face slots (two per (n-1)-simplex) and the clashes eta
    that the complex's orientation pass found.  Corners (t, u, p), vertex
    p of top simplex t on side u of its tentative sign, are joined across
    each (n-1)-simplex (side u to u ^ eta) and along both lifts of each
    tree edge in one top simplex through it.  The two lifts of the tree
    must be the only classes left; an edge swaps the sheets iff its ends
    lie in different ones, in every top simplex through it.  The cover
    must be connected and orient."""
    n = complex.dim
    if n < 1:
        raise ValueError("orientation double cover needs dimension >= 1")
    if orient(complex) is not None:
        raise ValueError("complex is already orientable; its orientation double cover "
                         "would be the disconnected trivial cover")
    if not complex.is_connected():
        raise ValueError("orientation double cover needs a connected complex; this one "
                         f"has {complex.component_count()} components")
    slots, eta = _orientation(complex)
    width = n + 1  # corner (t, u, p) is number (2t + u) * width + p
    parent = list(range(2 * complex.counts[n] * width))
    for f, (x, y) in enumerate(zip(slots[::2], slots[1::2])):
        (a, ia), (b, ib) = divmod(x, width), divmod(y, width)
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
# Abelianization towers

def _radix_product(tables):
    """The sheet map sending each sheet to the sum over coordinates c of
    tables[c][digit c]: each step pairs every image so far with every entry
    of the next table, so the map comes out in sheet order."""
    out = [0]
    for table in tables:
        out = [a + b for a in out for b in table]
    return out


class TowerLevel:
    __slots__ = ("modulus", "degree", "action", "sheet_map")

    def __init__(self, modulus, action, sheet_map=None):
        self.modulus = modulus
        self.degree = action.degree
        self.action = action
        self.sheet_map = sheet_map  # each sheet's sheet on the level below; None on level 1


class Tower:
    """A nested family of finite regular covers from mod-m^i abelianization
    quotients, whose sheet maps between levels were verified when it was
    built."""

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


def _verify_certificate(finer, coarser):
    """finer.sheet_map must intertwine the two levels' actions edgewise:
    sheet_map[hi[s]] = lo[sheet_map[s]] (comprehensions, since map over a
    tuple's __getitem__ costs a wrapper call per sheet)."""
    sheet_map = finer.sheet_map
    for e, (hi, lo) in enumerate(zip(finer.action.edge_perms, coarser.action.edge_perms)):
        up, down = [sheet_map[s] for s in hi], [lo[s] for s in sheet_map]
        if up != down:
            s = next(s for s, (a, b) in enumerate(zip(up, down)) if a != b)
            raise AssertionError(f"nesting certificate broken at edge {e}, sheet {s}")


def mod_power_tower(complex, modulus, levels):
    """Tower whose level i covers come from H_1 tensor Z/m^i.

    The coordinates come from one Smith form, with V, of the transposed
    relator matrix A^T: U_t A^T V_t = D gives V_t^T A U_t^T = D^T, so V_t^T
    is a U for A, and coordinate c of generator g is entry (g, c) of V_t.
    With the divisors d_c padded by 0 for the kernel columns, level i has
    moduli gcd(d_c, m^i) on the coordinates c with gcd(d_c, m) > 1, the same
    at every level and among the columns V_t keeps.  Sheet s is the element
    whose coordinates are the digits of s in that mixed radix, the first
    most significant.  Edge e translates every sheet by its generator's
    coordinates (a tree edge by 0), and a level's sheet map to the level
    below reduces each digit; both are mixed-radix products
    (_radix_product), decoding no sheet, and each sheet map is verified.

    Levels with a stagnating quotient order truncate the tower with a
    warning; one whose cover would have more than MAX_SIMPLICES
    simplices is refused with ValueError, before any permutation is built.
    Level actions are not validated here: lifted_profile validates each
    against the base's triangles when run_tower computes the level.  The
    residual flag is set only when the presentation provably gives an
    abelian group and every torsion coefficient of H_1 has all its prime
    factors dividing m; in that case the kernels of pi_1 -> H_1 tensor Z/m^i
    really do intersect trivially.
    """
    if modulus < 2:
        raise ValueError("modulus must be >= 2")
    if levels < 1:
        raise ValueError("levels must be >= 1")
    presentation = edge_path_presentation(complex)
    snf = smith_normal_form(presentation.relator_matrix().transpose(), True)
    divisors = snf.divisors + (0,) * (snf.cols - snf.rank)
    coords = [c for c, d in enumerate(divisors) if math.gcd(d, modulus) > 1]
    radices, warning_list = [], []
    for i in range(1, levels + 1):
        moduli = [math.gcd(divisors[c], modulus ** i) for c in coords]
        size = math.prod(moduli)
        if radices and size <= math.prod(radices[-1]):
            warning_list.append(
                f"tower truncated at level {len(radices)}: quotient order "
                f"stagnates at {size}")
            break
        if size == 1:
            warning_list.append("level 1 quotient is trivial; tower is empty")
            break
        if (simplices := size * sum(complex.counts)) > MAX_SIMPLICES:
            raise ValueError(f"tower level {i} has degree {size}: its cover would have "
                             f"{simplices} simplices, more than {MAX_SIMPLICES}")
        radices.append(moduli)
    # every level's moduli divide the top level's, so shifts reduced there serve all
    top = radices[-1] if radices else []
    shifts = [[0] * len(coords)] * presentation.edge_count  # a tree edge shifts by 0
    for g, e in enumerate(presentation.generator_edges):
        shifts[e] = [snf.V.entry(g, c) % q for c, q in zip(coords, top)]
    tower_levels, places = [], None
    for i, moduli in enumerate(radices, start=1):
        below, places = places, [math.prod(moduli[c + 1:]) for c in range(len(moduli))]
        action = PermutationAction(math.prod(moduli), [
            _radix_product([[(v + t) % q * place for v in range(q)]
                            for t, q, place in zip(shift, moduli, places)])
            for shift in shifts])
        sheet_map = None if below is None else tuple(_radix_product([
            [v % q_below * place for v in range(q)]
            for q, q_below, place in zip(moduli, radices[i - 2], below)]))
        tower_levels.append(TowerLevel(modulus ** i, action, sheet_map))
    for finer, coarser in zip(tower_levels[1:], tower_levels):
        _verify_certificate(finer, coarser)
    residual = proves_abelian(presentation) and all(
        _divides_a_power_of(t, modulus) for t in snf.nontrivial_divisors())
    return Tower(complex, modulus, tower_levels, residual, warning_list)
