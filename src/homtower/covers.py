"""Edge-path group presentations and finite regular covers.

The fundamental group of a connected complex is presented on one generator
per non-tree edge (spanning tree by breadth-first search from vertex 0) with
one relator per 2-simplex: reading the triangle boundary as the edge path
(face 2)(face 0)(face 1)^-1 and dropping tree edges.

A cover of degree d is described by one sheet permutation per edge (identity
on tree edges) satisfying every relator.  Lifted simplices are anchored at
their vertex-0 corner: the copy (s, sheet) has faces (face_i s, sheet) for
i >= 1, while face 0, whose anchor is vertex 1, lives on the sheet reached
through the [v0, v1] edge of s.  The relator condition is exactly what makes
the lifted face maps close up into a complex.  An action is validated against
the relators when a cover is built from it, and every constructed cover is
recertified by validation and Euler characteristic multiplicativity.
"""

import math
import warnings

from .deltacomplex import CoverProjection, DeltaComplex, ValidationReport, validate_complex
from .intlinalg import IntegerMatrix, smith_normal_form


class Presentation:
    """Edge-path presentation of the fundamental group of a complex."""

    __slots__ = ("edge_count", "tree_edges", "generator_edges", "generator_of_edge",
                 "relators", "relator_sources")

    def __init__(self, edge_count, tree_edges, generator_edges, relators, relator_sources):
        self.edge_count = edge_count
        self.tree_edges = frozenset(tree_edges)
        self.generator_edges = tuple(generator_edges)
        self.generator_of_edge = {e: g for g, e in enumerate(self.generator_edges)}
        self.relators = tuple(tuple(word) for word in relators)
        self.relator_sources = tuple(relator_sources)

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

    def abelianization(self):
        from .intlinalg import cokernel_structure
        return cokernel_structure(self.relator_matrix())


def edge_path_presentation(complex):
    """Presentation of pi_1 from the 2-skeleton of a connected complex."""
    if complex.dim < 1:
        raise ValueError("edge-path presentation needs dimension >= 1")
    if not complex.is_connected():
        raise ValueError("edge-path presentation needs a connected complex")
    n_vertices = complex.counts[0]
    incident = [[] for _ in range(n_vertices)]
    for e in range(complex.counts[1]):
        a, b = complex.edge_endpoints(e)
        incident[a].append((e, b))
        if a != b:
            incident[b].append((e, a))
    tree = set()
    seen = [False] * n_vertices
    seen[0] = True
    queue = [0]
    while queue:
        u = queue.pop(0)
        for e, w in sorted(incident[u]):
            if not seen[w]:
                seen[w] = True
                tree.add(e)
                queue.append(w)
    generator_edges = [e for e in range(complex.counts[1]) if e not in tree]
    gen_of = {e: g for g, e in enumerate(generator_edges)}
    relators = []
    sources = []
    if complex.dim >= 2:
        for t, (f0, f1, f2) in enumerate(complex.faces[2]):
            word = []
            for e, exp in ((f2, 1), (f0, 1), (f1, -1)):
                if e not in tree:
                    word.append((gen_of[e], exp))
            relators.append(tuple(word))
            sources.append(t)
    return Presentation(complex.counts[1], tree, generator_edges, relators, sources)


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


def proves_abelian(presentation, max_word_length=64):
    """Try to certify that the presented group is abelian.

    Tietze-eliminates generators that occur exactly once in some relator,
    then declares success iff at most one generator survives or the relator
    set contains the commutator of every surviving pair (up to rotation and
    inversion).  Returns False whenever unsure; never returns a wrong True.
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
            too_long = False
            for j, other in enumerate(words):
                if j == idx:
                    continue
                expanded = []
                for g, e in other:
                    if g == target:
                        expanded.extend(replacement if e == 1 else _invert(replacement))
                    else:
                        expanded.append((g, e))
                reduced = _cyclic_reduce(expanded)
                if len(reduced) > max_word_length:
                    too_long = True
                    break
                new_words.append(reduced)
            if too_long:
                return False
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


def _prime_factors(n):
    out = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


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

    def is_transitive(self):
        seen = {0}
        frontier = [0]
        inverses = [_invert_perm(p) for p in self.edge_perms]
        while frontier:
            s = frontier.pop()
            for perm in self.edge_perms:
                if perm[s] not in seen:
                    seen.add(perm[s])
                    frontier.append(perm[s])
            for perm in inverses:
                if perm[s] not in seen:
                    seen.add(perm[s])
                    frontier.append(perm[s])
        return len(seen) == self.degree

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
                f"relator {idx} (2-simplex {presentation.relator_sources[idx]}, "
                f"word {pretty}) evaluates to {evaluated}")
            return ValidationReport(problems)
    return ValidationReport(problems)


def action_to_json(action):
    return {"degree": action.degree,
            "edge_perms": [list(p) for p in action.edge_perms]}


def action_from_json(obj):
    if not isinstance(obj, dict):
        raise ValueError("permutation action: expected a JSON object")
    if "degree" not in obj or "edge_perms" not in obj:
        raise ValueError("permutation action: keys 'degree' and 'edge_perms' required")
    degree = obj["degree"]
    if not isinstance(degree, int) or degree < 1:
        raise ValueError("permutation action: degree must be a positive integer")
    perms = obj["edge_perms"]
    if not isinstance(perms, list):
        raise ValueError("permutation action: edge_perms must be a list")
    for e, perm in enumerate(perms):
        if not isinstance(perm, list) or sorted(perm) != list(range(degree)):
            raise ValueError(
                f"permutation action: edge_perms[{e}] is not a permutation "
                f"of 0..{degree - 1}")
    return PermutationAction(degree, perms)


# ---------------------------------------------------------------------------
# Cover construction

def _lead_edge(complex, k, simplex):
    """The edge of a k-simplex joining vertex positions 0 and 1."""
    cur = simplex
    for d in range(k, 1, -1):
        cur = complex.faces[d][cur][d]
    return cur


def build_cover(complex, action, presentation=None):
    """The covering complex described by a validated permutation action.

    Returns (cover, projection); cover simplex (base, sheet) has index
    base * degree + sheet.  The construction is recertified: the cover
    validates and its Euler characteristic is degree times the base one.
    """
    if presentation is None:
        presentation = edge_path_presentation(complex)
    report = validate_action(presentation, action)
    if not report.ok:
        raise ValueError(f"invalid action: {report.problems[0]}")
    d = action.degree
    counts = [c * d for c in complex.counts]
    faces = {}
    if complex.dim >= 1:
        rows = []
        for e in range(complex.counts[1]):
            v0, v1 = complex.edge_endpoints(e)
            perm = action.edge_perms[e]
            for s in range(d):
                rows.append((v1 * d + perm[s], v0 * d + s))
        faces[1] = rows
    for k in range(2, complex.dim + 1):
        rows = []
        for simplex in range(complex.counts[k]):
            base_faces = complex.faces[k][simplex]
            lead_perm = action.edge_perms[_lead_edge(complex, k, simplex)]
            for s in range(d):
                row = [base_faces[0] * d + lead_perm[s]]
                row.extend(base_faces[i] * d + s for i in range(1, k + 1))
                rows.append(tuple(row))
        faces[k] = rows
    cover = DeltaComplex(counts, faces)
    check = validate_complex(cover)
    if not check.ok:
        raise AssertionError(f"constructed cover failed validation: {check.problems[0]}")
    if cover.euler_characteristic() != d * complex.euler_characteristic():
        raise AssertionError("cover Euler characteristic is not multiplicative")
    base_index = [tuple(i // d for i in range(c * d)) for c in complex.counts]
    return cover, CoverProjection(d, base_index)


# ---------------------------------------------------------------------------
# Abelianization quotients and towers

class AbelianQuotient:
    """H_1(X; Z) tensor Z/m in explicit coordinates.

    Coordinates come from one Smith transform U of the relator matrix,
    shared across all moduli, so the reduction maps between the quotients
    for m^i and m^{i+1} are literally componentwise.
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
                images.append(tuple(snf.U.entry(i, g) % q
                                    for i, q in zip(self.coords, self.moduli)))
        self._shifts = tuple(images)

    def encode(self, values):
        return sum(v * s for v, s in zip(values, self._strides))

    def decode(self, index):
        out = []
        for q, s in zip(self.moduli, self._strides):
            out.append((index // s) % q)
        return tuple(out)

    def action(self):
        """The translation action on the quotient's elements: edge e moves
        every sheet by its image in the quotient (size 1 gives the degree-1
        identity action)."""
        sheets = [self.decode(s) for s in range(self.size)]
        perms = [[self.encode(tuple((v + t) % q for v, t, q in zip(vals, shift, self.moduli)))
                  for vals in sheets]
                 for shift in self._shifts]
        return PermutationAction(self.size, perms)

    def reduction_to(self, coarser):
        """Sheet map to the quotient for a modulus dividing this one."""
        positions = [self.coords.index(c) for c in coarser.coords]
        out = []
        for s in range(self.size):
            vals = self.decode(s)
            out.append(coarser.encode(
                tuple(vals[p] % q for p, q in zip(positions, coarser.moduli))))
        return tuple(out)


def _presentation_smith(complex, presentation=None):
    if presentation is None:
        presentation = edge_path_presentation(complex)
    snf = smith_normal_form(presentation.relator_matrix(), keep_transforms=True)
    return presentation, snf


def abelianization_action(complex, modulus, presentation=None):
    """The regular action of pi_1 on H_1(X) tensor Z/m by translation.

    Degree is the order of the quotient; tree edges act trivially by
    construction.  A trivial quotient yields the degree-1 identity action
    (the cover equals the base) with a warning.
    """
    if modulus < 2:
        raise ValueError("modulus must be >= 2")
    presentation, snf = _presentation_smith(complex, presentation)
    quotient = AbelianQuotient(presentation, snf, modulus)
    if quotient.size == 1:
        warnings.warn("abelianization quotient is trivial; cover equals base")
    return quotient.action()


class TowerLevel:
    __slots__ = ("modulus", "degree", "action", "quotient")

    def __init__(self, modulus, action, quotient):
        self.modulus = modulus
        self.degree = action.degree
        self.action = action
        self.quotient = quotient


class Tower:
    """A nested family of finite regular covers from mod-m^i abelianization
    quotients, with verified reduction certificates between levels."""

    __slots__ = ("base", "base_name", "modulus", "levels", "certificates",
                 "residual", "warnings", "presentation")

    def __init__(self, base, base_name, modulus, levels, certificates,
                 residual, warning_list, presentation):
        self.base = base
        self.base_name = base_name
        self.modulus = modulus
        self.levels = tuple(levels)
        self.certificates = tuple(certificates)
        self.residual = residual
        self.warnings = tuple(warning_list)
        self.presentation = presentation

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


def mod_power_tower(complex, modulus, levels, name=None):
    """Tower whose level i covers come from H_1 tensor Z/m^i.

    Levels with a stagnating quotient order truncate the tower with a
    warning.  Level actions are not validated here: build_cover validates an
    action against the relators when it builds the level's cover.  The
    residual flag is set only when the presentation provably gives an
    abelian group and every torsion coefficient of H_1 has all its prime
    factors dividing m; in that case the kernels of pi_1 -> H_1 tensor Z/m^i
    really do intersect trivially.
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
        quotients.append(q)
    tower_levels = [TowerLevel(q.modulus, q.action(), q) for q in quotients]
    certificates = []
    for finer, coarser in zip(tower_levels[1:], tower_levels[:-1]):
        sheet_map = finer.quotient.reduction_to(coarser.quotient)
        _verify_certificate(finer, coarser, sheet_map)
        certificates.append(sheet_map)
    abelian = proves_abelian(presentation)
    torsion = snf.nontrivial_divisors()
    torsion_ok = all(_prime_factors(t) <= _prime_factors(modulus) for t in torsion)
    residual = abelian and torsion_ok
    base_name = name if name is not None else complex.name
    return Tower(complex, base_name, modulus, tower_levels, certificates,
                 residual, warning_list, presentation)
