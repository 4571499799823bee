"""Finite delta-complexes and their homology.

A complex of dimension n stores, for each k, the number of k-simplices and,
for k >= 1, one face list per k-simplex: faces[k][j][i] is the index of the
(k-1)-simplex that is the i-th face (the one opposite vertex i) of k-simplex
j.  Simplices are not determined by their vertices, so gluings like the
one-vertex torus are representable; a k-simplex may even repeat a face, in
which case the signed incidences accumulate (and may cancel) in the boundary
matrix.

Boundary convention: entry (r, c) of the k-th boundary matrix is
sum over i of (-1)^i [faces[k][c][i] == r], so every column has at most k+1
signed incidences and Euclidean norm at most k+1.
"""

import reprlib
from collections.abc import Mapping
from functools import partial

from .intlinalg import (
    FgAbelianGroup,
    IntegerMatrix,
    SmithDecomposition,
    _ranks_and_unit_columns,
    integer_kernel,
    smith_normal_form,
    to_decimal,
)


class ComplexFormatError(ValueError):
    """Raised by the JSON parser; `position` pins the offending element."""

    def __init__(self, message, position=""):
        self.position = position
        super().__init__(f"{position}: {message}" if position else message)


class NotPseudomanifoldError(ValueError):
    """The complex is not a closed pseudomanifold (or its dual graph is
    disconnected inside a connected complex)."""


class NonOrientableError(ValueError):
    """An operation that needs an orientation got a non-orientable complex."""


class DeltaComplex:
    """Immutable delta-complex.  The constructor only stores, and never
    fails on the faces: counts as a tuple, and `faces` (a mapping from k to
    the face lists of dimension k) as faces[k], a tuple of tuples, None
    where a dimension is missing (face lists of another shape are kept as
    given, and faces that is not a mapping as None).  validate_complex
    makes every check; boundary_matrix, homology_profile, orient,
    covers.edge_path_presentation and covers.validate_action, and so
    everything built on them, raise ValueError through _valid before they
    read a face."""

    __slots__ = ("counts", "faces", "name", "_cache")

    def __init__(self, counts, faces, name=None):
        self.counts = tuple(counts)
        self.faces = (((),) + tuple(_stored(faces.get(k)) for k in range(1, len(self.counts)))
                      if isinstance(faces, Mapping) else None)
        self.name = name
        self._cache = {}

    @property
    def dim(self):
        return len(self.counts) - 1

    def euler_characteristic(self):
        return sum(c if k % 2 == 0 else -c for k, c in enumerate(self.counts))

    def component_count(self):
        return self.counts[0] - len(_spanning_forest(self))

    def is_connected(self):
        return self.component_count() == 1

    def __eq__(self, other):
        if not isinstance(other, DeltaComplex):
            return NotImplemented
        return self.counts == other.counts and self.faces == other.faces

    __hash__ = None

    def __repr__(self):
        label = f" {self.name!r}" if self.name else ""
        return f"<DeltaComplex{label} dim={self.dim} counts={self.counts}>"


def _find(parent, x):
    """The root of x in the union-find forest `parent`, halving its path."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _find_signed(parent, rel, x):
    """The root of x and the sign of x relative to it, where rel[y] is the
    sign of y relative to parent[y]; halves the path, carrying the signs."""
    sign = 1
    while parent[x] != x:
        p = parent[x]
        rel[x] *= rel[p]
        parent[x] = parent[p]
        sign *= rel[x]
        x = parent[x]
    return x, sign


def _forest(count, ends):
    """The links e, joining the nodes ends[e], that join two components as a
    graph grows in link order, from one union-find.  On d_1's graph they are
    S_0, its unit columns: if e joins components A and B, chi_B (1 on B) has
    coboundary +-1 at e and 0 at each earlier forest link."""
    parent, forest = list(range(count)), []
    for e, (u, v) in enumerate(ends):
        while parent[u] != u:  # _find on both ends, written out
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u != v:
            parent[u] = v
            forest.append(e)
    return tuple(forest)


def _spanning_forest(complex):
    """The _forest of the 1-skeleton, edges in edge order, cached."""
    if "forest" not in complex._cache:
        complex._cache["forest"] = _forest(complex.counts[0],
                                           complex.faces[1] if complex.dim >= 1 else ())
    return complex._cache["forest"]


def _component_labels(complex):
    """Each vertex's component, numbered from 0 in order of lowest vertex,
    from a union-find over the edges of the cached _spanning_forest."""
    parent = list(range(complex.counts[0]))
    for e in _spanning_forest(complex):
        u, v = complex.faces[1][e]
        parent[_find(parent, u)] = _find(parent, v)
    number = {}
    return [number.setdefault(_find(parent, v), len(number)) for v in range(complex.counts[0])]


def _stored(rows):
    """One dimension's face lists as a tuple of tuples.  Only a list or
    tuple of rows, and only list and tuple rows, are converted; anything
    else (None when missing, a string, bytes) is kept as given, so that
    validate_complex names it."""
    if not isinstance(rows, (list, tuple)):
        return rows
    if set(map(type, rows)) <= {list, tuple}:  # one C-level pass over a cover's rows
        return tuple(map(tuple, rows))
    return tuple(tuple(r) if isinstance(r, (list, tuple)) else r for r in rows)


# the most simplices a complex (and so a tower level's cover) may have: no
# face data backs the vertex count, which a few bytes could set to anything
MAX_SIMPLICES = 2 ** 24


class ValidationReport:
    __slots__ = ("ok", "problems")

    def __init__(self, problems):
        self.problems = list(problems)
        self.ok = not self.problems

    def __bool__(self):
        return self.ok

    def __repr__(self):
        return "ValidationReport(ok)" if self.ok else f"ValidationReport({self.problems!r})"


def validate_complex(complex):
    """The one check of a delta-complex, made once: it runs on any data the
    constructor stored and never raises.

    The shape pass, the gate for outside data, checks that the counts are
    a nonempty list of nonnegative ints totalling at most MAX_SIMPLICES,
    that faces was a mapping, that dimension k has counts[k] face lists and
    that each k-simplex has k+1 faces, each an int in range.  Then come the
    face identities, all that build_cover checks on a cover it made: for
    i < j, face i of face j of a k-simplex is face j-1 of its face i
    (d_i d_j = d_{j-1} d_i), which gives d o d = 0 and which _subface relies
    on.  Returns a ValidationReport with the first problem found, if any:
    the first count problem, else the first shape or range problem, else
    the first identity that fails, with the simplex and the two face slots
    that witness it; it is cached, and _valid raises on it.
    """
    if "validation" in complex._cache:
        return complex._cache["validation"]
    problems = (_count_problems(complex.counts) or _entry_problems(complex)
                or _face_identity_violation(complex))
    report = complex._cache["validation"] = ValidationReport(problems)
    return report


def _count_problems(counts):
    """[the first problem of the counts], or []."""
    if not counts:
        return ["counts must list at least the vertex count"]
    for k, c in enumerate(counts):
        if type(c) is not int or c < 0:
            return [f"counts[{k}] = {reprlib.repr(c)} is not a nonnegative integer"]
    if (total := sum(counts)) > MAX_SIMPLICES:
        return [f"counts total {to_decimal(total)} simplices, more than {MAX_SIMPLICES}"]
    return []


def _entry_problems(complex):
    """[the first missing dimension, wrong row count, row that is not a
    list or tuple, wrong row length or entry that is not an int in range],
    or [], from one pass over the entries; a value is echoed through
    reprlib, so a long or deeply nested one from a file gives a short
    message."""
    if complex.faces is None:
        return ["faces must map each dimension k >= 1 to its face lists"]
    for k in range(1, complex.dim + 1):
        rows = complex.faces[k]
        if rows is None:
            return [f"missing face lists for dimension {k}"]
        if not isinstance(rows, (list, tuple)):
            return [f"faces[{k}] = {reprlib.repr(rows)} is not a list of face lists"]
        if len(rows) != complex.counts[k]:
            return [f"dimension {k}: {len(rows)} face lists for {complex.counts[k]} simplices"]
        limit = complex.counts[k - 1]
        for j, row in enumerate(rows):
            if not isinstance(row, (list, tuple)):
                return [f"faces[{k}][{j}] = {reprlib.repr(row)} is not a face list"]
            if len(row) != k + 1:
                return [f"{k}-simplex {j}: face list has {len(row)} entries, expected {k + 1}"]
            for i, f in enumerate(row):
                if type(f) is not int:  # a bool, float or str names no simplex
                    return [f"faces[{k}][{j}][{i}] = {reprlib.repr(f)} is not an integer"]
                if not 0 <= f < limit:
                    return [f"faces[{k}][{j}][{i}] = {f} out of range "
                            f"(complex has {limit} simplices of dimension {k - 1})"]
    return []


def _valid(complex):
    """Raise ValueError naming the first problem unless validate_complex
    passes the complex; every reader of faces calls this first."""
    report = validate_complex(complex)
    if not report.ok:
        raise ValueError(f"invalid complex: {report.problems[0]}")


def _face_identity_violation(complex):
    """[message] for the first (k, simplex, i, j) with d_i d_j != d_{j-1} d_i
    on a k-simplex, in that order; [] when every identity holds."""
    for k in range(2, complex.dim + 1):
        if not complex.faces[k]:  # no k-simplex: skip the (i, j) pairs
            continue
        below = complex.faces[k - 1]
        pairs = [(i, j) for i in range(k + 1) for j in range(i + 1, k + 1)]
        for s, row in enumerate(complex.faces[k]):
            for i, j in pairs:
                if below[row[j]][i] != below[row[i]][j - 1]:
                    return [f"face identity d_{i} d_{j} = d_{j - 1} d_{i} fails on "
                            f"{k}-simplex {s}: {below[row[j]][i]} != {below[row[i]][j - 1]}"]
    return []


def _subface(complex, k, simplex, keep):
    """The face of a k-simplex spanned by its vertex positions in `keep`.
    The positions outside `keep` are dropped highest first, so each still
    has its index when it is dropped; the face identities make the order
    immaterial."""
    for p in range(k, -1, -1):
        if p not in keep:
            simplex = complex.faces[k][simplex][p]
            k -= 1
    return simplex


def boundary_matrix(complex, k):
    """The k-th boundary matrix, counts[k-1] x counts[k], built on each call
    and not cached."""
    _valid(complex)
    if not 1 <= k <= complex.dim:
        raise ValueError(f"boundary degree {k} out of range 1..{complex.dim}")
    return _boundary_off_rows(complex, k, ())


def _boundary_off_rows(complex, k, dropped):
    """d_k of a validated complex (unchecked by the IntegerMatrix
    constructor), rows in `dropped` left empty and row indices kept; each
    elimination builds its own and keeps none.  When `dropped` is the
    unit-pivot columns S of an elimination of d_{k-1} (S_0 over Z is the
    spanning forest in the order found), d_k keeps its rank and invariant
    factors over Z and every F_p: each pivot row was a coboundary with a
    unit at its column and 0 at every earlier pivot (chi_B for S_0), so with
    the e^c, c not in S, they span the (k-1)-cochains; row c of d_k is the
    coboundary of e^c, and dd = 0."""
    dropped = set(dropped)
    entries = {}
    for j, row in enumerate(complex.faces[k]):
        for i, f in enumerate(row):
            if f not in dropped:
                pos = (f, j)
                entries[pos] = entries.get(pos, 0) + (1 if i % 2 == 0 else -1)
    return IntegerMatrix._trusted(complex.counts[k - 1], complex.counts[k],
                                  {pos: v for pos, v in entries.items() if v})


def _smith_forms(counts, off_rows, forest, top):
    """The divisor-only Smith forms of d_1..d_n of a chain complex, bottom-up:
    d_1's from its graph's spanning `forest()`, the top d_n's, n >= 2, from
    `top()` unless that is None, and each other d_k's from an elimination of
    off_rows(k, the unit_columns of d_{k-1}'s) (see _boundary_off_rows)."""
    snfs, n = [], len(counts) - 1
    for k in range(1, n + 1):
        if k == 1:
            units = forest()
            snf = SmithDecomposition((1,) * len(units), counts[0], counts[1], unit_columns=units)
        elif k < n or (snf := top()) is None:
            snf = smith_normal_form(off_rows(k, snfs[-1].unit_columns))
        snfs.append(snf)
    return snfs


def _boundary_smith(complex, k):
    """The Smith form of d_k, from _smith_forms with _spanning_forest and
    _dual_forest, cached so each boundary is eliminated over Z at most once."""
    if "smith" not in complex._cache:
        complex._cache["smith"] = _smith_forms(
            complex.counts, partial(_boundary_off_rows, complex),
            partial(_spanning_forest, complex), lambda: _dual_forest(complex)[3])
    return complex._cache["smith"][k - 1]


def _dual_forest(complex):
    """The one walk of the dual graph, cached for _orientation and
    _boundary_smith: (incidences, parent, rel, smith), the slots and counts
    of _top_face_incidences and the _signed_forest of their rows, decoded
    once into joins and half-edges (slot t*(n+1)+i is top simplex t, sign
    (-1)^i); parent, rel and smith are None when some (n-1)-simplex lies in
    three top faces or more."""
    if "dual_forest" not in complex._cache:
        slots, counts = incidences = _top_face_incidences(complex)
        found = (None,) * 3
        if not counts or max(counts) <= 2:
            width, joins, halves, k = complex.dim + 1, [], [], 0
            for c in counts:
                if c == 2:
                    (a, i), (b, j) = divmod(slots[k], width), divmod(slots[k + 1], width)
                    joins.append((a, b, (-1) ** (i + j + 1)))
                elif c:
                    halves.append(slots[k] // width)
                k += c
            found = _signed_forest(len(counts), complex.counts[complex.dim], joins, halves)
        complex._cache["dual_forest"] = (incidences, *found)
    return complex._cache["dual_forest"]


def _signed_forest(rows, columns, joins, halves):
    """(parent, rel, smith) for a matrix of `rows` rows of at most two
    entries +-1: a signed union-find over the columns (_find_signed(parent,
    rel, t) is t's root and sign relative to it) and the Smith form.  joins
    gives (a, b, s) for each row s_a e^a + s_b e^b, in row order, with
    s = -s_a s_b, and halves the column of each row on one entry (a
    half-edge).  Within a tree the rows span the vectors with
    sum_t sign_t v_t = 0, where sign_b = s sign_a along each tree row.  A
    row that joins two trees is a unit pivot at the root it absorbs; with
    the tree rows it telescopes to +-e^ra +- e^rb, 0 at every earlier pivot
    (a non-root).  A half-edge makes its final tree's root a unit pivot,
    appended last, as its telescoped row +-e^root is 0 at every other; a
    row within a tree whose sum is +-2 (a sign clash) leaves Z/2 on a tree
    with no half-edge.  A root's flags end as the OR of its tree's in any
    order of the rows, so the half-edges are applied after the joins."""
    parent, rel = list(range(columns)), [1] * columns
    flags, units = [0] * columns, []  # flag 1: half-edge, 2: clash
    for a, b, s in joins:  # _find_signed on both ends, written out
        while parent[a] != a:  # s times the signs of a and b to their roots
            p = parent[a]
            rel[a] *= rel[p]
            parent[a] = parent[p]
            s *= rel[a]
            a = parent[a]
        while parent[b] != b:
            p = parent[b]
            rel[b] *= rel[p]
            parent[b] = parent[p]
            s *= rel[b]
            b = parent[b]
        if a != b:
            parent[a], rel[a] = b, s
            flags[b] |= flags[a]
            units.append(a)
        elif s != 1:
            flags[a] |= 2
    for t in halves:
        flags[_find_signed(parent, rel, t)[0]] |= 1
    roots = [t for t in range(columns) if parent[t] == t]
    units += [t for t in roots if flags[t] & 1]
    return parent, rel, SmithDecomposition(
        (1,) * len(units) + (2,) * sum(flags[t] == 2 for t in roots),
        rows, columns, unit_columns=units)


class HomologyProfile:
    """Integral homology plus F_p dimensions, one record per degree."""

    __slots__ = ("groups", "fp_dims")

    def __init__(self, groups, fp_dims):
        self.groups = tuple(groups)
        self.fp_dims = fp_dims  # {prime: tuple of dims by degree}

    def group(self, k):
        return self.groups[k]

    def betti(self, k):
        return self.groups[k].free_rank

    def log_torsion(self, k):
        return self.groups[k].log_torsion

    def torsion_order(self, k):
        return self.groups[k].torsion_order

    def fp_dim(self, k, p):
        return self.fp_dims[p][k]

    def cohomology(self, m):
        """H^m = Z^{b_m} + tors H_{m-1}, by universal coefficients."""
        return FgAbelianGroup(self.betti(m), self.groups[m - 1].torsion if m else ())

    def __repr__(self):
        body = ", ".join(f"H_{k}={g.pretty()}" for k, g in enumerate(self.groups))
        return f"<HomologyProfile {body}>"


def _uc_dims(groups, p):
    """dim_{F_p} H_k by universal coefficients from the integral groups:
    b_k + #{p | t : t in tors H_k} + #{p | t : t in tors H_{k-1}}."""
    divisible = [sum(1 for t in g.torsion if t % p == 0) for g in groups]
    return tuple(g.free_rank + divisible[k] + (divisible[k - 1] if k else 0)
                 for k, g in enumerate(groups))


def homology_profile(complex, primes=(2, 3, 5)):
    """Integral homology in every degree together with dim_{F_p} H_k: the
    _profile of the complex's cached Smith forms (_boundary_smith: d_1's is
    _spanning_forest, and the top boundary's of a pseudomanifold, no
    (n-1)-simplex in three top faces, is _dual_forest)."""
    primes = tuple(primes)
    key = ("profile", primes)
    if key not in complex._cache:
        _valid(complex)
        complex._cache[key] = _profile(
            complex.counts, [_boundary_smith(complex, k) for k in range(1, complex.dim + 1)],
            partial(_boundary_off_rows, complex), primes)
    return complex._cache[key]


def _profile(counts, snfs, off_rows, primes):
    """The HomologyProfile of a chain complex with these counts, from the
    Smith forms of d_1..d_n over Z and one elimination over Z/N, N the
    product of the primes, of each off_rows(k, S) bottom-up, S the unit
    columns of its own pass over d_{k-1} (see _boundary_off_rows); so the
    engines stay independent, and the universal coefficient identity
    (_uc_dims), asserted in every degree for every prime, cross-checks them."""
    dim = len(counts) - 1
    ranks = [0] + [snf.rank for snf in snfs] + [0]
    groups = [FgAbelianGroup(counts[k] - ranks[k] - ranks[k + 1],
                             snfs[k].nontrivial_divisors() if k < dim else ())
              for k in range(dim + 1)]
    fp_ranks, dropped = [], ()
    for k in range(1, dim + 1) if primes else ():
        fp, dropped = _ranks_and_unit_columns(off_rows(k, dropped), primes)
        fp_ranks.append(fp)
    fp_dims = {}
    for p in primes:
        ranks_p = [0] + [r[p] for r in fp_ranks] + [0]
        dims = tuple(counts[k] - ranks_p[k] - ranks_p[k + 1] for k in range(dim + 1))
        for k, (found, expected) in enumerate(zip(dims, _uc_dims(groups, p))):
            if found != expected:
                raise AssertionError(
                    f"universal coefficient check failed at degree {k}, p={p}: "
                    f"dim_F{p} = {found}, integral data gives {expected}")
        fp_dims[p] = dims
    return HomologyProfile(groups, fp_dims)


# ---------------------------------------------------------------------------
# Discrete Morse complex

def _tree_links(count, links):
    """(node, link it was reached by) for each node a breadth-first walk from
    the lowest node of its component reaches, over links (link, a, b); a
    link from a node to itself (two slots of one simplex) is never taken."""
    adjacent = [[] for _ in range(count)]
    for link, a, b in links:
        adjacent[a].append((link, b))
        adjacent[b].append((link, a))
    seen, reached = [False] * count, []
    for root in range(count):
        if not seen[root]:
            seen[root], queue = True, [root]
            for node in queue:
                for link, other in adjacent[node]:
                    if not seen[other]:
                        seen[other] = True
                        reached.append((other, link))
                        queue.append(other)
    return reached


def _morse(complex):
    """The discrete Morse complex (Forman 1998; Skoldberg 2006), cached:
    (pairs, critical, boundary).  pairs[k] maps a paired k-simplex to (its
    (k+1)-simplex, its slot there), critical[k] lists the others, and the
    terms (sign, q, word) of boundary[k][c] put, on sheet s of a cover,
    `sign` at critical[k-1][q] on the sheet reached from s along word's
    letters (e, +-1), with or against edge e.  A face pairs only with a
    simplex it fills one slot of, so pairs lift sheet by sheet: vertices
    along a breadth-first spanning forest, top simplices along one of the
    dual graph over unpaired faces, and each middle simplex with its free
    face of highest slot (a pair at face 0 adds a letter to its paths)
    whose search for a closed gradient path ends before _REACH simplices.
    A paired face is -(-1)^(i+j) times each other face j of its simplex, i
    its slot, and stepping into face 0 or up from it crosses the [v0, v1]
    edge e, (e, 1) or (e, -1).  A face whose paths lead back to it raises
    AssertionError: acyclicity is checked.  Paths through middle pairs can
    branch at every step, and as words they never merge, so a matching
    whose paths, counted before any word is made, add up to more than four
    times the base's boundary incidences is given up for the empty one,
    whose complex is the cover's own."""
    if "morse" not in complex._cache:
        _valid(complex)
        budget = 4 * sum((k + 1) * c for k, c in enumerate(complex.counts) if k)
        complex._cache["morse"] = (_gradient(complex, _matching(complex), budget)
                                   or _gradient(complex, [{} for _ in complex.counts], budget))
    return complex._cache["morse"]


_REACH = 12  # short searches keep middle paths short: the degree-64 Sol cover keeps (1, 64, 64, 1)


def _matching(complex):
    """_morse's pairs: pairs[k] maps a paired k-simplex to (its
    (k+1)-simplex, the one slot it fills there)."""
    n, faces, pairs, paired = complex.dim, complex.faces, [{} for _ in complex.counts], set()

    def pair(k, face, simplex):
        pairs[k][face] = (simplex, faces[k + 1][simplex].index(face))
        paired.update({(k, face), (k + 1, simplex)})

    for v, e in _tree_links(complex.counts[0], [(e, *ends) for e, ends in
                                                 enumerate(faces[1] if n else ())]):
        pair(0, v, e)
    if n >= 2:
        holders = {}
        for t, row in enumerate(faces[n]):
            for f in row:
                holders.setdefault(f, []).append(t)
        for t, f in _tree_links(complex.counts[n], [(f, *ts) for f, ts in holders.items()
                                                     if len(ts) == 2 and (n - 1, f) not in paired]):
            pair(n - 1, f, t)

    def closes(k, simplex, face):  # whether a path from simplex reaches face or meets _REACH
        stack, seen = [simplex], {simplex}
        while stack and len(seen) < _REACH:
            for g in faces[k][stack.pop()]:
                if g in pairs[k - 1] and (up := pairs[k - 1][g][0]) not in seen:
                    if face in faces[k][up]:
                        return True
                    seen.add(up)
                    stack.append(up)
        return len(seen) >= _REACH

    for k in range(2, n):
        for s, row in enumerate(faces[k]):
            for f in reversed(row) if (k, s) not in paired else ():
                if (k - 1, f) not in paired and row.count(f) == 1 and not closes(k, s, f):
                    pair(k - 1, f, s)
                    break
    return pairs


def _gradient(complex, pairs, budget):
    """(pairs, critical, boundary) of _morse for these pairs, or None when
    the gradient paths of the paired faces and critical boundaries, counted
    layer by layer before any word is made, pass budget (each path gives at
    most one term)."""
    faces, spent, paths = complex.faces, 0, {}
    paired = {(k, f) for k, layer in enumerate(pairs) for f in layer}
    paired |= {(k + 1, s) for k, layer in enumerate(pairs) for s, _ in layer.values()}
    critical = [[c for c in range(count) if (k, c) not in paired]
                for k, count in enumerate(complex.counts)]
    terms, boundary = [], [None]

    def through(k, simplex, skip, sign):  # sign times the faces' terms but slot skip's
        lead, total = _subface(complex, k, simplex, (0, 1)), {}
        for j, f in enumerate(faces[k][simplex]):
            if j == skip:
                continue
            letter = (lead, 1) if j == 0 else (lead, -1) if skip == 0 else None
            for (q, word), v in terms[k - 1].get(f, {}).items():
                if letter:
                    word = word[1:] if word[:1] == ((lead, -letter[1]),) else (letter,) + word
                total[q, word] = total.get((q, word), 0) + (v if j % 2 == 0 else -v) * sign
        return {key: v for key, v in total.items() if v}

    for k in range(len(complex.counts)):
        spent += sum(paths.get(g, 0) for c in critical[k] for g in faces[k][c]) if k else 0
        paths, order, opened = dict.fromkeys(critical[k], 1), [], set()
        stack = list(pairs[k])
        while stack:  # each paired face after those its paths reach
            if (face := stack.pop()) in paths:
                continue
            simplex, slot = pairs[k][face]
            row = faces[k + 1][simplex]
            waiting = [g for g in row if g != face and g in pairs[k] and g not in paths]
            if not waiting:
                paths[face] = sum(paths.get(g, 0) for j, g in enumerate(row) if j != slot)
                if (spent := spent + paths[face]) > budget:
                    return None
                order.append(face)
            elif face in opened:
                raise AssertionError(f"Morse matching is not acyclic: a gradient path "
                                     f"returns to {k}-simplex {face}")
            else:
                opened.add(face)
                stack += [face, *waiting]
        if spent > budget:
            return None
        if k:
            boundary.append([[(v, q, w) for (q, w), v in through(k, c, None, 1).items()]
                             for c in critical[k]])
        terms.append({c: {(q, ()): 1} for q, c in enumerate(critical[k])})
        for face in order:
            simplex, slot = pairs[k][face]
            terms[k][face] = through(k + 1, simplex, slot, (-1) ** (slot + 1))
    return pairs, critical, boundary


# ---------------------------------------------------------------------------
# Orientation

class FundamentalCycle:
    """A top-dimensional cycle with coefficients +-1, one per top simplex."""

    __slots__ = ("signs",)

    def __init__(self, signs):
        signs = tuple(signs)
        for s in signs:  # type(), so a bool is refused too
            if type(s) is not int or s not in (-1, 1):
                raise ValueError(f"fundamental cycle coefficient {s!r} is not the int 1 or -1")
        self.signs = signs

    def __eq__(self, other):
        if not isinstance(other, FundamentalCycle):
            return NotImplemented
        return self.signs == other.signs

    __hash__ = None

    def __repr__(self):
        return f"FundamentalCycle({self.signs!r})"


def _top_face_incidences(complex):
    """(slots, counts): the top-face slots t*(n+1)+i, stably sorted by the
    (n-1)-simplex faces[n][t][i] each names, so each simplex's slots are
    consecutive and in top-simplex order, and counts[f], the number of
    slots on (n-1)-simplex f, counting multiplicity."""
    named = [f for row in complex.faces[complex.dim] for f in row]
    counts = [0] * complex.counts[complex.dim - 1]
    for f in named:
        counts[f] += 1
    return sorted(range(len(named)), key=named.__getitem__), counts


def orient(complex):
    """Coherent orientation of a closed pseudomanifold.

    Returns a FundamentalCycle, or None when the signs across the dual
    graph contradict each other (the complex is non-orientable).  Raises
    NotPseudomanifoldError when there is no top simplex, when some
    (n-1)-simplex does not lie in exactly two top-simplex faces, or when
    the dual graph is disconnected inside a connected complex.  It reads
    _orientation, so a complex is oriented once.
    """
    found = _orientation(complex)
    return found if isinstance(found, FundamentalCycle) else None


def _orientation(complex):
    """The one orientation pass of a complex, kept in its cache: the
    FundamentalCycle of an orientable complex, or (slots, eta) of a
    non-orientable one, which orientation_double_cover reads.  Each top
    simplex takes its sign in _dual_forest relative to the lowest top
    simplex of its dual tree, which gets +1.  Each (n-1)-simplex f has
    exactly two incidences, slots[2f] and slots[2f + 1] of
    _top_face_incidences, so eta[f] is 1 exactly where the coefficient of
    f in the boundary of sum sign_t * t is nonzero, and an eta of zeros
    certifies the cycle."""
    _valid(complex)
    if "orientation" in complex._cache:
        return complex._cache["orientation"]
    n = complex.dim
    if complex.counts[n] == 0:
        raise NotPseudomanifoldError("no top-dimensional simplices to orient")
    if n == 0:
        found = FundamentalCycle((1,) * complex.counts[0])
    else:
        (slots, counts), parent, rel, _ = _dual_forest(complex)
        for f, c in enumerate(counts):
            if c != 2:
                raise NotPseudomanifoldError(
                    f"not a closed pseudomanifold: {n - 1}-simplex {f} has "
                    f"{c} top-simplex face incidences, expected 2")
        first, signs = {}, []
        for t in range(complex.counts[n]):
            root, s = _find_signed(parent, rel, t)
            signs.append(s * first.setdefault(root, s))
        if complex.is_connected() and len(first) > 1:
            raise NotPseudomanifoldError(
                f"dual graph has {len(first)} components inside a connected complex")
        # slot t*(n+1)+i adds sign_t * (-1)^i to its simplex's coefficient
        terms = [signs[x // (n + 1)] * (-1) ** (x % (n + 1)) for x in slots]
        eta = [0 if u + v == 0 else 1 for u, v in zip(terms[::2], terms[1::2])]
        found = (slots, eta) if any(eta) else FundamentalCycle(signs)
    complex._cache["orientation"] = found
    return found


# ---------------------------------------------------------------------------
# Cap product duality

class CapDualityRecord:
    __slots__ = ("degree", "source", "target", "isomorphism")

    def __init__(self, degree, source, target, isomorphism):
        self.degree = degree
        self.source = source
        self.target = target
        self.isomorphism = isomorphism


class CapDualityReport:
    __slots__ = ("records",)

    def __init__(self, records):
        self.records = tuple(records)

    @property
    def all_isomorphisms(self):
        return all(r.isomorphism for r in self.records)


def _boundary_is_zero(complex, k, chains):
    """Whether d_k is 0 on every column of `chains`, ((k-simplex, column),
    value) pairs, summed straight from the faces."""
    total = {}
    for (s, j), v in chains:
        for i, f in enumerate(complex.faces[k][s]):
            total[f, j] = total.get((f, j), 0) + (v if i % 2 == 0 else -v)
    return not any(total.values())


def cap_duality_check(complex, cycle):
    """Check that capping with the fundamental cycle induces isomorphisms
    H^{n-k} -> H_k in every degree k.

    The chain-level map sends a cochain phi to
        sum_t sign_t * phi(front face of t in dim n-k) * (back face of t in dim k),
    i.e. the cap product with the fundamental cycle.  With m = n-k, let S_m
    be the unit_columns of the cached Smith form of d_m (see _boundary_smith;
    S_0 is empty).  Each was found with a coboundary of an (m-1)-cochain
    that is +-1 at the pivot and 0 at every earlier pivot, so subtracting
    these in pivot order makes any cocycle vanish on S_m.  Hence H^m is
    generated by the integer kernel of d_{m+1}^T off the columns in S_m,
    and the map is evaluated on a basis of it only: the component
    indicators for m = 0, each e^t, t not in S_n, for m = n, and
    integer_kernel in between.  A dropped cocycle differs from a kept one
    by a coboundary delta c, and cap(delta c) = +-d cap(c) is a boundary,
    so L = B_k + (span of the images) is the lattice the whole cocycle
    lattice would give.  L lies in Z_k, and Z^{c_k}/Z_k embeds in C_{k-1},
    so the map is onto (L = Z_k) iff [d_{k+1} | images] has rank
    c_k - rank d_k and a torsion-free cokernel; its columns are cycles, so
    its rows in S_k can go (see _boundary_off_rows), which makes d_{k+1}
    the matrix whose transpose gave the degree-k cocycles, built once.  For
    k = 0, C_0/B_0 is free on the components, so the images' sums over each
    component must span Z^components.  The groups come from the cached
    homology: H_k, and H^m = Z^{b_m} + tors H_{m-1} by universal
    coefficients.  The verdict is "isomorphism" iff the groups agree and
    the map is onto (a surjection between isomorphic finitely generated
    abelian groups is automatically injective).
    """
    n, counts = complex.dim, complex.counts
    if len(cycle.signs) != counts[n]:
        raise ValueError("cycle has wrong number of coefficients")
    profile = homology_profile(complex, ())
    if n and not _boundary_is_zero(complex, n, (((t, 0), s) for t, s in enumerate(cycle.signs))):
        raise ValueError("not a cycle: its boundary is nonzero")
    units = [set()] + [set(_boundary_smith(complex, k).unit_columns) for k in range(1, n + 1)]
    up = {j: _boundary_off_rows(complex, j + 1, units[j]) for j in range(1, n)}
    label = _component_labels(complex)
    components = complex.component_count()
    records = []
    for k in range(n + 1):
        m = n - k
        if m == 0:  # the component indicators
            coords, width = dict(enumerate(label)), components
        else:
            coords = {c: a for a, c in enumerate(
                c for c in range(counts[m]) if c not in units[m])}
            width = len(coords)
        front, back = range(m + 1), range(m, n + 1)
        cap = {}
        for t, s in enumerate(cycle.signs):
            a = coords.get(_subface(complex, n, t, front))
            if a is not None:
                key = (_subface(complex, n, t, back), a)
                cap[key] = cap.get(key, 0) + s
        images = IntegerMatrix._trusted(counts[k], width, {key: v for key, v in cap.items() if v})
        if 0 < m < n:
            images = images @ integer_kernel(IntegerMatrix._trusted(
                counts[m + 1], width, {(j, coords[i]): v for (i, j), v in up[m].items()}))
        if k:
            if not _boundary_is_zero(complex, k, images.items()):
                raise ValueError(f"not a cycle: a cap image in degree {k} has nonzero boundary")
            block = up[k] if k < n else IntegerMatrix.zeros(counts[n], 0)
            span = smith_normal_form(block.hstack(IntegerMatrix._trusted(
                counts[k], images.cols, {(i, j): v for (i, j), v in images.items()
                                         if i not in units[k]})))
            onto_rank = counts[k] - _boundary_smith(complex, k).rank
        else:
            sums = {}
            for (v, a), x in images.items():
                sums[label[v], a] = sums.get((label[v], a), 0) + x
            span = smith_normal_form(IntegerMatrix._trusted(
                components, images.cols, {key: x for key, x in sums.items() if x}))
            onto_rank = components
        surjective = span.rank == onto_rank and not span.nontrivial_divisors()
        source, target = profile.cohomology(m), profile.group(k)
        records.append(CapDualityRecord(k, source, target, surjective and source == target))
    return CapDualityReport(records)


# ---------------------------------------------------------------------------
# Built-in complexes

def _surface_faces(genus):
    """Fan triangulation of the 4g-gon with the standard identification
    word a_1 b_1 a_1' b_1' ... (primes denoting inverses).

    Side j carries word letter 2*(j//4) + (j%4 % 2), traversed forwards for
    j%4 in {0,1} and backwards for {2,3}.  Diagonals from polygon vertex 0
    get indices 2g..6g-4; the first and last sides act as the degenerate
    diagonals of the fan.  All 4g polygon vertices are identified.
    """
    g = genus
    sides = 4 * g

    def side_edge(j):
        return 2 * (j // 4) + (j % 4) % 2

    def side_forward(j):
        return j % 4 < 2

    def fan_edge(t):
        if t == 1:
            return side_edge(0)
        if t == sides - 1:
            return side_edge(sides - 1)
        return 2 * g + (t - 2)

    triangles = []
    for t in range(1, sides - 1):
        left, right = fan_edge(t), fan_edge(t + 1)
        rim = side_edge(t)
        if side_forward(t):
            triangles.append((rim, right, left))
        else:
            triangles.append((rim, left, right))
    edge_count = 6 * g - 3
    return (1, edge_count, len(triangles)), {
        1: [(0, 0)] * edge_count,
        2: triangles,
    }


# name: ((aspherical, amenable pi_1), counts, faces); builtin() records the
# two facts on the complex it makes
_BUILTIN_TABLE = {
    "circle": ((True, True), (1, 1), {1: [(0, 0)]}),
    "interval": ((True, True), (2, 1), {1: [(1, 0)]}),  # contractible
    "sphere2": ((False, True), (4, 6, 4), {
        1: [(1, 0), (2, 0), (3, 0), (2, 1), (3, 1), (3, 2)],
        2: [(5, 4, 3), (5, 2, 1), (4, 2, 0), (3, 1, 0)],
    }),
    "torus2": ((True, True), (1, 3, 2), {
        1: [(0, 0)] * 3,
        2: [(0, 2, 1), (1, 2, 0)],
    }),
    "klein_bottle": ((True, True), (1, 3, 2), {  # pi_1 is virtually Z^2
        1: [(0, 0)] * 3,
        2: [(0, 2, 1), (1, 0, 2)],
    }),
    "rp2": ((False, True), (2, 3, 2), {
        1: [(1, 0), (1, 0), (0, 0)],
        2: [(1, 0, 2), (0, 1, 2)],
    }),
}

BUILTIN_NAMES = tuple(sorted(_BUILTIN_TABLE)) + ("surface",)


def builtin(name, genus=None):
    """A standard small complex by name, with its provenance: whether it is
    aspherical and whether its pi_1 is amenable (see builtin_facts).

    Names: circle, interval, sphere2, torus2, klein_bottle, rp2, and
    surface (an int genus >= 1, aspherical, amenable only for genus 1; its
    10g - 4 simplices checked against MAX_SIMPLICES before any face list is
    built).  Every built-in validates.
    """
    if name == "surface":
        if genus is not None and type(genus) is not int:  # type(), so a bool is refused too
            raise ValueError(f"surface genus {genus!r} is not an int")
        if genus is None or genus < 1:
            raise ValueError("surface requires genus >= 1")
        if problems := _count_problems([1, 6 * genus - 3, 4 * genus - 2]):
            raise ValueError(f"surface of genus {genus}: {problems[0]}")
        facts = (True, genus == 1)
        counts, faces = _surface_faces(genus)
        made = DeltaComplex(counts, faces, name=f"surface_{genus}")
    elif name in _BUILTIN_TABLE:
        if genus is not None:
            raise ValueError(f"builtin {name!r} takes no genus")
        facts, counts, faces = _BUILTIN_TABLE[name]
        made = DeltaComplex(counts, faces, name=name)
    else:
        raise ValueError(f"unknown builtin {name!r}; choose from {', '.join(BUILTIN_NAMES)}")
    report = validate_complex(made)
    if not report.ok:
        raise AssertionError(f"builtin {name} failed validation: {report.problems}")
    made._cache["builtin"] = facts
    return made


def builtin_facts(complex):
    """(aspherical, amenable pi_1) as builtin() recorded them, or
    (False, False) for a complex it did not make; never read from
    `complex.name`, which callers and file stems choose."""
    return complex._cache.get("builtin", (False, False))


# ---------------------------------------------------------------------------
# JSON interchange

def complex_to_json(complex):
    return {
        "dim": complex.dim,
        "counts": list(complex.counts),
        "faces": {str(k): [list(row) for row in complex.faces[k]]
                  for k in range(1, complex.dim + 1)},
    }


def complex_from_json(obj, name=None):
    """Read the delta-complex interchange format's envelope: a JSON object
    with `dim` a nonnegative int, `counts` a list of dim + 1 entries and
    `faces` an object keyed exactly "1".."dim", else a ComplexFormatError
    that names the position.  The counts and face lists are stored as
    given; validate_complex checks them once, naming each bad one."""
    if not isinstance(obj, dict):
        raise ComplexFormatError("expected a JSON object", "$")
    for key in ("dim", "counts", "faces"):
        if key not in obj:
            raise ComplexFormatError(f"missing key {key!r}", "$")
    dim = obj["dim"]
    if type(dim) is not int or dim < 0:  # a JSON true is a bool, not a count
        raise ComplexFormatError("dim must be a nonnegative integer", "dim")
    counts = obj["counts"]
    if not isinstance(counts, list) or len(counts) != dim + 1:
        raise ComplexFormatError(f"counts must list {to_decimal(dim + 1)} entries", "counts")
    raw_faces = obj["faces"]
    if not isinstance(raw_faces, dict):
        raise ComplexFormatError("faces must be an object", "faces")
    expected = {str(k) for k in range(1, dim + 1)}
    if set(raw_faces) != expected:
        missing = sorted(expected - set(raw_faces))
        extra = sorted(set(raw_faces) - expected)
        detail = []
        if missing:
            detail.append(f"missing keys {missing}")
        if extra:
            detail.append(f"unexpected keys {extra}")
        raise ComplexFormatError("; ".join(detail), "faces")
    return DeltaComplex(counts, {k: raw_faces[str(k)] for k in range(1, dim + 1)}, name=name)
