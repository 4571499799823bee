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

from collections.abc import Mapping

from .intlinalg import (
    FgAbelianGroup,
    IntegerMatrix,
    SmithDecomposition,
    _ranks_and_unit_columns,
    kernel_basis,
    smith_normal_form,
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
    makes every check; boundary_matrix, homology_profile, orient and
    covers.edge_path_presentation, and so everything built on them, raise
    ValueError through _valid before they read a face."""

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


def _spanning_forest(complex):
    """The edges that join two components as the 1-skeleton grows in edge
    order, in that order, from one cached union-find: S_0, the unit columns
    of d_1.  If e joins components A and B, chi_B (1 on B) has coboundary
    +-1 at e and 0 at each earlier forest edge, inside one component."""
    if "forest" not in complex._cache:
        parent, forest = list(range(complex.counts[0])), []
        for e, (u, v) in enumerate(complex.faces[1] if complex.dim >= 1 else ()):
            u, v = _find(parent, u), _find(parent, v)
            if u != v:
                parent[u] = v
                forest.append(e)
        complex._cache["forest"] = tuple(forest)
    return complex._cache["forest"]


def _stored(rows):
    """One dimension's face lists as a tuple of tuples, or as given (None
    when missing) when they are not a sequence of sequences."""
    try:
        return tuple(map(tuple, rows))
    except TypeError:
        return rows


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
    on.  Returns a ValidationReport listing every shape and range problem,
    or else the first identity that fails, with the simplex and the two face
    slots that witness it; it is cached, and _valid raises on it.
    """
    if "validation" in complex._cache:
        return complex._cache["validation"]
    problems = (_count_problems(complex.counts) or _entry_problems(complex)
                or _face_identity_violation(complex))
    report = complex._cache["validation"] = ValidationReport(problems)
    return report


def _count_problems(counts):
    if not counts:
        return ["counts must list at least the vertex count"]
    problems = [f"counts[{k}] = {c!r} is not a nonnegative integer"
                for k, c in enumerate(counts) if type(c) is not int or c < 0]
    if not problems and (total := sum(counts)) > MAX_SIMPLICES:
        problems.append(f"counts total {total} simplices, more than {MAX_SIMPLICES}")
    return problems


def _entry_problems(complex):
    """Every missing dimension, wrong row count, row that is not a
    sequence, wrong row length and entry that is not an int in range, in
    one pass over the entries."""
    if complex.faces is None:
        return ["faces must map each dimension k >= 1 to its face lists"]
    problems = []
    for k in range(1, complex.dim + 1):
        rows = complex.faces[k]
        if rows is None:
            problems.append(f"missing face lists for dimension {k}")
            continue
        if not isinstance(rows, (list, tuple)):
            problems.append(f"faces[{k}] = {rows!r} is not a list of face lists")
            continue
        if len(rows) != complex.counts[k]:
            problems.append(
                f"dimension {k}: {len(rows)} face lists for {complex.counts[k]} simplices")
        limit = complex.counts[k - 1]
        for j, row in enumerate(rows):
            if not isinstance(row, (list, tuple)):
                problems.append(f"faces[{k}][{j}] = {row!r} is not a face list")
                continue
            if len(row) != k + 1:
                problems.append(
                    f"{k}-simplex {j}: face list has {len(row)} entries, expected {k + 1}")
            for i, f in enumerate(row):
                if type(f) is not int:  # a bool, float or str names no simplex
                    problems.append(f"faces[{k}][{j}][{i}] = {f!r} is not an integer")
                elif not 0 <= f < limit:
                    problems.append(
                        f"faces[{k}][{j}][{i}] = {f} out of range "
                        f"(complex has {limit} simplices of dimension {k - 1})")
    return problems


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


def _boundary_smith(complex, k):
    """The divisor-only Smith form of d_k, kept in the complex's cache so
    each boundary is eliminated over Z at most once; d_k goes without the
    rows that are unit_columns of the one of d_{k-1} (see
    _boundary_off_rows).  Not eliminated are d_1, whose S_0 is
    _spanning_forest (divisor 1 at each edge, never a loop), and the top
    d_n, n >= 2, when _dual_forest gives the Smith form of the whole d_n,
    which has the divisors of the restricted one by the same lemma."""
    key = ("smith", k)
    if key not in complex._cache:
        if k == 1:
            forest = _spanning_forest(complex)
            complex._cache[key] = SmithDecomposition(
                (1,) * len(forest), complex.counts[0], complex.counts[1], unit_columns=forest)
        elif k < complex.dim or (found := _dual_forest(complex)[3]) is None:
            complex._cache[key] = smith_normal_form(_boundary_off_rows(
                complex, k, _boundary_smith(complex, k - 1).unit_columns))
        else:
            complex._cache[key] = found
    return complex._cache[key]


def _dual_forest(complex):
    """The one walk of the dual graph, kept in the complex's cache for
    _orientation and _boundary_smith: (incidences, parent, rel, smith) of
    _top_face_incidences, a signed union-find over the top simplices
    (_find_signed(parent, rel, t) is t's root and sign relative to it) and
    the Smith form of the whole top boundary d_n; or (incidences, None,
    None, None) when some (n-1)-simplex lies in three top faces or more.
    Row f of d_n is s_a e^a + s_b e^b for its incidences (a, i) with
    s = (-1)^i: within a tree the rows span the vectors with
    sum_t sign_t v_t = 0, where sign_b = -s_a s_b sign_a along each tree
    row.  A row that joins two trees is a unit pivot at the root it
    absorbs; with the tree rows it telescopes to +-e^ra +- e^rb, 0 at every
    earlier pivot (a non-root).  A row on one incidence (a half-edge) makes
    its final tree's root a unit pivot, appended last, as its telescoped
    row +-e^root is 0 at every other; a row within a tree whose sum is +-2
    (a sign clash) leaves Z/2 on a tree with no half-edge."""
    if "dual_forest" in complex._cache:
        return complex._cache["dual_forest"]
    n = complex.dim
    incidences = _top_face_incidences(complex)
    if any(len(pairs) > 2 for pairs in incidences):
        return complex._cache.setdefault("dual_forest", (incidences, None, None, None))
    parent, rel = list(range(complex.counts[n])), [1] * complex.counts[n]
    flags, units = [0] * complex.counts[n], []  # flag 1: half-edge, 2: clash
    for pairs in incidences:
        if len(pairs) == 2:
            (a, i), (b, j) = pairs
            (ra, sa), (rb, sb) = _find_signed(parent, rel, a), _find_signed(parent, rel, b)
            want = 1 if (i + j) % 2 else -1  # sign_b / sign_a
            if ra != rb:
                parent[ra], rel[ra] = rb, sa * sb * want
                flags[rb] |= flags[ra]
                units.append(ra)
            elif sa * sb != want:
                flags[ra] |= 2
        elif pairs:
            flags[_find_signed(parent, rel, pairs[0][0])[0]] |= 1
    roots = [t for t in range(complex.counts[n]) if parent[t] == t]
    units += [t for t in roots if flags[t] & 1]
    return complex._cache.setdefault("dual_forest", (incidences, parent, rel, SmithDecomposition(
        (1,) * len(units) + (2,) * sum(flags[t] == 2 for t in roots),
        complex.counts[n - 1], complex.counts[n], unit_columns=units)))


def _boundary_or_zero(complex, k):
    """Boundary matrix for any k, with the empty maps at the two ends."""
    if k < 1:
        return IntegerMatrix.zeros(0, complex.counts[0])
    if k > complex.dim:
        return IntegerMatrix.zeros(complex.counts[complex.dim], 0)
    return boundary_matrix(complex, k)


class HomologyProfile:
    """Integral homology plus F_p dimensions, one record per degree."""

    __slots__ = ("primes", "groups", "fp_dims")

    def __init__(self, primes, groups, fp_dims):
        self.primes = tuple(primes)
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


def homology_profile(complex, primes=(2, 3, 5)):
    """Integral homology in every degree together with dim_{F_p} H_k.

    Over Z each boundary has one cached Smith form (_boundary_smith): d_1's
    is _spanning_forest, the top boundary's of a pseudomanifold (no
    (n-1)-simplex in three top faces) is _dual_forest, and the others are
    eliminated once.  Over Z/N each boundary is eliminated once for all the
    primes together (ranks_mod_primes), skipped when there are none.  Both
    go bottom-up without the rows of d_k that are unit-pivot columns of
    their own pass over d_{k-1} (see _boundary_off_rows), so the two stay
    independent: on a closed surface the cross-check compares two
    union-finds against eliminations.  The universal coefficient identity
        dim_{F_p} H_k = b_k + #{p | t : t in tors H_k} + #{p | t : t in tors H_{k-1}}
    is asserted internally for every degree and prime; a violation would mean
    the integral and mod-p eliminations disagree and aborts loudly.
    """
    primes = tuple(primes)
    key = ("profile", primes)
    if key in complex._cache:
        return complex._cache[key]
    _valid(complex)
    dim = complex.dim
    # rank and divisors of every boundary map, shared across adjacent degrees
    snfs = [_boundary_smith(complex, k) for k in range(1, dim + 1)]
    ranks = [0] + [snf.rank for snf in snfs] + [0]
    groups = [FgAbelianGroup(complex.counts[k] - ranks[k] - ranks[k + 1],
                             snfs[k].nontrivial_divisors() if k < dim else ())
              for k in range(dim + 1)]
    fp_ranks, dropped = [], ()
    for k in range(1, dim + 1) if primes else ():
        fp, dropped = _ranks_and_unit_columns(_boundary_off_rows(complex, k, dropped), primes)
        fp_ranks.append(fp)
    fp_dims = {}
    for p in primes:
        ranks_p = [0] + [r[p] for r in fp_ranks] + [0]
        dims = tuple(complex.counts[k] - ranks_p[k] - ranks_p[k + 1]
                     for k in range(dim + 1))
        for k in range(dim + 1):
            t_here = sum(1 for t in groups[k].torsion if t % p == 0)
            t_below = sum(1 for t in groups[k - 1].torsion if t % p == 0) if k else 0
            expected = groups[k].free_rank + t_here + t_below
            if dims[k] != expected:
                raise AssertionError(
                    f"universal coefficient check failed at degree {k}, p={p}: "
                    f"dim_F{p} = {dims[k]}, integral data gives {expected}")
        fp_dims[p] = dims
    profile = HomologyProfile(primes, groups, fp_dims)
    complex._cache[key] = profile
    return profile


# ---------------------------------------------------------------------------
# Orientation

class FundamentalCycle:
    """A top-dimensional cycle with coefficients +-1, one per top simplex."""

    __slots__ = ("signs",)

    def __init__(self, signs):
        signs = tuple(int(s) for s in signs)
        if any(s not in (-1, 1) for s in signs):
            raise ValueError("fundamental cycle coefficients must be +-1")
        self.signs = signs

    def __eq__(self, other):
        if not isinstance(other, FundamentalCycle):
            return NotImplemented
        return self.signs == other.signs

    __hash__ = None

    def __repr__(self):
        return f"FundamentalCycle({self.signs!r})"


def _top_face_incidences(complex):
    """For each (n-1)-simplex, the list of (top simplex, face slot) hitting
    it, counting multiplicity, in top-simplex order."""
    incidences = [[] for _ in range(complex.counts[complex.dim - 1])]
    for t, row in enumerate(complex.faces[complex.dim]):
        for i, f in enumerate(row):
            incidences[f].append((t, i))
    return incidences


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
    FundamentalCycle of an orientable complex, or (incidences, eta) of a
    non-orientable one, which orientation_double_cover reads.  Each top
    simplex takes its sign in _dual_forest relative to the lowest top
    simplex of its dual tree, which gets +1.  Each (n-1)-simplex f has
    exactly two incidences, so eta[f] is 1 exactly where the coefficient of
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
        incidences, parent, rel, _ = _dual_forest(complex)
        for f, pairs in enumerate(incidences):
            if len(pairs) != 2:
                raise NotPseudomanifoldError(
                    f"not a closed pseudomanifold: {n - 1}-simplex {f} has "
                    f"{len(pairs)} top-simplex face incidences, expected 2")
        first, signs = {}, []
        for t in range(complex.counts[n]):
            root, s = _find_signed(parent, rel, t)
            signs.append(s * first.setdefault(root, s))
        if complex.is_connected() and len(first) > 1:
            raise NotPseudomanifoldError(
                f"dual graph has {len(first)} components inside a connected complex")
        eta = [0 if signs[a] * (-1) ** ia + signs[b] * (-1) ** ib == 0 else 1
               for (a, ia), (b, ib) in incidences]
        found = (incidences, eta) if any(eta) else FundamentalCycle(signs)
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


def cap_duality_check(complex, cycle):
    """Check that capping with the fundamental cycle induces isomorphisms
    H^{n-k} -> H_k in every degree k.

    The chain-level map sends a cochain phi to
        sum_t sign_t * phi(front face of t in dim n-k) * (back face of t in dim k),
    i.e. the cap product with the fundamental cycle.  With m = n-k, let S be
    the unit_columns of the cached Smith form of d_m (see _boundary_smith:
    the pivot columns of the +-1 pass, the spanning forest for m = 1 and the
    absorbed roots of the dual forest, then its half-edge roots, for m = n).
    Each was found with a coboundary of an (m-1)-cochain that is +-1 at the
    pivot and 0 at every earlier pivot (chi_B at a forest edge joining A
    and B, the telescoped tree rows at a dual-forest root), so subtracting
    these coboundaries in pivot order makes any cocycle vanish on S.  Hence
    H^m is generated by the cocycles that vanish on S, the integer kernel of
    d_{m+1}^T restricted to the columns outside S, and the map is evaluated
    on a basis of that kernel only; the images must be cycles.  A dropped
    cocycle differs from a kept one by a coboundary delta c, and
    cap(delta c) = +-d cap(c) is a boundary, so L = B_k + (span of the
    images) is the lattice the whole cocycle lattice would give.  L lies in
    Z_k, and Z^{c_k}/Z_k embeds in C_{k-1}, so the map is onto (L = Z_k)
    iff one Smith form shows [d_{k+1} | images] of rank c_k - rank d_k with
    a torsion-free cokernel.  The groups come from the cached homology:
    H_k, and H^m = Z^{b_m} + tors H_{m-1} by universal coefficients.  The
    verdict is "isomorphism" iff the groups agree and the map is onto (a
    surjection between isomorphic finitely generated abelian groups is
    automatically injective).
    """
    n = complex.dim
    if len(cycle.signs) != complex.counts[n]:
        raise ValueError("cycle has wrong number of coefficients")
    d = [_boundary_or_zero(complex, k) for k in range(n + 2)]
    column = IntegerMatrix(complex.counts[n], 1,
                           {(t, 0): s for t, s in enumerate(cycle.signs)})
    if not (d[n] @ column).is_zero():
        raise ValueError("not a cycle: its boundary is nonzero")
    profile = homology_profile(complex, ())
    records = []
    for k in range(n + 1):
        m = n - k
        pivots = set(_boundary_smith(complex, m).unit_columns) if m else ()
        outside = {c: a for a, c in enumerate(
            c for c in range(complex.counts[m]) if c not in pivots)}
        d_up = d[m + 1]
        cocycles = kernel_basis(IntegerMatrix(
            d_up.cols, len(outside),
            {(j, outside[i]): v for (i, j), v in d_up.items() if i in outside}))
        front, back = range(m + 1), range(m, n + 1)
        cap = {}
        for t, s in enumerate(cycle.signs):
            a = outside.get(_subface(complex, n, t, front))
            if a is not None:
                key = (_subface(complex, n, t, back), a)
                cap[key] = cap.get(key, 0) + s
        images = IntegerMatrix(complex.counts[k], len(outside), cap) @ cocycles
        if not (d[k] @ images).is_zero():
            raise ValueError(f"not a cycle: a cap image in degree {k} has nonzero boundary")
        span = smith_normal_form(d[k + 1].hstack(images))
        cycle_rank = complex.counts[k] - (_boundary_smith(complex, k).rank if k else 0)
        surjective = span.rank == cycle_rank and not span.nontrivial_divisors()
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


_BUILTIN_TABLE = {
    "circle": ((1, 1), {1: [(0, 0)]}),
    "interval": ((2, 1), {1: [(1, 0)]}),
    "sphere2": ((4, 6, 4), {
        1: [(1, 0), (2, 0), (3, 0), (2, 1), (3, 1), (3, 2)],
        2: [(5, 4, 3), (5, 2, 1), (4, 2, 0), (3, 1, 0)],
    }),
    "torus2": ((1, 3, 2), {
        1: [(0, 0)] * 3,
        2: [(0, 2, 1), (1, 2, 0)],
    }),
    "klein_bottle": ((1, 3, 2), {
        1: [(0, 0)] * 3,
        2: [(0, 2, 1), (1, 0, 2)],
    }),
    "rp2": ((2, 3, 2), {
        1: [(1, 0), (1, 0), (0, 0)],
        2: [(1, 0, 2), (0, 1, 2)],
    }),
}

BUILTIN_NAMES = tuple(sorted(_BUILTIN_TABLE)) + ("surface",)

# complexes that are classifying spaces of their fundamental groups
ASPHERICAL_BUILTINS = frozenset({"circle", "torus2", "klein_bottle"})
# explicit allowlist of bases with amenable fundamental group; surface_1 is
# the torus again, so it qualifies
AMENABLE_BUILTINS = frozenset({"circle", "torus2", "surface_1"})


def builtin(name, genus=None):
    """A standard small complex by name.

    Names: circle, interval, sphere2, torus2, klein_bottle, rp2, and
    surface (which requires genus >= 1).  Every built-in validates.
    """
    if name == "surface":
        if genus is None or genus < 1:
            raise ValueError("surface requires genus >= 1")
        counts, faces = _surface_faces(genus)
        made = DeltaComplex(counts, faces, name=f"surface_{genus}")
    elif name in _BUILTIN_TABLE:
        if genus is not None:
            raise ValueError(f"builtin {name!r} takes no genus")
        counts, faces = _BUILTIN_TABLE[name]
        made = DeltaComplex(counts, faces, name=name)
    else:
        raise ValueError(f"unknown builtin {name!r}; choose from {', '.join(BUILTIN_NAMES)}")
    report = validate_complex(made)
    if not report.ok:
        raise AssertionError(f"builtin {name} failed validation: {report.problems}")
    made._cache["builtin"] = made.name
    return made


def builtin_name(complex):
    """The name builtin() gave this complex, or None for a complex it did
    not make.  The registries are keyed on this provenance, never on
    `complex.name`, which callers and file stems choose."""
    return complex._cache.get("builtin")


def is_aspherical_builtin(complex):
    name = builtin_name(complex) or ""
    return name in ASPHERICAL_BUILTINS or name.startswith("surface_")


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
    """Parse the delta-complex interchange format, rejecting malformed data
    with a ComplexFormatError that names the offending position."""
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
        raise ComplexFormatError(f"counts must list {dim + 1} entries", "counts")
    for k, c in enumerate(counts):
        if type(c) is not int or c < 0:
            raise ComplexFormatError("count must be a nonnegative integer", f"counts[{k}]")
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
    for k in range(1, dim + 1):
        rows = raw_faces[str(k)]
        if not isinstance(rows, list) or len(rows) != counts[k]:
            raise ComplexFormatError(
                f"expected {counts[k]} face lists", f"faces.{k}")
        for j, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != k + 1:
                raise ComplexFormatError(
                    f"face list must have {k + 1} entries", f"faces.{k}[{j}]")
            for i, f in enumerate(row):
                if type(f) is not int or f < 0:
                    raise ComplexFormatError(
                        "face index must be a nonnegative integer",
                        f"faces.{k}[{j}][{i}]")
    return DeltaComplex(counts, {k: raw_faces[str(k)] for k in range(1, dim + 1)}, name=name)
