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

import json

from .intlinalg import (
    FgAbelianGroup,
    IntegerMatrix,
    cokernel_structure,
    rank_mod_p,
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
    """Immutable delta-complex; validate with validate_complex before use."""

    __slots__ = ("counts", "faces", "name", "_cache")

    def __init__(self, counts, faces, name=None):
        counts = tuple(int(c) for c in counts)
        if not counts:
            raise ValueError("counts must list at least the vertex count")
        if any(c < 0 for c in counts):
            raise ValueError("negative simplex count")
        dim = len(counts) - 1
        norm_faces = [()]
        for k in range(1, dim + 1):
            try:
                rows = faces[k]
            except (KeyError, IndexError):
                raise ValueError(f"missing face lists for dimension {k}") from None
            if len(rows) != counts[k]:
                raise ValueError(
                    f"dimension {k}: {len(rows)} face lists for {counts[k]} simplices")
            fixed = []
            for j, row in enumerate(rows):
                row = tuple(int(x) for x in row)
                if len(row) != k + 1:
                    raise ValueError(
                        f"{k}-simplex {j}: face list has {len(row)} entries, expected {k + 1}")
                fixed.append(row)
            norm_faces.append(tuple(fixed))
        self.counts = counts
        self.faces = tuple(norm_faces)
        self.name = name
        self._cache = {}

    @property
    def dim(self):
        return len(self.counts) - 1

    def euler_characteristic(self):
        return sum(c if k % 2 == 0 else -c for k, c in enumerate(self.counts))

    def edge_endpoints(self, e):
        """(start, end) of edge e; the boundary of e is end - start."""
        opp0, opp1 = self.faces[1][e]
        return opp1, opp0

    def component_count(self):
        if "components" not in self._cache:
            parent = list(range(self.counts[0]))

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            if self.dim >= 1:
                for e in range(self.counts[1]):
                    a, b = self.edge_endpoints(e)
                    ra, rb = find(a), find(b)
                    if ra != rb:
                        parent[ra] = rb
            self._cache["components"] = len({find(v) for v in range(self.counts[0])})
        return self._cache["components"]

    def is_connected(self):
        return self.component_count() <= 1

    def __eq__(self, other):
        if not isinstance(other, DeltaComplex):
            return NotImplemented
        return self.counts == other.counts and self.faces == other.faces

    __hash__ = None

    def __repr__(self):
        label = f" {self.name!r}" if self.name else ""
        return f"<DeltaComplex{label} dim={self.dim} counts={self.counts}>"


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
    """Check face-index ranges and the chain condition d o d = 0.

    Returns a ValidationReport; never raises on bad data.  The first chain
    violation is reported with the simplex coordinates that witness it.  The
    report is kept in the complex's cache, so a complex is checked once.
    """
    if "validation" in complex._cache:
        return complex._cache["validation"]
    problems = []
    for k in range(1, complex.dim + 1):
        limit = complex.counts[k - 1]
        for j, row in enumerate(complex.faces[k]):
            for i, f in enumerate(row):
                if not 0 <= f < limit:
                    problems.append(
                        f"faces[{k}][{j}][{i}] = {f} out of range "
                        f"(complex has {limit} simplices of dimension {k - 1})")
    if not problems:
        for k in range(2, complex.dim + 1):
            product = boundary_matrix(complex, k - 1) @ boundary_matrix(complex, k)
            if not product.is_zero():
                (r, c), v = min(product.items())
                problems.append(
                    f"chain condition fails: d_{k - 1} d_{k} has entry {v} at "
                    f"({k - 2}-simplex {r}, {k}-simplex {c})")
                break
    report = complex._cache["validation"] = ValidationReport(problems)
    return report


def boundary_matrix(complex, k):
    """The k-th boundary matrix, counts[k-1] x counts[k]."""
    if not 1 <= k <= complex.dim:
        raise ValueError(f"boundary degree {k} out of range 1..{complex.dim}")
    key = ("boundary", k)
    if key not in complex._cache:
        entries = {}
        for j, row in enumerate(complex.faces[k]):
            for i, f in enumerate(row):
                pos = (f, j)
                entries[pos] = entries.get(pos, 0) + (1 if i % 2 == 0 else -1)
        complex._cache[key] = IntegerMatrix(complex.counts[k - 1], complex.counts[k], entries)
    return complex._cache[key]


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

    def __repr__(self):
        body = ", ".join(f"H_{k}={g.pretty()}" for k, g in enumerate(self.groups))
        return f"<HomologyProfile {body}>"


def homology_profile(complex, primes=(2, 3, 5)):
    """Integral homology in every degree together with dim_{F_p} H_k.

    The universal coefficient identity
        dim_{F_p} H_k = b_k + #{p | t : t in tors H_k} + #{p | t : t in tors H_{k-1}}
    is asserted internally for every degree and prime; a violation would mean
    the integral and mod-p eliminations disagree and aborts loudly.
    """
    primes = tuple(primes)
    key = ("profile", primes)
    if key in complex._cache:
        return complex._cache[key]
    report = validate_complex(complex)
    if not report.ok:
        raise ValueError(f"invalid complex: {report.problems[0]}")
    dim = complex.dim
    # rank and divisors of every boundary map, shared across adjacent degrees
    ranks = [0] * (dim + 2)
    divisors = [()] * (dim + 2)
    for k in range(1, dim + 1):
        snf = smith_normal_form(boundary_matrix(complex, k))
        ranks[k] = snf.rank
        divisors[k] = snf.nontrivial_divisors()
    groups = []
    for k in range(dim + 1):
        free = complex.counts[k] - ranks[k] - ranks[k + 1]
        groups.append(FgAbelianGroup(free, divisors[k + 1]))
    fp_dims = {}
    for p in primes:
        ranks_p = [0] * (dim + 2)
        for k in range(1, dim + 1):
            ranks_p[k] = rank_mod_p(boundary_matrix(complex, k), p)
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

    def support_size(self):
        return sum(1 for s in self.signs if s)

    def negated(self):
        return FundamentalCycle(tuple(-s for s in self.signs))

    def __eq__(self, other):
        if not isinstance(other, FundamentalCycle):
            return NotImplemented
        return self.signs == other.signs

    __hash__ = None

    def __repr__(self):
        return f"FundamentalCycle({self.signs!r})"


def _top_face_incidences(complex):
    """For each (n-1)-simplex, the list of (top simplex, face slot) hitting it.

    Raises NotPseudomanifoldError unless every (n-1)-simplex is hit exactly
    twice (counting multiplicity)."""
    n = complex.dim
    incidences = [[] for _ in range(complex.counts[n - 1])]
    for t, row in enumerate(complex.faces[n]):
        for i, f in enumerate(row):
            incidences[f].append((t, i))
    for f, pairs in enumerate(incidences):
        if len(pairs) != 2:
            raise NotPseudomanifoldError(
                f"not a closed pseudomanifold: {n - 1}-simplex {f} has "
                f"{len(pairs)} top-simplex face incidences, expected 2")
    return incidences


def _propagate_signs(complex, incidences):
    """BFS over the dual graph from each unvisited top simplex (lowest index
    first, starting sign +1).  Returns (signs, eta, component_count) where
    eta marks the (n-1)-simplices across which the tentative signs clash."""
    n = complex.dim
    signs = [0] * complex.counts[n]
    components = 0
    for seed in range(complex.counts[n]):
        if signs[seed]:
            continue
        components += 1
        signs[seed] = 1
        queue = [seed]
        while queue:
            t = queue.pop(0)
            for f in complex.faces[n][t]:
                (a, ia), (b, ib) = incidences[f]
                if a == b:
                    continue  # both sides on the same top simplex
                other = b if a == t else a
                want = signs[t] * (1 if (ia + ib) % 2 else -1)
                if signs[other] == 0:
                    signs[other] = want
                    queue.append(other)
    eta = []
    for f, ((a, ia), (b, ib)) in enumerate(incidences):
        balanced = signs[a] * (-1) ** ia + signs[b] * (-1) ** ib == 0
        eta.append(0 if balanced else 1)
    return signs, eta, components


def orient(complex):
    """Coherent orientation of a closed pseudomanifold.

    Returns a FundamentalCycle, or None when sign propagation across the
    dual graph meets a contradiction (the complex is non-orientable).
    Raises NotPseudomanifoldError when some (n-1)-simplex does not lie in
    exactly two top-simplex faces, or when the dual graph is disconnected
    inside a connected complex.
    """
    n = complex.dim
    if n == 0:
        return FundamentalCycle((1,) * complex.counts[0])
    if complex.counts[n] == 0:
        raise NotPseudomanifoldError("no top-dimensional simplices to orient")
    incidences = _top_face_incidences(complex)
    signs, eta, components = _propagate_signs(complex, incidences)
    if complex.is_connected() and components > 1:
        raise NotPseudomanifoldError(
            f"dual graph has {components} components inside a connected complex")
    if any(eta):
        return None
    cycle = FundamentalCycle(signs)
    column = IntegerMatrix(complex.counts[n], 1,
                           {(t, 0): s for t, s in enumerate(signs)})
    if not (boundary_matrix(complex, n) @ column).is_zero():
        raise AssertionError("orientation produced a non-cycle; incidence data corrupt")
    return cycle


# ---------------------------------------------------------------------------
# Covers as raw projection data (shared with the covers module)

class CoverProjection:
    """Projection data of a covering: per dimension, the base simplex under
    each cover simplex."""

    __slots__ = ("degree", "base_index")

    def __init__(self, degree, base_index):
        self.degree = degree
        self.base_index = tuple(tuple(xs) for xs in base_index)

    def base_of(self, k, idx):
        return self.base_index[k][idx]


def _subsimplex(complex, top, positions):
    """The iterated face of a top simplex spanned by the given vertex
    positions (a sorted tuple); returns its index in dimension len-1."""
    cur = top
    live = list(range(complex.dim + 1))
    d = complex.dim
    keep = set(positions)
    while len(live) > len(positions):
        # drop the largest vertex position not kept
        p = max(x for x in live if x not in keep)
        i = live.index(p)
        cur = complex.faces[d][cur][i]
        live.pop(i)
        d -= 1
    return cur


def orientation_double_cover(complex):
    """The orientable connected 2-sheeted cover of a non-orientable closed
    pseudomanifold, together with its projection data.

    Top simplices of the cover are (top, local orientation) pairs; lower
    simplices arise by gluing the lifted faces, matching sheets across each
    (n-1)-simplex according to whether the tentative orientations of the two
    sides agree.  The result is certified: simplex counts double, the cover
    validates, is connected, and orients.
    """
    n = complex.dim
    if n < 1:
        raise ValueError("orientation double cover needs dimension >= 1")
    incidences = _top_face_incidences(complex)
    if orient(complex) is not None:
        raise ValueError(
            "complex is already orientable; its orientation double cover "
            "would be the disconnected trivial cover")
    _, eta, _ = _propagate_signs(complex, incidences)

    parent = {}

    def find(key):
        root = key
        while parent.setdefault(root, root) != root:
            root = parent[root]
        while parent[key] != root:
            parent[key], key = root, parent[key]
        return root

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            if rb < ra:
                ra, rb = rb, ra
            parent[rb] = ra

    all_positions = tuple(range(n + 1))
    subsets = []
    for mask in range(1, 1 << (n + 1)):
        sel = tuple(p for p in all_positions if mask >> p & 1)
        if len(sel) <= n:
            subsets.append(sel)
    for t in range(complex.counts[n]):
        for u in (0, 1):
            for sel in subsets:
                find((t, u, sel))
    for f, ((a, ia), (b, ib)) in enumerate(incidences):
        pos_a = tuple(p for p in all_positions if p != ia)
        pos_b = tuple(p for p in all_positions if p != ib)
        for u in (0, 1):
            u2 = u ^ eta[f]
            for mask in range(1, 1 << n):
                sel = tuple(i for i in range(n) if mask >> i & 1)
                key_a = (a, u, tuple(pos_a[i] for i in sel))
                key_b = (b, u2, tuple(pos_b[i] for i in sel))
                union(key_a, key_b)

    # enumerate classes per dimension, ordered by canonical representative
    members = [{} for _ in range(n)]
    for key in list(parent):
        j = len(key[2]) - 1
        root = find(key)
        members[j].setdefault(root, []).append(key)
    index_of = [{} for _ in range(n)]
    counts = []
    base_index = []
    for j in range(n):
        roots = sorted(members[j])
        if len(roots) != 2 * complex.counts[j]:
            raise NotPseudomanifoldError(
                f"double cover degenerates in dimension {j}: "
                f"{len(roots)} lifted simplices over {complex.counts[j]}")
        for idx, root in enumerate(roots):
            for key in members[j][root]:
                index_of[j][key] = idx
        counts.append(len(roots))
        base_index.append(tuple(_subsimplex(complex, root[0], root[2]) for root in roots))
    counts.append(2 * complex.counts[n])
    base_index.append(tuple(t for t in range(complex.counts[n]) for _ in (0, 1)))

    faces = {}
    for j in range(1, n):
        rows = []
        roots = sorted(members[j])
        for root in roots:
            t, u, sel = root
            row = []
            for i in range(j + 1):
                sub = sel[:i] + sel[i + 1:]
                row.append(index_of[j - 1][find((t, u, sub))])
            rows.append(tuple(row))
        faces[j] = rows
    top_rows = []
    for t in range(complex.counts[n]):
        for u in (0, 1):
            row = []
            for i in range(n + 1):
                sel = tuple(p for p in all_positions if p != i)
                row.append(index_of[n - 1][find((t, u, sel))])
            top_rows.append(tuple(row))
    faces[n] = top_rows

    cover = DeltaComplex(counts, faces)
    report = validate_complex(cover)
    if not report.ok:
        raise AssertionError(f"double cover failed validation: {report.problems[0]}")
    if not cover.is_connected():
        raise AssertionError("orientation double cover came out disconnected")
    if orient(cover) is None:
        raise AssertionError("orientation double cover came out non-orientable")
    return cover, CoverProjection(2, base_index)


# ---------------------------------------------------------------------------
# Cap product duality

def _front_face(complex, top, m):
    """The face spanned by vertices 0..m of a top simplex."""
    cur = top
    for d in range(complex.dim, m, -1):
        cur = complex.faces[d][cur][d]
    return cur


def _back_face(complex, top, l):
    """The face spanned by the last l+1 vertices of a top simplex."""
    cur = top
    for d in range(complex.dim, l, -1):
        cur = complex.faces[d][cur][0]
    return cur


class _PresentedGroup:
    """ker(d_out)/im(d_in) with explicit integral coordinates.

    Presents the group as Z^z / im(relations) where z = nullity(d_out) and
    the relation matrix is d_in written in a kernel basis.  Generators come
    from the Smith form of the relations; `coords` maps cycles to Z^z.
    """

    def __init__(self, d_out, d_in):
        snf_out = smith_normal_form(d_out, keep_transforms=True)
        r = snf_out.rank
        z = d_out.cols - r
        self._kernel = IntegerMatrix(
            d_out.cols, z,
            {(i, j - r): v for (i, j), v in snf_out.V.items() if j >= r})
        self._v_inv = snf_out.V_inv
        self._rank_out = r
        lifted = snf_out.V_inv @ d_in
        rel_entries = {}
        for (i, j), v in lifted.items():
            if i < r:
                raise AssertionError("d_in does not land in ker(d_out)")
            rel_entries[i - r, j] = v
        self.relations = IntegerMatrix(z, d_in.cols, rel_entries)
        snf_rel = smith_normal_form(self.relations, keep_transforms=True)
        self._u_inv = snf_rel.U_inv
        # modulus per coordinate: invariant factor, or 0 for free coordinates
        moduli = list(snf_rel.divisors) + [0] * (z - snf_rel.rank)
        self.moduli = tuple(moduli)
        self.kept = tuple(i for i, q in enumerate(self.moduli) if q != 1)
        self.group = FgAbelianGroup(
            sum(1 for q in self.moduli if q == 0),
            tuple(q for q in self.moduli if q > 1))

    def generator_cochains(self):
        """One representative cycle per kept generator coordinate."""
        reps = self._kernel @ self._u_inv
        out = []
        for i in self.kept:
            out.append(IntegerMatrix(reps.rows, 1,
                                     {(r, 0): v for (r, c), v in reps.items() if c == i}))
        return out

    def coords(self, cycle_column):
        """Coordinates of a cycle in Z^z (presentation coordinates)."""
        w = self._v_inv @ cycle_column
        for (i, _), v in w.items():
            if i < self._rank_out and v:
                raise ValueError("not a cycle: nonzero component outside the kernel")
        z = self.relations.rows
        return IntegerMatrix(z, 1,
                             {(i - self._rank_out, 0): v for (i, _), v in w.items()
                              if i >= self._rank_out})


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

    def record(self, k):
        return self.records[k]


def cap_duality_check(complex, cycle):
    """Check that capping with the fundamental cycle induces isomorphisms
    H^{n-k} -> H_k in every degree k.

    The chain-level map sends a cochain phi to
        sum_t sign_t * phi(front face of t in dim n-k) * (back face of t in dim k),
    i.e. the cap product with the fundamental cycle.  Induced maps are
    computed on explicit Smith-basis generators; the verdict is
    "isomorphism" iff the groups agree as abstract groups and the map is
    onto (a surjection between isomorphic finitely generated abelian groups
    is automatically injective).
    """
    n = complex.dim
    if len(cycle.signs) != complex.counts[n]:
        raise ValueError("cycle has wrong number of coefficients")
    column = IntegerMatrix(complex.counts[n], 1,
                           {(t, 0): s for t, s in enumerate(cycle.signs)})
    if n >= 1 and not (boundary_matrix(complex, n) @ column).is_zero():
        raise ValueError("not a cycle: its boundary is nonzero")
    records = []
    for k in range(n + 1):
        m = n - k
        source = _PresentedGroup(
            _boundary_or_zero(complex, m + 1).transpose(),
            _boundary_or_zero(complex, m).transpose())
        target = _PresentedGroup(
            _boundary_or_zero(complex, k),
            _boundary_or_zero(complex, k + 1))
        image_cols = []
        for gen in source.generator_cochains():
            cap = {}
            for t, s in enumerate(cycle.signs):
                f = _front_face(complex, t, m)
                v = gen.entry(f, 0)
                if v:
                    b = _back_face(complex, t, k)
                    cap[b, 0] = cap.get((b, 0), 0) + s * v
            cap_col = IntegerMatrix(complex.counts[k], 1, cap)
            bnd = _boundary_or_zero(complex, k)
            if not (bnd @ cap_col).is_zero():
                raise AssertionError("cap image of a cocycle is not a cycle")
            image_cols.append(target.coords(cap_col))
        image_entries = {}
        for j, col in enumerate(image_cols):
            for (i, _), v in col.items():
                image_entries[i, j] = v
        images = IntegerMatrix(target.relations.rows, len(image_cols), image_entries)
        surjective = cokernel_structure(target.relations.hstack(images)).is_trivial()
        iso = surjective and source.group == target.group
        records.append(CapDualityRecord(k, source.group, target.group, iso))
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
    return made


def is_aspherical_builtin(complex):
    return complex.name in ASPHERICAL_BUILTINS or (
        complex.name or "").startswith("surface_")


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
    if not isinstance(dim, int) or dim < 0:
        raise ComplexFormatError("dim must be a nonnegative integer", "dim")
    counts = obj["counts"]
    if not isinstance(counts, list) or len(counts) != dim + 1:
        raise ComplexFormatError(f"counts must list {dim + 1} entries", "counts")
    for k, c in enumerate(counts):
        if not isinstance(c, int) or c < 0:
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
    faces = {}
    for k in range(1, dim + 1):
        rows = raw_faces[str(k)]
        if not isinstance(rows, list) or len(rows) != counts[k]:
            raise ComplexFormatError(
                f"expected {counts[k]} face lists", f"faces.{k}")
        fixed = []
        for j, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != k + 1:
                raise ComplexFormatError(
                    f"face list must have {k + 1} entries", f"faces.{k}[{j}]")
            for i, f in enumerate(row):
                if not isinstance(f, int) or f < 0:
                    raise ComplexFormatError(
                        "face index must be a nonnegative integer",
                        f"faces.{k}[{j}][{i}]")
            fixed.append(tuple(row))
        faces[k] = fixed
    return DeltaComplex(counts, faces, name=name)


def load_complex(path):
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    return complex_from_json(obj)
