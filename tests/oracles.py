"""Reference computations that only the tests use.

Each one is an independent route to a quantity the program computes another
way (Bareiss rank, the whole Smith transform V by a forward replay of the
elimination's log, homology from two boundaries, the cap duality check on a
whole cocycle basis, orientation signs by a breadth-first search,
translation actions decoded sheet by sheet, the projection of a cover read
off its faces), or a small reader or helper the program itself never needs.
"""

import math
from collections import deque

from homtower.covers import (
    MAX_WORD_LENGTH,
    PermutationAction,
    _canonical_rotation,
    _cyclic_reduce,
    _invert,
    edge_path_presentation,
)
from homtower.deltacomplex import (
    FundamentalCycle,
    _boundary_smith,
    boundary_matrix,
    homology_profile,
)
from homtower.intlinalg import (
    FgAbelianGroup,
    IntegerMatrix,
    _eliminate,
    cokernel_structure,
    from_decimal,
    smith_normal_form,
)


def kernel_basis(matrix):
    """Columns forming a basis of the integer kernel lattice: columns r..
    of the Smith transform V (r = rank), so they span a direct summand of
    Z^cols.  The whole-basis reference that integer_kernel is checked
    against."""
    snf = smith_normal_form(matrix, True)
    r = snf.rank
    return IntegerMatrix(matrix.cols, matrix.cols - r,
                         {(i, j - r): v for (i, j), v in snf.V.items() if j >= r})


def tracked_smith_transform(matrix):
    """The whole unimodular V of smith_normal_form's elimination, its
    divisor-1 columns included, with U @ A @ V diagonal: the logged column
    operations replayed forward on the identity (col_j -= u * c[j] * col_t
    for each (t, u, c) in log order), its columns put in pivot order.  The
    reference that the program's reverse replay is checked against."""
    log = []
    _, pivots, _ = _eliminate(matrix, log)
    n = matrix.cols
    columns = [{j: 1} for j in range(n)]
    for t, u, c in log:
        for j, v in c.items():
            if j != t:
                for i, x in columns[t].items():
                    columns[j][i] = columns[j].get(i, 0) - u * v * x
    done = set(pivots)
    order = pivots + [j for j in range(n) if j not in done]
    return IntegerMatrix(n, n, {(i, b): x for b, j in enumerate(order)
                                for i, x in columns[j].items()})


def _boundary_or_zero(complex, k):
    """Boundary matrix for any k, with the empty maps at the two ends."""
    if k < 1:
        return IntegerMatrix.zeros(0, complex.counts[0])
    if k > complex.dim:
        return IntegerMatrix.zeros(complex.counts[complex.dim], 0)
    return boundary_matrix(complex, k)


def rank_over_rationals(matrix):
    """Rank of an integer matrix over Q by fraction-free (Bareiss) elimination.

    Independent of the Smith normal form code on purpose: the two are
    cross-checked against each other.
    """
    m = matrix.to_rows()
    rows, cols = matrix.rows, matrix.cols
    rank = 0
    prev = 1
    for j in range(cols):
        pivot_row = None
        for i in range(rank, rows):
            if m[i][j]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        p = m[rank][j]
        for i in range(rank + 1, rows):
            if not m[i][j] and prev == 1:
                continue
            for jj in range(j + 1, cols):
                m[i][jj] = (p * m[i][jj] - m[i][j] * m[rank][jj]) // prev
            m[i][j] = 0
        prev = p
        rank += 1
        if rank == rows:
            break
    return rank


def homology_at(d_out, d_in):
    """ker(d_out) / im(d_in) as an abelian group.

    d_out is the boundary leaving the degree in question and d_in the one
    arriving; d_out @ d_in must vanish (checked).  The torsion equals the
    nontrivial invariant factors of d_in: the quotient of Z^n/im(d_in) by
    ker(d_out)/im(d_in) embeds in the free module im(d_out), so all torsion
    of the cokernel already lives in the homology group.
    """
    if d_out.cols != d_in.rows:
        raise ValueError(
            f"shape mismatch: d_out is {d_out.rows}x{d_out.cols} "
            f"but d_in is {d_in.rows}x{d_in.cols}")
    product = d_out @ d_in
    if not product.is_zero():
        (i, j), v = min(product.items())
        raise ValueError(
            f"not a chain complex: (d_out @ d_in)[{i}, {j}] = {v} != 0")
    nullity = d_out.cols - smith_normal_form(d_out).rank
    snf_in = smith_normal_form(d_in)
    return FgAbelianGroup(nullity - snf_in.rank, snf_in.nontrivial_divisors())


def chain_h1(complex):
    """H_1 from the full boundary matrices d_1 and d_2 (empty past the top
    dimension), with no forest rows dropped."""
    return homology_at(_boundary_or_zero(complex, 1), _boundary_or_zero(complex, 2))


def dim_mod_p(group, p):
    """dim over F_p of (group) tensor F_p."""
    return group.free_rank + sum(1 for t in group.torsion if t % p == 0)


def is_transitive(action):
    """Whether the sheet permutations of an action generate a transitive
    group, by a search over sheets along each permutation and its inverse."""
    perms = list(action.edge_perms)
    for perm in action.edge_perms:
        inverse = [0] * len(perm)
        for s, image in enumerate(perm):
            inverse[image] = s
        perms.append(inverse)
    seen = {0}
    frontier = [0]
    while frontier:
        s = frontier.pop()
        for perm in perms:
            if perm[s] not in seen:
                seen.add(perm[s])
                frontier.append(perm[s])
    return len(seen) == action.degree


def identity_matrix(n):
    return IntegerMatrix(n, n, {(i, i): 1 for i in range(n)})


def from_rows(row_lists):
    """The matrix with these rows (all of one length)."""
    cols = len(row_lists[0]) if row_lists else 0
    assert all(len(row) == cols for row in row_lists), row_lists
    return IntegerMatrix(len(row_lists), cols, {(i, j): v for i, row in enumerate(row_lists)
                                                for j, v in enumerate(row)})


def abelianization(presentation):
    """H_1 as the cokernel of the relator matrix."""
    return cokernel_structure(presentation.relator_matrix())


def presentation_smith(complex):
    """The edge-path presentation and the Smith form, with V, of its
    transposed relator matrix: V^T of the transpose is a U for the relator
    matrix, so its columns are the coordinates of H_1."""
    presentation = edge_path_presentation(complex)
    return presentation, smith_normal_form(presentation.relator_matrix().transpose(), True)


def quotient_coordinates(complex, modulus):
    """H_1(X) tensor Z/m in Smith coordinates, for this modulus alone:
    (coords, moduli, shifts).  Coordinate c has modulus gcd(d_c, m), m on a
    kernel column, and is kept where that is > 1; generator g shifts
    coordinate c by entry (g, c) of V, and a tree edge shifts by 0."""
    presentation, snf = presentation_smith(complex)
    full = [math.gcd(d, modulus) for d in snf.divisors] + [modulus] * (snf.cols - snf.rank)
    coords = tuple(c for c, q in enumerate(full) if q > 1)
    moduli = tuple(full[c] for c in coords)
    shifts = [(0,) * len(coords)] * presentation.edge_count
    for g, e in enumerate(presentation.generator_edges):
        shifts[e] = tuple(snf.V.entry(g, c) % q for c, q in zip(coords, moduli))
    return coords, moduli, shifts


def abelianization_action(complex, modulus):
    """The translation action of pi_1 on H_1(X) tensor Z/m, decoded sheet by
    sheet from quotient_coordinates (degree 1 when the quotient is
    trivial)."""
    _, moduli, shifts = quotient_coordinates(complex, modulus)
    return action_by_decoding(moduli, shifts)


def index2_record(report, kind, degree, prime=None):
    """The record of an index-2 report with this kind, degree and prime."""
    (record,) = [r for r in report.records if (r.kind, r.degree, r.prime) == (kind, degree, prime)]
    return record


def negated_cycle(cycle):
    return FundamentalCycle(tuple(-s for s in cycle.signs))


def matrix_from_decimal_rows(rows):
    """The inverse of IntegerMatrix.to_decimal_rows."""
    return from_rows([[from_decimal(s) for s in row] for row in rows])


def _front_face(complex, top, m):
    """The face spanned by vertices 0..m of a top simplex: the last vertex
    dropped until m+1 are left."""
    cur = top
    for d in range(complex.dim, m, -1):
        cur = complex.faces[d][cur][d]
    return cur


def _back_face(complex, top, l):
    """The face spanned by the last l+1 vertices of a top simplex: vertex 0
    dropped until l+1 are left."""
    cur = top
    for d in range(complex.dim, l, -1):
        cur = complex.faces[d][cur][0]
    return cur


def cap_duality_records_full_basis(complex, cycle):
    """(degree, source, target, isomorphism) per degree, with the cap map
    evaluated on a whole basis of the cocycle lattice ker d_{m+1}^T rather
    than on the cocycles that vanish on the unit pivots of d_m, and the
    front and back faces found by walkers of its own; the onto test and the
    groups are those of cap_duality_check."""
    n = complex.dim
    profile = homology_profile(complex, ())
    records = []
    for k in range(n + 1):
        m = n - k
        cocycles = kernel_basis(_boundary_or_zero(complex, m + 1).transpose())
        cap = {}
        for t, s in enumerate(cycle.signs):
            key = (_back_face(complex, t, k), _front_face(complex, t, m))
            cap[key] = cap.get(key, 0) + s
        images = IntegerMatrix(complex.counts[k], complex.counts[m], cap) @ cocycles
        assert (_boundary_or_zero(complex, k) @ images).is_zero(), (complex, k)
        span = smith_normal_form(_boundary_or_zero(complex, k + 1).hstack(images))
        cycle_rank = complex.counts[k] - (_boundary_smith(complex, k).rank if k else 0)
        surjective = span.rank == cycle_rank and not span.nontrivial_divisors()
        source, target = profile.cohomology(m), profile.group(k)
        records.append((k, source, target, surjective and source == target))
    return records


def orientation_by_search(complex):
    """The orientation pass by breadth-first search over the dual graph of
    a complex whose every (n-1)-simplex lies in exactly two top faces: from
    each unvisited top simplex, lowest index first, with sign +1.  Returns
    (incidences, signs, eta, component_count): incidences[f] lists the
    (top simplex, face slot) pairs on f in top-simplex order, and eta marks
    the (n-1)-simplices across which the signs clash."""
    n = complex.dim
    incidences = [[] for _ in range(complex.counts[n - 1])]
    for t, row in enumerate(complex.faces[n]):
        for i, f in enumerate(row):
            incidences[f].append((t, i))
    signs = [0] * complex.counts[n]
    components = 0
    for seed in range(complex.counts[n]):
        if signs[seed]:
            continue
        components += 1
        signs[seed] = 1
        queue = deque([seed])
        while queue:
            t = queue.popleft()
            for f in complex.faces[n][t]:
                (a, ia), (b, ib) = incidences[f]
                if a == b:
                    continue  # both sides on the same top simplex
                other = b if a == t else a
                if signs[other] == 0:
                    signs[other] = signs[t] * (1 if (ia + ib) % 2 else -1)
                    queue.append(other)
    eta = [0 if signs[a] * (-1) ** ia + signs[b] * (-1) ** ib == 0 else 1
           for (a, ia), (b, ib) in incidences]
    return incidences, signs, eta, components


def projection_from_faces(base, cover, degree):
    """The base simplex under each cover simplex, per dimension, read off
    the faces alone.

    Top simplex t lies over t // degree (build_cover numbers the lifts of
    top simplex b as b * degree + sheet, and the orientation double cover
    is build_cover of the orientation character), and face i of a simplex
    over b lies over face i of b.  Asserts that this gives every simplex
    exactly one base simplex, i.e. that the face maps commute with the
    projection, and that each base simplex has `degree` lifts.  Lower
    simplices are not assumed to be numbered base * degree + sheet.
    """
    n = base.dim
    projection = [None] * n + [[t // degree for t in range(cover.counts[n])]]
    for k in range(n, 0, -1):
        below = [None] * cover.counts[k - 1]
        for j, row in enumerate(cover.faces[k]):
            over = base.faces[k][projection[k][j]]
            for i, f in enumerate(row):
                assert below[f] in (None, over[i]), (k, j, i)
                below[f] = over[i]
        assert None not in below, k  # every simplex is a face of a top one
        projection[k - 1] = below
    for k in range(n + 1):
        for b in range(base.counts[k]):
            assert projection[k].count(b) == degree, (k, b)
    return projection


def _mixed_radix(moduli):
    """(decode, encode) between sheet numbers and digit tuples in the mixed
    radix of `moduli`, the first coordinate most significant."""
    strides = [math.prod(moduli[c + 1:]) for c in range(len(moduli))]

    def decode(sheet):
        return tuple(sheet // t % q for q, t in zip(moduli, strides))

    def encode(digits):
        return sum(v * t for v, t in zip(digits, strides))

    return decode, encode


def action_by_decoding(moduli, shifts):
    """The translation action sheet by sheet: decode each sheet into its
    digits in the mixed radix of `moduli`, translate them by the edge's
    shift, encode the result."""
    decode, encode = _mixed_radix(moduli)
    sheets = [decode(s) for s in range(math.prod(moduli))]
    return PermutationAction(len(sheets), [
        [encode(tuple((v + t) % q for v, t, q in zip(digits, shift, moduli)))
         for digits in sheets]
        for shift in shifts])


def reduction_by_decoding(finer, coarser):
    """The sheet map between two quotients (coords, moduli, ...) sheet by
    sheet: decode each sheet of the finer one, reduce the digits of the
    coarser one's coordinates, encode them there."""
    (fine_coords, fine_moduli, *_), (coarse_coords, coarse_moduli, *_) = finer, coarser
    decode, _ = _mixed_radix(fine_moduli)
    _, encode = _mixed_radix(coarse_moduli)
    positions = [fine_coords.index(c) for c in coarse_coords]
    return tuple(encode(tuple(decode(s)[p] % q for p, q in zip(positions, coarse_moduli)))
                 for s in range(math.prod(fine_moduli)))


def proves_abelian_scanning_every_relator(presentation):
    """covers.proves_abelian as it was before the generator index and the
    worklist: each Tietze step scans the relators from the first for one
    in which some generator occurs once, then tests and copies every other
    relator, rewriting those that hold the eliminated generator."""
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
            replacement = _invert(word[:pos]) + _invert(word[pos + 1:])
            if word[pos][1] == -1:
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
    if len(live) <= 1:
        return True
    canon_words = {_canonical_rotation(w) for w in words if w}
    for a, g in enumerate(sorted(live)):
        for h in sorted(live)[a + 1:]:
            comm = ((g, 1), (h, 1), (g, -1), (h, -1))
            if not {_canonical_rotation(comm), _canonical_rotation(_invert(comm))} & canon_words:
                return False
    return True
    canon_words = {_canonical_rotation(w) for w in words if w}
    for a, g in enumerate(sorted(live)):
        for h in sorted(live)[a + 1:]:
            comm = ((g, 1), (h, 1), (g, -1), (h, -1))
            if not {_canonical_rotation(comm), _canonical_rotation(_invert(comm))} & canon_words:
                return False
    return True
