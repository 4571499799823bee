"""Reference computations that only the tests use.

Each one is an independent route to a quantity the program computes another
way (Bareiss rank, homology from two boundaries, the cap duality check on a
whole cocycle basis, orientation signs by a breadth-first search, translation
actions decoded sheet by sheet, the projection of a cover read off its
faces), or a small reader or helper the program itself never needs.
"""

import math
from collections import deque

from homtower.covers import (
    MAX_WORD_LENGTH,
    AbelianQuotient,
    PermutationAction,
    _canonical_rotation,
    _cyclic_reduce,
    _invert,
    _presentation_smith,
)
from homtower.deltacomplex import (
    FundamentalCycle,
    _boundary_or_zero,
    _boundary_smith,
    homology_profile,
)
from homtower.intlinalg import (
    FgAbelianGroup,
    IntegerMatrix,
    cokernel_structure,
    kernel_basis,
    smith_normal_form,
)


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


def abelianization_action(complex, modulus):
    """The translation action of pi_1 on H_1(X) tensor Z/m, from the quotient
    that mod_power_tower builds for its first level (degree 1 when the
    quotient is trivial)."""
    presentation, snf = _presentation_smith(complex)
    return AbelianQuotient(presentation, snf, modulus).action()


def index2_record(report, kind, degree, prime=None):
    """The record of an index-2 report with this kind, degree and prime."""
    (record,) = [r for r in report.records if (r.kind, r.degree, r.prime) == (kind, degree, prime)]
    return record


def negated_cycle(cycle):
    return FundamentalCycle(tuple(-s for s in cycle.signs))


def matrix_from_decimal_rows(rows):
    """The inverse of IntegerMatrix.to_decimal_rows."""
    return from_rows([[int(s) for s in row] for row in rows])


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


def action_by_decoding(quotient):
    """AbelianQuotient.action() sheet by sheet: decode each sheet into its
    digits, translate them by the edge's shift, encode the result."""
    decode, encode = _mixed_radix(quotient.moduli)
    sheets = [decode(s) for s in range(quotient.size)]
    return PermutationAction(quotient.size, [
        [encode(tuple((v + t) % q for v, t, q in zip(digits, shift, quotient.moduli)))
         for digits in sheets]
        for shift in quotient._shifts])


def reduction_by_decoding(finer, coarser):
    """AbelianQuotient.reduction_to() sheet by sheet: decode each sheet of
    the finer quotient, reduce the digits of the coarser one's coordinates,
    encode them there."""
    decode, _ = _mixed_radix(finer.moduli)
    _, encode = _mixed_radix(coarser.moduli)
    positions = [finer.coords.index(c) for c in coarser.coords]
    return tuple(encode(tuple(decode(s)[p] % q for p, q in zip(positions, coarser.moduli)))
                 for s in range(finer.size))


def proves_abelian_reexpanding_every_relator(presentation):
    """covers.proves_abelian as it was before each Tietze step left alone
    the relators without the eliminated generator: every other relator is
    expanded and cyclically reduced again at every step."""
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
                expanded = []
                for g, e in other:
                    if g == target:
                        expanded.extend(replacement if e == 1 else _invert(replacement))
                    else:
                        expanded.append((g, e))
                reduced = _cyclic_reduce(expanded)
                if len(reduced) > MAX_WORD_LENGTH:
                    return False
                new_words.append(reduced)
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
