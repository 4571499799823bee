import math
import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import example, given, settings, strategies as st

from homtower.covers import (
    build_cover,
    edge_path_presentation,
    mod_power_tower,
    orientation_double_cover,
)
from homtower.deltacomplex import BUILTIN_NAMES, boundary_matrix, builtin
from homtower.intlinalg import (
    ExactnessViolation,
    FgAbelianGroup,
    IntegerMatrix,
    _clear_unit_pivots,
    _eliminate,
    cokernel_structure,
    integer_kernel,
    is_prime,
    rank_mod_p,
    ranks_mod_primes,
    smith_normal_form,
    soule_torsion_bound,
    verify_torsion_exactness_lemmas,
)
from oracles import (
    dim_mod_p,
    from_rows,
    homology_at,
    identity_matrix,
    kernel_basis,
    matrix_from_decimal_rows,
    rank_over_rationals,
    tracked_smith_transform,
)
from test_dimension3 import sol


# ---------------------------------------------------------------------------
# Independent oracles, used only by the tests.

def leibniz_det(rows):
    n = len(rows)
    if n == 0:
        return 1
    total = 0
    for perm in permutations(range(n)):
        inv = sum(1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b])
        sign = -1 if inv % 2 else 1
        prod = 1
        for i in range(n):
            prod *= rows[i][perm[i]]
            if prod == 0:
                break
        total += sign * prod
    return total


def bareiss_det(rows):
    """Determinant by fraction-free (Bareiss) elimination with row swaps."""
    m = [list(row) for row in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[k][k] * m[i][j] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * prev


def determinantal_divisors(rows, n_rows, n_cols):
    """d_k = gcd of all k x k minors; the SNF divisors are d_k / d_{k-1}."""
    out = []
    prev = 1
    for k in range(1, min(n_rows, n_cols) + 1):
        g = 0
        for rsel in combinations(range(n_rows), k):
            for csel in combinations(range(n_cols), k):
                minor = [[rows[i][j] for j in csel] for i in rsel]
                g = math.gcd(g, leibniz_det(minor))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


def fraction_gauss_rank(rows, n_rows, n_cols):
    m = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for j in range(n_cols):
        pivot = next((i for i in range(rank, n_rows) if m[i][j]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(n_rows):
            if i != rank and m[i][j]:
                scale = m[i][j] / m[rank][j]
                m[i] = [a - scale * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def dense_rank_mod_p(rows, n_rows, n_cols, p):
    m = [[v % p for v in row] for row in rows]
    rank = 0
    for j in range(n_cols):
        pivot = next((i for i in range(rank, n_rows) if m[i][j]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][j], -1, p)
        for i in range(n_rows):
            if i != rank and m[i][j]:
                f = (m[i][j] * inv) % p
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def fraction_soule_bound(matrix):
    """The column-norm torsion bound with the rank test over Fraction
    vectors: the greedy subset is scanned left to right, keeping a column
    iff it raises the rational rank of the kept set."""
    echelon = []  # (lead index, Fraction vector), sorted by lead
    log_bound = 0.0
    for column in matrix.columns():
        vec = [Fraction(column.get(i, 0)) for i in range(matrix.rows)]
        for lead, basis_vec in echelon:
            if vec[lead]:
                scale = vec[lead] / basis_vec[lead]
                for k in range(lead, matrix.rows):
                    vec[k] -= scale * basis_vec[k]
        lead = next((k for k in range(matrix.rows) if vec[k]), None)
        if lead is None:
            continue
        echelon.append((lead, vec))
        echelon.sort(key=lambda pair: pair[0])
        log_bound += 0.5 * math.log(sum(v * v for v in column.values()))
    return log_bound


def random_matrix(rng, rows, cols, bound):
    entries = {(i, j): rng.randint(-bound, bound)
               for i in range(rows) for j in range(cols)}
    return IntegerMatrix(rows, cols, entries)


# ---------------------------------------------------------------------------
# IntegerMatrix basics

def test_entry_access_is_bounds_checked():
    a = from_rows([[1, 2], [3, 4]])
    assert a[0, 1] == 2
    with pytest.raises(IndexError):
        a.entry(2, 0)
    with pytest.raises(IndexError):
        a.entry(0, -1)
    with pytest.raises(IndexError):
        IntegerMatrix(2, 2, {(5, 5): 1})


def test_integer_matrix_refuses_entries_and_indices_that_are_not_ints():
    # int() used to turn 2.7 into 2 (Smith divisor 2) and True into 1, and
    # a float index was stored and failed later inside the Smith form; a
    # bool or a float is refused, as a face index is by validate_complex
    for entries in ({(0, 0): 2.7}, {(0, 0): True}, {(0, 0): 2.0}, {(0, 0): "1"},
                    {(0.0, 0): 1}, {(0, 1.0): 1}, {(False, 0): 1}, {(0, True): 1}):
        with pytest.raises(ValueError, match="non-int index or value"):
            IntegerMatrix(2, 2, entries)
    for rows, cols in ((2.0, 2), (2, True), (-1, 2)):
        with pytest.raises(ValueError, match="must be nonnegative integers"):
            IntegerMatrix(rows, cols)
    assert IntegerMatrix(2, 2, {(0, 0): 0, (1, 1): -3}) == from_rows([[0, 0], [0, -3]])
    assert smith_normal_form(IntegerMatrix(1, 1, {(0, 0): 2})).divisors == (2,)


def test_matmul_and_transpose():
    a = from_rows([[1, 2], [3, 4]])
    b = from_rows([[0, 1], [1, 0]])
    assert (a @ b).to_rows() == [[2, 1], [4, 3]]
    assert a.transpose().to_rows() == [[1, 3], [2, 4]]
    with pytest.raises(ValueError):
        a @ IntegerMatrix.zeros(3, 1)


def test_decimal_round_trip_is_exact():
    big = 10 ** 40
    a = from_rows([[big, -1], [0, -big - 7]])
    assert matrix_from_decimal_rows(a.to_decimal_rows()) == a


def test_decimal_rows_past_the_digit_limit(default_digit_limit):
    # a 5000-digit entry: str() of it raises ValueError under CPython's limit
    big = 10 ** 4999 + 7
    a = from_rows([[big, 0], [-1, -big]])
    rows = a.to_decimal_rows()
    assert rows[0][1] == "0" and len(rows[0][0]) == 5000 and rows[1][1] == "-" + rows[0][0]
    assert matrix_from_decimal_rows(rows) == a


# ---------------------------------------------------------------------------
# Smith normal form

def test_smith_examples():
    assert smith_normal_form(from_rows([[2, 4], [6, 8]])).divisors == (2, 4)
    assert smith_normal_form(IntegerMatrix.zeros(0, 0)).divisors == ()
    assert smith_normal_form(identity_matrix(3)).divisors == (1, 1, 1)
    assert smith_normal_form(IntegerMatrix.zeros(4, 5)).divisors == ()


def test_smith_against_determinantal_divisor_oracle():
    rng = random.Random("snf-oracle")
    for _ in range(150):
        rows = rng.randint(0, 4)
        cols = rng.randint(0, 4)
        a = random_matrix(rng, rows, cols, 6)
        expected = determinantal_divisors(a.to_rows(), rows, cols)
        assert list(smith_normal_form(a).divisors) == expected, a.to_rows()


def test_smith_divisibility_chain_random():
    rng = random.Random("snf-chain")
    for _ in range(200):
        a = random_matrix(rng, rng.randint(0, 8), rng.randint(0, 8), 9)
        d = smith_normal_form(a).divisors
        assert all(x > 0 for x in d)
        assert all(b % x == 0 for x, b in zip(d, d[1:]))


def cover_boundaries():
    """Boundary matrices of the degree-16 torus cover and of surface g=2."""
    torus = builtin("torus2")
    tower = mod_power_tower(torus, 4, 1)
    cover, _ = build_cover(torus, tower.levels[0].action)
    assert cover.counts == (16, 48, 32)
    return [boundary_matrix(c, k) for c in (cover, builtin("surface", genus=2))
            for k in (1, 2)]


def test_boundaries_compose_to_zero():
    # validate_complex checks the face identities, which imply d o d = 0;
    # the product itself is checked here, on every built-in, both double
    # covers and the cover boundaries above (d_1 and d_2 of each complex)
    complexes = [builtin(name) for name in BUILTIN_NAMES if name != "surface"]
    complexes += [builtin("surface", genus=g) for g in (1, 2, 3)]
    complexes += [orientation_double_cover(builtin(name))[0] for name in ("klein_bottle", "rp2")]
    pairs = [(boundary_matrix(c, k - 1), boundary_matrix(c, k))
             for c in complexes for k in range(2, c.dim + 1)]
    covers = cover_boundaries()
    pairs += [(covers[0], covers[1]), (covers[2], covers[3])]
    for d_low, d_high in pairs:
        assert (d_low @ d_high).is_zero()


def assert_kept_columns(a, snf, whole):
    """The program's V is the whole tracked V at every column c with d_c > 1
    or c >= rank, and empty at every divisor-1 column."""
    start = snf.divisors.count(1)
    assert snf.V == IntegerMatrix(a.cols, a.cols, {
        (i, c): v for (i, c), v in whole.items() if c >= start}), a.to_rows()


def assert_v_certificate(a):
    """Check the whole tracked V of a's Smith form (tracked_smith_transform)
    without trusting the elimination: |det V| = 1 by Bareiss, a @ V is zero
    from column r = rank on, and column c < r is d_c times an integer
    column.  Those r columns have a's invariant factors, and divided by the
    d_c they span a direct summand (every invariant factor 1), so some
    unimodular U sends them to the unit vectors and U @ a @ V is the
    diagonal.  The divisors equal those of the call without V, and the
    program's V is that V at the columns it keeps.  Returns the
    decomposition."""
    snf = smith_normal_form(a, True)
    whole = tracked_smith_transform(a)
    assert_kept_columns(a, snf, whole)
    d, r = snf.divisors, snf.rank
    assert abs(bareiss_det(whole.to_rows())) == 1, a.to_rows()
    av = (a @ whole).columns()
    assert not any(av[r:]), a.to_rows()
    assert all(v % d[c] == 0 for c in range(r) for v in av[c].values()), a.to_rows()
    head = IntegerMatrix(a.rows, r, {(i, c): v for c in range(r) for i, v in av[c].items()})
    unit = IntegerMatrix(a.rows, r, {(i, c): v // d[c] for (i, c), v in head.items()})
    assert smith_normal_form(head).divisors == d, a.to_rows()
    assert smith_normal_form(unit).divisors == (1,) * r, a.to_rows()
    assert smith_normal_form(a).divisors == d, a.to_rows()
    return snf


def assert_smith_certificate(a):
    """The V certificate of a and of a^T, whose V^T is the U for a that the
    abelian quotients read; returns a's decomposition."""
    assert_v_certificate(a.transpose())
    return assert_v_certificate(a)


def sol_relator_matrix():
    """The 65 x 128 relator matrix of the degree-8 cyclic cover of the Sol
    bundle (level 3 of its mod-2 tower), with torsion Z/21 + Z/105 =
    coker(A^8 - I): its +-1 pass leaves a core that takes a logged column
    sweep, both ways round."""
    bundle = sol()
    cover, _ = build_cover(bundle, mod_power_tower(bundle, 2, 3).levels[-1].action)
    return edge_path_presentation(cover).relator_matrix()


def test_smith_transforms_reconstruct():
    rng = random.Random("snf-transforms")
    small = [random_matrix(rng, rng.randint(0, 6), rng.randint(0, 6), 9) for _ in range(80)]
    sol_relators = sol_relator_matrix()
    assert (sol_relators.rows, sol_relators.cols) == (65, 128)
    assert assert_smith_certificate(sol_relators).nontrivial_divisors() == (21, 105)
    for a in (sol_relators, sol_relators.transpose()):
        log = []
        _eliminate(a, log)
        assert any(t not in c for t, _, c in log)  # a core sweep: a pivot row holds its t
    for a in small + cover_boundaries():
        assert_smith_certificate(a)
        v = tracked_smith_transform(a)
        if v.rows <= 6:
            assert bareiss_det(v.to_rows()) == leibniz_det(v.to_rows())


@pytest.mark.parametrize("rows, divisors", [
    ([[2, 0], [0, 3]], (1, 6)),
    ([[4, 0], [0, 6]], (2, 12)),
    ([[3, 0], [0, 2]], (1, 6)),
    ([[1, 0, 0], [0, 2, 0], [0, 0, 3]], (1, 1, 6)),
    ([[2, 0, 0], [0, 4, 0], [0, 0, 6]], (2, 2, 12)),
], ids=["2-3", "4-6", "3-2", "unit-2-3", "2-4-6"])
def test_pivot_that_does_not_divide_the_rest(rows, divisors):
    # Each clean pivot here fails to divide an entry left elsewhere, so the
    # offending row must be folded into the pivot row before it is final.
    a = from_rows(rows)
    assert assert_smith_certificate(a).divisors == divisors


def test_inverse_transform_columns_from_a_v():
    # A @ V = U^-1 @ diag, so column c < rank of A @ V is d_c times a
    # column of U^-1, and those columns extend to a unimodular matrix: the
    # exactness lemma reads elements of coker R from them.
    rng = random.Random("snf-inverse-columns")
    verify_shaped = [random_matrix(rng, rng.randint(1, 4), rng.randint(0, 4), 5)
                     for _ in range(200)]
    for a in verify_shaped + cover_boundaries():
        assert_v_certificate(a)


def test_unit_pass_on_boundaries_with_torsion():
    # The +-1 pivots are cleared first and the least-|value| loop runs only
    # on the core left over; a divisor 2 can only come from a non-empty core.
    for name in ("rp2", "klein_bottle"):
        base = builtin(name)
        cover, _ = orientation_double_cover(base)
        for c in (base, cover):
            for k in (1, 2):
                a = boundary_matrix(c, k)
                assert_smith_certificate(a)
        assert smith_normal_form(boundary_matrix(base, 2)).divisors == (1, 2)
    for a in cover_boundaries():
        assert_smith_certificate(a)


@pytest.mark.parametrize("values", [(0, 0, 2, -2, 3, -3, 6, -6),
                                    (0, 0, 1, -1, 2, -2, 3, -3, 6, -6)],
                         ids=["no-units", "some-units"])
def test_unit_pass_hands_its_core_to_the_pivot_loop(values):
    # With no +-1 entry the unit pass does nothing; with some, the pass
    # stops on a core of non-units and the loop takes over from there.
    rng = random.Random(f"snf-unit-pass:{len(values)}")
    for _ in range(500):
        rows, cols = rng.randint(0, 7), rng.randint(0, 7)
        a = IntegerMatrix(rows, cols, {(i, j): rng.choice(values)
                                       for i in range(rows) for j in range(cols)})
        assert_smith_certificate(a)


def unit_pass_core(a):
    """Run the unit pass alone; return its count of ones and the core left."""
    row, col = [dict() for _ in range(a.rows)], [dict() for _ in range(a.cols)]
    for (i, j), v in a.items():
        row[i][j] = col[j][i] = v
    ones = len(_clear_unit_pivots(row, col, None))
    core = {(i, j): v for i, r in enumerate(row) for j, v in r.items()}
    assert core == {(i, j): v for j, c in enumerate(col) for i, v in c.items()}
    return ones, core


def test_unit_pass_leaves_no_unit_entry():
    # Every row the pass changes goes back on the heap, so no +-1 survives
    # into the core; on the cover boundaries nothing survives at all.
    rng = random.Random("snf-unit-core")
    for _ in range(100):
        _, core = unit_pass_core(random_matrix(rng, 6, 6, 3))
        assert all(abs(v) > 1 for v in core.values())
    for a in cover_boundaries():
        assert unit_pass_core(a) == (smith_normal_form(a).rank, {})


@st.composite
def small_matrices(draw):
    rows = draw(st.integers(0, 8))
    cols = draw(st.integers(0, 8))
    entries = draw(st.lists(st.integers(-6, 6), min_size=rows * cols, max_size=rows * cols))
    return IntegerMatrix(rows, cols, {(i, j): entries[i * cols + j]
                                      for i in range(rows) for j in range(cols)})


@settings(derandomize=True, max_examples=200, deadline=None)
@given(small_matrices())
def test_divisor_only_path_property(a):
    assert_smith_certificate(a)


def test_smith_is_deterministic():
    rng = random.Random("snf-det")
    for _ in range(20):
        a = random_matrix(rng, 5, 5, 9)
        s1 = smith_normal_form(a, True)
        s2 = smith_normal_form(a, True)
        assert s1.divisors == s2.divisors
        assert s1.V == s2.V


def test_tracking_v_leaves_the_elimination_unchanged():
    # The elimination does not depend on the flag, so the divisors and the
    # unit-pass columns are the same with V and without it.
    rng = random.Random("snf-keep")
    small = [random_matrix(rng, rng.randint(0, 6), rng.randint(0, 6), 9) for _ in range(100)]
    for a in small + cover_boundaries():
        with_v, without = smith_normal_form(a, True), smith_normal_form(a)
        assert with_v.V is not None and without.V is None
        assert (with_v.divisors, with_v.unit_columns) == (without.divisors, without.unit_columns)


def test_kernel_basis_is_the_kernel_columns_of_v():
    # kernel_basis's basis is columns r.. of the V that the decomposition
    # returns.
    rng = random.Random("kernel-v")
    inputs = [random_matrix(rng, rng.randint(0, 5), rng.randint(0, 5), 6) for _ in range(50)]
    for a in inputs + cover_boundaries():
        snf = smith_normal_form(a, True)
        r = snf.rank
        expected = IntegerMatrix(a.cols, a.cols - r,
                                 {(i, j - r): v for (i, j), v in snf.V.items() if j >= r})
        assert kernel_basis(a) == expected


def test_integer_kernel_is_the_kernel_columns_of_the_tracked_v():
    # integer_kernel lifts only columns rank.. of V; they are the whole
    # tracked transform's, which is built by a forward replay of the unit
    # pass's column operations instead of the reverse lift
    rng = random.Random("kernel-tracked")
    inputs = [random_matrix(rng, rng.randint(0, 6), rng.randint(0, 7), 4) for _ in range(200)]
    for a in inputs + cover_boundaries():
        whole, r = tracked_smith_transform(a), smith_normal_form(a).rank
        assert integer_kernel(a) == IntegerMatrix(a.cols, a.cols - r, {
            (i, c - r): v for (i, c), v in whole.items() if c >= r}), a.to_rows()


def test_one_smith_form_gives_the_subgroup_lemma_data():
    # coker[R | G] and coker[G | R] are the same group, so the V-only Smith
    # form of [G | R] gives tors C and the G block of ker[G | R].
    rng = random.Random("exactness-identity")
    for _ in range(500):
        t, u, s = rng.randint(1, 4), rng.randint(0, 4), rng.randint(0, 3)
        cap = rng.choice((1, 5, 10**6))
        R, G = random_matrix(rng, t, u, cap), random_matrix(rng, t, s, cap)
        snf = smith_normal_form(G.hstack(R), True)
        assert cokernel_structure(R.hstack(G)) == cokernel_structure(G.hstack(R))
        assert cokernel_structure(R.hstack(G)).torsion == snf.nontrivial_divisors()
        r = snf.rank
        proj = IntegerMatrix(s, s + u - r, {(i, j - r): v for (i, j), v in snf.V.items()
                                            if i < s and j >= r})
        ker = kernel_basis(G.hstack(R))
        assert proj == IntegerMatrix(s, ker.cols,
                                     {(i, j): v for (i, j), v in ker.items() if i < s})


def test_internal_results_are_checked_matrices():
    # transpose, hstack, products and the Smith transform V skip
    # the constructor's checks; each result must still be a matrix the
    # public constructor would build, with no zero stored.
    rng = random.Random("trusted")
    for _ in range(100):
        a = random_matrix(rng, rng.randint(0, 5), rng.randint(0, 5), 2)
        b = random_matrix(rng, a.cols, rng.randint(0, 5), 2)
        c = random_matrix(rng, a.rows, rng.randint(0, 5), 2)
        for x in (a.transpose(), a.hstack(c), a @ b, smith_normal_form(a, True).V):
            assert x == IntegerMatrix(x.rows, x.cols, dict(x.items()))
            assert all(type(v) is int and v for _, v in x.items())
    cancel = from_rows([[1, 1]]) @ from_rows([[1], [-1]])
    assert cancel.is_zero() and cancel.nnz() == 0


# ---------------------------------------------------------------------------
# Ranks

def test_rank_examples():
    assert rank_over_rationals(from_rows([[2, 0], [0, 3]])) == 2
    assert rank_over_rationals(IntegerMatrix.zeros(4, 5)) == 0
    assert rank_over_rationals(from_rows([[1, 2], [2, 4]])) == 1


def test_three_rank_routes_agree():
    rng = random.Random("ranks")
    for _ in range(150):
        rows, cols = rng.randint(0, 6), rng.randint(0, 6)
        a = random_matrix(rng, rows, cols, 9)
        by_snf = smith_normal_form(a).rank
        by_bareiss = rank_over_rationals(a)
        by_fractions = fraction_gauss_rank(a.to_rows(), rows, cols)
        assert by_snf == by_bareiss == by_fractions


def test_rank_mod_p_examples():
    a = from_rows([[2, 0], [0, 3]])
    assert rank_mod_p(a, 2) == 1
    assert rank_mod_p(a, 5) == 2
    assert rank_mod_p(identity_matrix(7), 3) == 7
    with pytest.raises(ValueError):
        rank_mod_p(a, 6)
    with pytest.raises(ValueError):
        rank_mod_p(a, 1)


def sparse_random_matrix(rng, rows, cols, density, bound):
    entries = {(i, j): rng.randint(-bound, bound)
               for i in range(rows) for j in range(cols) if rng.random() < density}
    return IntegerMatrix(rows, cols, entries)


def test_rank_mod_p_against_dense_oracle():
    rng = random.Random("rank-p")
    cases = [random_matrix(rng, rng.randint(0, 6), rng.randint(0, 6), 9) for _ in range(120)]
    # Sparse inputs of 20-40 rows and columns: elimination fills rows in, so
    # rows are pushed onto the pivot heap again and older entries go stale.
    # The products have rank at most `inner`, so most rows cancel to zero.
    for _ in range(30):
        rows, cols = rng.randint(20, 40), rng.randint(20, 40)
        cases.append(sparse_random_matrix(rng, rows, cols, rng.uniform(0.05, 0.3), 3))
        inner = rng.randint(1, 15)
        cases.append(sparse_random_matrix(rng, rows, inner, 0.3, 3)
                     @ sparse_random_matrix(rng, inner, cols, 0.3, 3))
    for a in cases:
        for p in (2, 3, 5, 7):
            assert rank_mod_p(a, p) == dense_rank_mod_p(a.to_rows(), a.rows, a.cols, p)


# Entries that leave rows without a unit of Z/N, N the product of the
# primes, so the shared elimination stops on a core that each prime finishes.
CORE_VALUES = ((1, -1, 2, 3, 5, 6, 10, 15, 30), (2, -2, 3, 5))


def test_ranks_mod_primes_against_dense_oracle():
    rng = random.Random("ranks-mod-primes")
    for trial in range(1600):
        rows, cols = rng.randint(0, 12), rng.randint(0, 12)
        values = CORE_VALUES[trial % 2]
        density = rng.random()
        a = IntegerMatrix(rows, cols, {(i, j): rng.choice(values)
                                       for i in range(rows) for j in range(cols)
                                       if rng.random() < density})
        primes = tuple(rng.sample((2, 3, 5, 7, 11, 13), rng.randint(1, 4)))
        expected = {p: dense_rank_mod_p(a.to_rows(), rows, cols, p) for p in primes}
        assert ranks_mod_primes(a, primes) == expected, (a.to_rows(), primes)


def test_ranks_mod_primes_finishes_a_unit_free_core():
    # No entry of [[2, 3], [3, 2]] is a unit mod 30: the whole matrix is the
    # core, and its determinant -5 drops the rank mod 5 only.
    a = from_rows([[2, 3], [3, 2]])
    assert ranks_mod_primes(a, (2, 3, 5)) == {2: 2, 3: 2, 5: 1}
    for name in ("klein_bottle", "rp2"):
        d2 = boundary_matrix(builtin(name), 2)
        assert ranks_mod_primes(d2, (2, 3, 5)) == {2: 1, 3: 2, 5: 2}, name
        assert ranks_mod_primes(d2, (5, 3, 2)) == {2: 1, 3: 2, 5: 2}, name


def test_ranks_mod_primes_prime_sets():
    a = from_rows([[2, 0], [0, 3]])
    assert ranks_mod_primes(a, (2, 3, 2, 3)) == ranks_mod_primes(a, (2, 3)) == {2: 1, 3: 1}
    assert ranks_mod_primes(a, ()) == {}
    for primes in ((2, 4), (4,), (1, 2)):
        with pytest.raises(ValueError):
            ranks_mod_primes(a, primes)
    for d in cover_boundaries():
        assert ranks_mod_primes(d, (2, 3, 5)) == {p: rank_mod_p(d, p) for p in (2, 3, 5)}


def test_is_prime_small():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1) and not is_prime(0) and not is_prime(-3)


def trial_division_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


# Strong pseudoprimes to the first k prime bases for k = 1, 4, 7, 9, 12
# (the last is psi_12) and Carmichael numbers: composites that weaker
# Miller-Rabin or Fermat tests call prime.
PSEUDOPRIMES = (2047, 3215031751, 341550071728321, 3825123056546413051,
                318665857834031151167461, 561, 1105, 1729, 2465, 2821, 6601)


def test_is_prime_is_deterministic_miller_rabin():
    assert all(is_prime(n) == trial_division_is_prime(n) for n in range(-3, 20000))
    rng = random.Random("miller-rabin")
    for n in [rng.randrange(10**6, 10**8) for _ in range(200)]:
        assert is_prime(n) == trial_division_is_prime(n), n
    assert not any(is_prime(n) for n in PSEUDOPRIMES)
    assert all(is_prime(p) for p in (2**61 - 1, 10**18 + 3, 10**24 + 7, 1287836182261))
    assert not is_prime((2**61 - 1) * 1000003)
    # psi_13, the least strong pseudoprime to the 13 bases, and anything
    # larger is refused: the test is proven only below it
    psi13 = 1287836182261 * 2575672364521
    assert not is_prime(psi13 - 2)
    for n in (psi13, psi13 + 2, 10**30 + 57):
        with pytest.raises(ValueError, match=f"proven only below {psi13}"):
            is_prime(n)


# ---------------------------------------------------------------------------
# Cokernels, kernels, homology

def test_cokernel_examples():
    assert cokernel_structure(from_rows([[2, 0], [0, 3]])) == FgAbelianGroup(0, (6,))
    assert cokernel_structure(from_rows([[1, 1], [1, -1]])) == FgAbelianGroup(0, (2,))
    assert cokernel_structure(IntegerMatrix.zeros(2, 2)) == FgAbelianGroup(2)


def test_fg_abelian_group_invariants():
    g = FgAbelianGroup(1, (2, 6))
    assert g.torsion_order == 12
    assert abs(g.log_torsion - math.log(12)) < 1e-12
    assert dim_mod_p(g, 2) == 3
    assert dim_mod_p(g, 3) == 2
    assert g.pretty() == "Z + Z/2 + Z/6"
    assert FgAbelianGroup(0).pretty() == "0"
    with pytest.raises(ValueError):
        FgAbelianGroup(0, (2, 3))  # not a divisibility chain
    with pytest.raises(ValueError):
        FgAbelianGroup(0, (1,))


@pytest.mark.parametrize("rank, torsion, named", [
    (1, (2.7,), "torsion coefficient 2.7 is not an int"),  # was read as Z + Z/2
    (2.0, (), "free rank 2.0 is not an int"),  # was printed Z^2.0
    (True, (), "free rank True is not an int"),  # was Z
    (0, (2, True), "torsion coefficient True is not an int"),
    (0, ("2",), "torsion coefficient '2' is not an int"),
], ids=["float-factor", "float-rank", "bool-rank", "bool-factor", "str-factor"])
def test_fg_abelian_group_refuses_values_that_are_not_ints(rank, torsion, named):
    with pytest.raises(ValueError, match=named):
        FgAbelianGroup(rank, torsion)


def assert_kernel_lattice_basis(a, k):
    """k is a basis of the integer kernel lattice of a: a @ k = 0, k has
    cols - rank columns, and k is saturated (every Smith divisor is 1), so
    no vector of the lattice lies outside its span."""
    assert (k.rows, k.cols) == (a.cols, a.cols - smith_normal_form(a).rank)
    assert (a @ k).is_zero()
    snf = smith_normal_form(k)
    assert snf.rank == k.cols and set(snf.divisors) <= {1}


@st.composite
def kernel_inputs(draw):
    # Each row is scaled by 0 (a zero row), 1 or a non-unit 2 or 3, and
    # each column kept or zeroed, so the unit pass leaves non-unit cores
    # as well as none.
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 8))
    entries = draw(st.lists(st.integers(-4, 4), min_size=rows * cols, max_size=rows * cols))
    scale = draw(st.lists(st.sampled_from((0, 1, 1, 2, 3)), min_size=rows, max_size=rows))
    keep = draw(st.lists(st.sampled_from((0, 1, 1, 1)), min_size=cols, max_size=cols))
    return IntegerMatrix(rows, cols, {(i, j): entries[i * cols + j] * scale[i] * keep[j]
                                      for i in range(rows) for j in range(cols)})


@settings(derandomize=True, max_examples=300, deadline=None)
@given(kernel_inputs())
@example(from_rows([[2, 0, 0], [0, 3, 0], [0, 0, 0]]))  # core only, a zero row and column
@example(from_rows([[1, 2, 3, 5], [0, 2, 4, 0], [0, 6, 0, 4]]))  # a unit, then a core
@example(from_rows([[0, 0], [0, 0]]))
def test_integer_kernel_is_a_lattice_basis(a):
    assert_kernel_lattice_basis(a, integer_kernel(a))


def test_integer_kernel_inputs_reach_the_core():
    # the examples above leave a non-unit core after the unit pass
    assert unit_pass_core(from_rows([[2, 0, 0], [0, 3, 0], [0, 0, 0]]))[1]
    assert unit_pass_core(from_rows([[1, 2, 3, 5], [0, 2, 4, 0], [0, 6, 0, 4]]))[1]


def test_kernel_basis_spans_kernel():
    rng = random.Random("kernel")
    inputs = [random_matrix(rng, rng.randint(0, 5), rng.randint(0, 5), 6) for _ in range(80)]
    for a in inputs + cover_boundaries():
        assert_kernel_lattice_basis(a, kernel_basis(a))


def test_homology_at_examples():
    # circle: one vertex, one edge, zero differentials in degree 1
    z = IntegerMatrix.zeros(1, 1)
    assert homology_at(z, z) == FgAbelianGroup(1)
    # standard two-triangle projective plane, degree 1
    d1 = from_rows([[-1, -1, 0], [1, 1, 0]])
    d2 = from_rows([[-1, 1], [1, -1], [1, 1]])
    assert homology_at(d1, d2) == FgAbelianGroup(0, (2,))
    # standard two-triangle torus, degree 1
    t1 = IntegerMatrix.zeros(1, 3)
    t2 = from_rows([[1, 1], [1, 1], [-1, -1]])
    assert homology_at(t1, t2) == FgAbelianGroup(2)


def test_homology_at_rejects_bad_input():
    d1 = from_rows([[1, 0], [0, 1]])
    with pytest.raises(ValueError, match="shape mismatch"):
        homology_at(d1, IntegerMatrix.zeros(3, 1))
    bad = from_rows([[1], [0]])
    with pytest.raises(ValueError, match=r"\[0, 0\]"):
        homology_at(d1, bad)


# ---------------------------------------------------------------------------
# The torsion bound for cokernels

def test_soule_bound_examples():
    a = from_rows([[2, 0], [0, 3]])
    assert abs(soule_torsion_bound(a) - math.log(6)) < 1e-12
    assert soule_torsion_bound(identity_matrix(2)) == 0.0
    b = from_rows([[1, 1], [1, -1]])
    assert abs(soule_torsion_bound(b) - math.log(2)) < 1e-12


def test_soule_bound_dominates_log_torsion():
    rng = random.Random("soule")
    for _ in range(300):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        a = random_matrix(rng, rows, cols, 5)
        bound = soule_torsion_bound(a)
        actual = cokernel_structure(a).log_torsion
        assert bound >= actual - 1e-9, a.to_rows()


def soule_stress_matrix(rng):
    """Shape 0-9 each way, entries up to 10^12, with zero columns and
    columns forced to be integer combinations of earlier ones."""
    rows, cols = rng.randint(0, 9), rng.randint(0, 9)
    bound = rng.choice((1, 5, 1000, 10**12))
    columns = []
    for _ in range(cols):
        kind = rng.random()
        if kind < 0.15:
            column = [0] * rows
        elif kind < 0.45 and columns:
            x, y = rng.choice(columns), rng.choice(columns)
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            column = [a * u + b * v for u, v in zip(x, y)]
        else:
            column = [rng.randint(-bound, bound) for _ in range(rows)]
        columns.append(column)
    return IntegerMatrix(rows, cols, {(i, j): column[i] for j, column in enumerate(columns)
                                      for i in range(rows)})


def test_soule_bound_equals_fraction_oracle_on_random_matrices():
    # The integer rank test keeps exactly the columns the Fraction one
    # keeps, and the float sum runs in the same order, so the two agree
    # bit for bit.
    rng = random.Random("soule-oracle")
    for _ in range(2000):
        a = soule_stress_matrix(rng)
        assert soule_torsion_bound(a) == fraction_soule_bound(a), a.to_rows()


def builtin_and_cover_boundaries():
    complexes = [builtin(name) for name in BUILTIN_NAMES if name != "surface"]
    complexes += [builtin("surface", genus=g) for g in (1, 2, 3)]
    out = [boundary_matrix(c, k) for c in complexes for k in range(1, c.dim + 1)]
    return out + cover_boundaries()


def test_soule_bound_equals_fraction_oracle_on_boundaries():
    for d in builtin_and_cover_boundaries():
        for a in (d, d.transpose()):
            assert soule_torsion_bound(a) == fraction_soule_bound(a), (a.rows, a.cols)


@st.composite
def wide_entry_matrices(draw):
    # Small and 10^12-sized entries; the last two columns repeat the first
    # scaled by 2 and -3, so dependent columns always occur.
    rows = draw(st.integers(0, 9))
    entry = st.one_of(st.integers(-3, 3), st.integers(-10**12, 10**12))
    columns = draw(st.lists(st.lists(entry, min_size=rows, max_size=rows),
                            min_size=1, max_size=7))
    columns += [[2 * v for v in columns[0]], [-3 * v for v in columns[0]]]
    return IntegerMatrix(rows, len(columns), {(i, j): v for j, column in enumerate(columns)
                                              for i, v in enumerate(column)})


@settings(derandomize=True, max_examples=200, deadline=None)
@given(wide_entry_matrices())
def test_soule_bound_fraction_oracle_property(a):
    assert soule_torsion_bound(a) == fraction_soule_bound(a)


def test_soule_skips_dependent_columns():
    # second column is dependent, third is zero; only the first contributes
    a = from_rows([[3, 6, 0], [0, 0, 0]])
    assert abs(soule_torsion_bound(a) - math.log(3)) < 1e-12


# ---------------------------------------------------------------------------
# Exactness lemma suite

def test_exactness_lemmas_hold():
    report = verify_torsion_exactness_lemmas(60, seed=7, size_cap=5)
    assert report == {"trials": 60, "passes": 60, "failures": 0}


def test_exactness_lemmas_reject_bad_trials():
    with pytest.raises(ValueError):
        verify_torsion_exactness_lemmas(0)


def test_exactness_violation_is_exported():
    assert issubclass(ExactnessViolation, AssertionError)
