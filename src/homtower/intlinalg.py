"""Exact linear algebra over Z and over prime fields.

Everything here works with arbitrary-precision Python integers; there is no
fixed-width fast path, so torsion orders are never silently corrupted by
overflow.  Matrices are stored sparsely but behave like ordinary dense
integer matrices (out-of-range access is an error, never an implicit zero).

The Smith normal form is one elimination, with or without the transform V,
and rows and columns never move: each finished pivot is recorded and its row
and column emptied.  It first eliminates the +-1 pivots (each a divisor 1) in
the order of a row-length heap, as sparse integer Smith-form codes do; on
boundary maps of covers that usually leaves nothing.  The core of non-unit
entries left over uses a fixed pivot strategy: among the remaining entries,
pick one of minimal absolute value, breaking ties by lowest row then lowest
column.  This makes every decomposition reproducible and keeps intermediate
entries small on the incidence-like matrices that dominate our workload.  V
is never tracked: the elimination logs its column operations, the +-1 pass
its pivot rows and the core each column sweep, and the columns of V that
callers read come from one replay of that log in reverse.
"""

import heapq
import math
import random
from decimal import Decimal


class IntegerMatrix:
    """An immutable rows x cols matrix of Python ints, stored sparsely."""

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, rows, cols, entries=None):
        if type(rows) is not int or type(cols) is not int or rows < 0 or cols < 0:
            raise ValueError(f"matrix dimensions {rows!r} x {cols!r} must be nonnegative integers")
        self.rows = rows
        self.cols = cols
        data = {}
        if entries:
            for (i, j), v in entries.items():  # type(), so a bool is refused too
                if type(i) is not int or type(j) is not int or type(v) is not int:
                    raise ValueError(f"entry ({i!r}, {j!r}) = {v!r} has a non-int index or value")
                if not (0 <= i < rows and 0 <= j < cols):
                    raise IndexError(f"entry ({i}, {j}) outside {rows}x{cols} matrix")
                if v:
                    data[i, j] = v
        self._data = data

    @classmethod
    def _trusted(cls, rows, cols, data):
        """Wrap checked entries (in range, nonzero ints: intlinalg's own or a
        validated complex's) without the constructor's outside-input checks."""
        self = object.__new__(cls)
        self.rows, self.cols, self._data = rows, cols, data
        return self

    @classmethod
    def zeros(cls, rows, cols):
        return cls(rows, cols)

    def entry(self, i, j):
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry ({i}, {j}) outside {self.rows}x{self.cols} matrix")
        return self._data.get((i, j), 0)

    def __getitem__(self, key):
        i, j = key
        return self.entry(i, j)

    def items(self):
        """Iterate over ((i, j), value) for the nonzero entries."""
        return self._data.items()

    def nnz(self):
        return len(self._data)

    def is_zero(self):
        return not self._data

    def to_rows(self):
        out = [[0] * self.cols for _ in range(self.rows)]
        for (i, j), v in self._data.items():
            out[i][j] = v
        return out

    def to_decimal_rows(self):
        """Row-major entries as decimal strings (text round-trips exactly)."""
        return [[to_decimal(v) for v in row] for row in self.to_rows()]

    def transpose(self):
        return IntegerMatrix._trusted(self.cols, self.rows,
                                      {(j, i): v for (i, j), v in self._data.items()})

    def columns(self):
        """The nonzero entries grouped by column: list of dicts row -> value."""
        cols = [dict() for _ in range(self.cols)]
        for (i, j), v in self._data.items():
            cols[j][i] = v
        return cols

    def hstack(self, other):
        if self.rows != other.rows:
            raise ValueError("hstack needs matching row counts")
        entries = dict(self._data)
        for (i, j), v in other._data.items():
            entries[i, j + self.cols] = v
        return IntegerMatrix._trusted(self.rows, self.cols + other.cols, entries)

    def __matmul__(self, other):
        if not isinstance(other, IntegerMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        by_col = {}
        for (i, k), v in self._data.items():
            by_col.setdefault(k, []).append((i, v))
        acc = {}
        for (k, j), w in other._data.items():
            for i, v in by_col.get(k, ()):
                acc[i, j] = acc.get((i, j), 0) + v * w
        return IntegerMatrix._trusted(self.rows, other.cols,
                                      {k: v for k, v in acc.items() if v})

    def __eq__(self, other):
        if not isinstance(other, IntegerMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and self._data == other._data

    __hash__ = None

    def __repr__(self):
        if self.rows * self.cols <= 36:
            return f"IntegerMatrix({self.rows}, {self.cols}, {self._data!r})"
        return f"<IntegerMatrix {self.rows}x{self.cols}, {len(self._data)} nonzero>"


def to_decimal(n):
    """str(n) past CPython's int/str digit limit (4300 by default), via Decimal."""
    return str(Decimal(n))


def from_decimal(text):
    """int(text) for a string of decimal digits past that limit, likewise."""
    return int(Decimal(text))


class FgAbelianGroup:
    """A finitely generated abelian group Z^r (+) Z/t_1 (+) ... (+) Z/t_s.

    The torsion coefficients are invariant factors: each t_i >= 2 and
    t_1 | t_2 | ... | t_s, which makes equality of groups literal equality
    of the data.
    """

    __slots__ = ("free_rank", "torsion")

    def __init__(self, free_rank, torsion=()):
        torsion = tuple(torsion)
        if type(free_rank) is not int or free_rank < 0:  # type(), so a bool is refused too
            raise ValueError(f"free rank {free_rank!r} is not an int >= 0")
        for t in torsion:
            if type(t) is not int or t < 2:
                raise ValueError(f"torsion coefficient {t!r} is not an int >= 2")
        for a, b in zip(torsion, torsion[1:]):
            if b % a != 0:
                raise ValueError(f"torsion coefficients {torsion} violate the divisibility chain")
        self.free_rank = free_rank
        self.torsion = torsion

    @property
    def torsion_order(self):
        return math.prod(self.torsion)

    @property
    def log_torsion(self):
        return sum(math.log(t) for t in self.torsion)

    def __eq__(self, other):
        if not isinstance(other, FgAbelianGroup):
            return NotImplemented
        return self.free_rank == other.free_rank and self.torsion == other.torsion

    def __hash__(self):
        return hash((self.free_rank, self.torsion))

    def pretty(self):
        """Render as 'Z^r + Z/t1 + ...'; the trivial group is '0'."""
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{to_decimal(t)}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"FgAbelianGroup({self.free_rank}, {self.torsion!r})"


class SmithDecomposition:
    """Invariant factors of an integer matrix, with an optional transform.

    divisors are the positive diagonal entries d_1 | d_2 | ... | d_r of the
    Smith normal form; rank == len(divisors).  V, None unless it was asked
    for, is cols x cols: column c of a unimodular V with U @ A @ V the
    diagonal form, for some unimodular U (not kept), where d_c > 1 or
    c >= rank (the torsion and kernel columns), and empty where d_c = 1,
    which no caller reads; it is the product of the elimination's logged
    column operations, replayed in reverse on the unit vectors of the
    columns kept.  Column c < rank of U^-1 is (A @ V)[:, c] / d_c,
    and a U for A is V^T of the transpose's decomposition.  unit_columns
    lists the pivot columns of the +-1 pass in the order they were found.
    """

    __slots__ = ("divisors", "rows", "cols", "V", "unit_columns")

    def __init__(self, divisors, rows, cols, V=None, unit_columns=()):
        self.divisors = tuple(divisors)
        self.rows = rows
        self.cols = cols
        self.V = V
        self.unit_columns = tuple(unit_columns)
        for a, b in zip(self.divisors, self.divisors[1:]):
            if a <= 0 or b % a != 0:
                raise ValueError(f"divisors {self.divisors} violate the divisibility chain")
        if self.divisors and self.divisors[-1] <= 0:
            raise ValueError("divisors must be positive")

    @property
    def rank(self):
        return len(self.divisors)

    def nontrivial_divisors(self):
        return tuple(d for d in self.divisors if d > 1)


def _add_line(lines, cross, i, t, q):
    """lines[i] += q * lines[t], mirrored in cross: a row operation when the
    lines are the rows and cross the columns, a column operation the other
    way round.  The one update of the +-1 pass and of the core; i != t."""
    line = lines[i]
    for j, v in lines[t].items():
        nv = line.get(j, 0) + q * v
        if nv:
            line[j] = nv
            cross[j][i] = nv
        else:
            del line[j]
            del cross[j][i]


def _clear_unit_pivots(row, col, log):
    """Eliminate the +-1 pivots of the mirrored row and column dicts in
    place; return their columns in the order found, each a divisor 1.

    Rows wait in a lazy min-heap of (length, row), as in ranks_mod_primes:
    pop a shortest row (an entry whose length is stale is skipped) and
    pivot on its +-1 column with the fewest entries, ties by lowest column.
    Row operations clear that column; the column operations that clear
    the pivot row then change nothing else, so the row and column are
    simply emptied.  Every row changed and left nonzero is pushed again,
    so when the heap runs dry no +-1 entry is left.  Unless log is None,
    each pivot's column operations go to it as (column, unit, row), the
    row as it was when chosen (detached, so never changed again).
    """
    heap = [(len(r), i) for i, r in enumerate(row) if r]
    heapq.heapify(heap)
    pivots = []
    while heap:
        length, pi = heapq.heappop(heap)
        pivot_row = row[pi]
        if length != len(pivot_row):
            continue
        units = [j for j, v in pivot_row.items() if v == 1 or v == -1]
        if not units:
            continue
        pj = min(units, key=lambda j: (len(col[j]), j))
        u = pivot_row[pj]
        for i, c in list(col[pj].items()):
            if i != pi:
                _add_line(row, col, i, pi, -c * u)  # u is its own inverse
                if row[i]:
                    heapq.heappush(heap, (len(row[i]), i))
        row[pi] = {}
        for j in pivot_row:
            del col[j][pi]
        if log is not None:
            log.append((pj, u, pivot_row))
        pivots.append(pj)
    return pivots


def _eliminate(matrix, log=None):
    """The one elimination of every Smith form: (divisors, pivot columns in
    pivot order, how many of them the +-1 pass found).

    Rows and columns are mirrored dicts that never move: a finished pivot's
    row and column are emptied, so the entries left are exactly the part
    still to be eliminated.  The +-1 pass (_clear_unit_pivots) runs first.
    Then a least-|value| loop on the core of non-unit entries left over
    picks an entry of minimal |value| (ties by lowest row, then column),
    clears its column and row, moving to a smaller remainder whenever one
    is left, and folds in a row the pivot does not divide until it divides
    every entry left; so its divisors follow the ones in divisibility
    order.  Unless log is None, every column operation goes to it as
    (t, u, c), col_j -= u * c[j] * col_t for each j != t in c: the +-1
    pass logs its pivot rows, and each column sweep of the core,
    col_j -= q_j * col_pj, is (pj, 1, {j: q_j}).
    """
    row = [dict() for _ in range(matrix.rows)]
    col = [dict() for _ in range(matrix.cols)]
    for (i, j), v in matrix.items():
        row[i][j] = v
        col[j][i] = v
    pivots = _clear_unit_pivots(row, col, log)
    units = len(pivots)
    divisors = [1] * units
    while True:
        best = None  # (|value|, row, column) of a least entry left
        for i, r in enumerate(row):
            for j, v in r.items():
                key = (abs(v), i, j)
                if best is None or key < best:
                    best = key
            if best is not None and best[0] == 1:
                break  # no later row can beat a +-1 already found
        if best is None:
            break
        _, pi, pj = best
        while True:
            p = row[pi][pj]
            # Clear column pj; nonzero remainders shrink below |p| and one of
            # them becomes the next, strictly smaller pivot.
            for i, q in {i: q for i, v in col[pj].items() if i != pi and (q := v // p)}.items():
                _add_line(row, col, i, pi, -q)
            if rem := [i for i in col[pj] if i != pi]:
                pi = min(rem, key=lambda r: (abs(col[pj][r]), r))
                continue
            sweep = {j: q for j, v in row[pi].items() if j != pj and (q := v // p)}
            for j, q in sweep.items():
                _add_line(col, row, j, pj, -q)
            if sweep and log is not None:
                log.append((pj, 1, sweep))
            if rem := [j for j in row[pi] if j != pj]:
                pj = min(rem, key=lambda c: (abs(row[pi][c]), c))
                continue
            # Row and column are clear; the pivot must divide every entry
            # left, else fold the first offending row in and retry.
            bad = None if p in (1, -1) else next(
                (i for i, r in enumerate(row) if any(v % p for v in r.values())), None)
            if bad is None:
                break
            _add_line(row, col, pi, bad, 1)
        row[pi] = {}
        col[pj] = {}
        divisors.append(abs(p))  # U, not kept, absorbs the sign
        pivots.append(pj)
    return divisors, pivots, units


def _lift_columns(log, pivots, cols, start, shift=0):
    """The entries (j, b - shift) of columns b = start.. of V, whose columns
    are the pivot columns in pivot order, then the others.

    V is the product of the logged column operations in log order, so
    column b is that product applied to the unit vector at its column:
    the log replayed in reverse, where (t, u, c) changes only x[t],
    x[t] -= u * sum_{j != t} c[j] * x[j].  One pass makes every column
    read, kept as V's rows.
    """
    done = set(pivots)
    order = pivots + [j for j in range(cols) if j not in done]
    lines = {order[b]: {b - shift: 1} for b in range(start, cols)}  # row j: {b - shift: entry}
    for t, u, c in reversed(log):
        line = lines.get(t, {})
        for j, v in c.items():
            if j != t and (x_j := lines.get(j)):
                for b, x in x_j.items():
                    line[b] = line.get(b, 0) - u * v * x
        if line:
            lines[t] = line
    return {(j, b): x for j, line in lines.items() for b, x in line.items() if x}


def smith_normal_form(matrix, keep_transforms=False):
    """Smith normal form of an integer matrix: a SmithDecomposition whose
    divisors satisfy d_1 | d_2 | ... | d_r, from one elimination with rows
    and columns left in place (_eliminate), which does not depend on the
    flag.  keep_transforms, when true, also logs the elimination's column
    operations and returns V's torsion and kernel columns, from one
    reverse replay of that log (_lift_columns) made a matrix once; when
    false, nothing is logged and V is None.
    """
    log = [] if keep_transforms else None
    divisors, pivots, units = _eliminate(matrix, log)
    n = matrix.cols
    V = None
    if keep_transforms:
        V = IntegerMatrix._trusted(n, n, _lift_columns(log, pivots, n, divisors.count(1)))
    return SmithDecomposition(divisors, matrix.rows, n, V=V, unit_columns=pivots[:units])


# Miller-Rabin to the first 13 prime bases is proven correct below the least
# strong pseudoprime to all of them (Sorenson and Webster, Math. Comp. 2017).
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_LIMIT = 3317044064679887385961981


def is_prime(p):
    """Deterministic Miller-Rabin; a p >= PRIME_TEST_LIMIT is a ValueError,
    since the test is unproven there."""
    if p >= PRIME_TEST_LIMIT:
        raise ValueError(f"{p} is too large to test for primality: the test is "
                         f"proven only below {PRIME_TEST_LIMIT}")
    if p < 2 or any(p % a == 0 for a in PRIME_BASES):
        return p in PRIME_BASES
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2^s, d odd
    for a in PRIME_BASES:
        x = pow(a, (p - 1) >> s, p)
        if x == 1:
            continue
        for _ in range(s):
            if x == p - 1:
                break
            x = x * x % p
        else:
            return False
    return True


def rank_mod_p(matrix, p):
    """Rank over F_p, as ranks_mod_primes(matrix, (p,))[p]."""
    return ranks_mod_primes(matrix, (p,))[p]


def ranks_mod_primes(matrix, primes):
    """{p: rank over F_p} for each of the primes (a repeated one counts
    once, a non-prime is a ValueError), from one sparse elimination over Z/N,
    N the product of the primes.

    Z/N is the product of the fields F_p (Chinese remainder theorem), and an
    entry coprime to N is nonzero in each; so a step pivoting on it is, mod
    each p, a step over every F_p and adds one to every rank.  Pivot: a
    shortest row from a lazy min-heap of (length, row) (a stale length is
    skipped; a row changed and left nonzero is pushed again), and in it the
    unit whose column has the fewest entries, ties by lowest column.  A row
    without a unit waits; the core of rows left at the end is reduced mod
    each p and finished with that one prime, where every entry is a unit.
    """
    return _ranks_and_unit_columns(matrix, primes)[0]


def _ranks_and_unit_columns(matrix, primes):
    """(ranks_mod_primes(matrix, primes), the pivot columns of its unit phase
    over Z/N in pivot order); each pivot row was a combination of rows with
    a unit at its column and 0 at every earlier pivot column."""
    primes = sorted(set(primes))
    for p in primes:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
    if not primes:
        return {}, ()
    n = math.prod(primes)
    row = [dict() for _ in range(matrix.rows)]
    col = [dict() for _ in range(matrix.cols)]
    for (i, j), v in matrix.items():
        v %= n
        if v:
            row[i][j] = v
            col[j][i] = v
    heap = [(len(r), i) for i, r in enumerate(row) if r]
    heapq.heapify(heap)
    unit_columns = []
    while heap:
        length, pi = heapq.heappop(heap)
        pivot_row = row[pi]
        if length != len(pivot_row):
            continue
        units = [j for j, v in pivot_row.items() if math.gcd(v, n) == 1]
        if not units:
            continue
        pj = min(units, key=lambda j: (len(col[j]), j))
        inv = pow(pivot_row[pj], -1, n)
        row[pi] = {}
        for jj in pivot_row:
            del col[jj][pi]
        for i in list(col[pj]):
            factor = (col[pj][i] * inv) % n
            ri = row[i]
            for jj, v in pivot_row.items():
                nv = (ri.get(jj, 0) - factor * v) % n
                if nv:
                    ri[jj] = nv
                    col[jj][i] = nv
                else:
                    ri.pop(jj, None)
                    col[jj].pop(i, None)
            if ri:
                heapq.heappush(heap, (len(ri), i))
        unit_columns.append(pj)
    rank = len(unit_columns)
    core = {(i, j): v for i, r in enumerate(row) for j, v in r.items()}
    if not core:
        return dict.fromkeys(primes, rank), unit_columns
    return {p: rank + rank_mod_p(IntegerMatrix(matrix.rows, matrix.cols, {
        k: v % p for k, v in core.items()}), p) for p in primes}, unit_columns


def cokernel_structure(matrix):
    """Structure of Z^rows / (column span of the matrix)."""
    snf = smith_normal_form(matrix)
    free = matrix.rows - snf.rank
    return FgAbelianGroup(free, snf.nontrivial_divisors())


def integer_kernel(matrix):
    """Columns forming a basis of the integer kernel lattice: columns
    rank.. of smith_normal_form's V, the only ones replayed.  V is
    unimodular and U @ A @ V is the diagonal form, so A @ V is zero from
    column rank on and its first rank columns are independent: those
    columns of V span the kernel.
    """
    log = []
    divisors, pivots, _ = _eliminate(matrix, log)
    n, r = matrix.cols, len(divisors)
    return IntegerMatrix._trusted(n, n - r, _lift_columns(log, pivots, n, r, r))


def soule_torsion_bound(matrix):
    """log of the product of Euclidean column norms over a greedy column
    subset whose columns span the rational column space.

    The standard basis of the codomain is treated as orthonormal.  The
    returned value bounds log |tors coker| from above; the greedy subset is
    scanned left to right, keeping a column iff it raises the rational rank
    of the kept set.  The rank test is fraction-free: vec = c*vec - a*basis
    for each echelon vector in lead order (a/c their lead ratio in lowest
    terms); a kept vector is stored divided by the gcd of its entries.
    """
    rows = matrix.rows
    echelon = []  # (lead index, primitive integer vector), sorted by lead
    log_bound = 0.0
    for column in matrix.columns():
        vec = [column.get(i, 0) for i in range(rows)]
        for lead, basis in echelon:
            a = vec[lead]
            if a:
                g = math.gcd(a, basis[lead])
                a, c = a // g, basis[lead] // g
                vec = [c * x - a * y for x, y in zip(vec, basis)]
        lead = next((k for k, x in enumerate(vec) if x), None)
        if lead is None:
            continue
        g = math.gcd(*vec)
        echelon.append((lead, [x // g for x in vec]))
        echelon.sort(key=lambda pair: pair[0])
        log_bound += 0.5 * math.log(sum(v * v for v in column.values()))
    return log_bound


class ExactnessViolation(AssertionError):
    """A torsion inequality that is a theorem failed on a concrete witness.

    This falsifies the implementation, not the theorem; the witness payload
    carries every matrix needed to replay the trial.
    """

    def __init__(self, witness):
        super().__init__(f"torsion exactness lemma violated: {witness}")
        self.witness = witness


def _random_matrix(rng, rows, cols, size_cap):
    entries = {}
    for i in range(rows):
        for j in range(cols):
            v = rng.randint(-size_cap, size_cap)
            if v:
                entries[i, j] = v
    return IntegerMatrix(rows, cols, entries)


def verify_torsion_exactness_lemmas(trials, seed=0, size_cap=5):
    """Randomised check of the two torsion inequalities for exact sequences.

    Per trial, build B = Z^t / im(R) for a random R, then

    * pick random elements of B generating a subgroup A, set C = B/A, so
      0 -> A -> B -> C is exact by construction, and check
      |tors B| <= |tors A| * |tors C|;
    * pick a random finite A' with a homomorphism into B and C' = B / im,
      and check |tors B| <= |A'| * |tors C'|.

    Any violation raises ExactnessViolation carrying the witness matrices.
    Returns a report dict with trial counts.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(f"{seed}:exactness")
    for trial in range(trials):
        t = rng.randint(1, 4)
        u = rng.randint(0, 4)
        R = _random_matrix(rng, t, u, size_cap)
        snf_R = smith_normal_form(R, True)
        tors_B = math.prod(snf_R.nontrivial_divisors())

        # Lemma on 0 -> A -> B -> C: A generated by s random elements of B.
        s = rng.randint(0, 3)
        G = _random_matrix(rng, t, s, size_cap)
        # C = coker[R | G] = coker[G | R], so one Smith form gives tors C and
        # ker(Z^s -> B): the G block of ker[G | R], columns r.. of V.
        snf_GR = smith_normal_form(G.hstack(R), True)
        tors_C = math.prod(snf_GR.nontrivial_divisors())
        r = snf_GR.rank
        proj = IntegerMatrix._trusted(s, s + u - r, {(i, j - r): v for (i, j), v in snf_GR.V.items()
                                                     if i < s and j >= r})
        tors_A = cokernel_structure(proj).torsion_order
        if tors_B > tors_A * tors_C:
            raise ExactnessViolation({
                "lemma": "subgroup",
                "trial": trial,
                "R": R.to_decimal_rows(),
                "G": G.to_decimal_rows(),
                "tors_A": str(tors_A), "tors_B": str(tors_B), "tors_C": str(tors_C),
            })

        # Lemma on A' -> B -> C' with A' finite: images are elements of B
        # whose order divides the chosen cyclic orders.
        s2 = rng.randint(0, 3)
        orders = [rng.randint(1, size_cap + 1) for _ in range(s2)]
        divisors = snf_R.divisors
        # Column c < rank of U^-1 is column c of R @ V = U^-1 @ diag over d_c.
        RV = R @ snf_R.V
        image_entries = {}
        for jj, q in enumerate(orders):
            w = [0] * t
            for c, d in enumerate(divisors):
                g = math.gcd(d, q)
                w[c] = (d // g) * rng.randint(0, g - 1)
            # free coordinates stay zero so the element really has finite order
            for i in range(t):
                val = sum(RV.entry(i, c) // divisors[c] * w[c]
                          for c in range(len(divisors)) if w[c])
                if val:
                    image_entries[i, jj] = val
        X = IntegerMatrix(t, s2, image_entries)
        tors_C2 = cokernel_structure(R.hstack(X)).torsion_order
        order_A2 = math.prod(orders)
        if tors_B > order_A2 * tors_C2:
            raise ExactnessViolation({
                "lemma": "torsion-domain",
                "trial": trial,
                "R": R.to_decimal_rows(),
                "X": X.to_decimal_rows(),
                "order_A": str(order_A2), "tors_B": str(tors_B), "tors_C": str(tors_C2),
            })
    return {"trials": trials, "passes": trials, "failures": 0}
