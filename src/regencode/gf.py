"""Binary extension field arithmetic GF(2^m) and exact linear algebra over it.

Field elements are ints in [0, 2^m); addition is XOR. Multiplication, inverse
and powers are lookups in log/antilog tables that each field builds once.
A matrix keeps each row as one segment, a start column and the entries from
there on, outside which the row is zero; a generator row keeps its first to
its last nonzero column. Rank and solve eliminate block by
block: each row spans its segment, overlapping spans merge into runs of
columns that tile the matrix, as the stacked generators of a composed code
split into its copies' column blocks, and each run is eliminated on its own
columns, its rows made dense only there. So a split costs the rows and
their nonzeros, not rows times columns. A solve reads its right-hand
side's segments as they are, made dense only in the rows it eliminates.
The pivot-row and matrix-product loops find nonzero entries with
itertools.compress, so they skip zeros at C speed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress


class SingularMatrixError(ArithmeticError):
    """Coefficient matrix does not have full column rank."""


class InconsistentSystemError(SingularMatrixError):
    """Right-hand side lies outside the column space."""


def _poly_deg(p: int) -> int:
    return p.bit_length() - 1


def _poly_mod(a: int, b: int) -> int:
    db = _poly_deg(b)
    while a.bit_length() - 1 >= db and a:
        a ^= b << (a.bit_length() - 1 - db)
    return a


def is_irreducible(poly: int) -> bool:
    """Trial division by every polynomial of degree 1..deg/2."""
    deg = _poly_deg(poly)
    if deg < 1:
        return False
    for q in range(2, 1 << (deg // 2 + 1)):
        if _poly_mod(poly, q) == 0:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """GF(2^m) described by its extension degree and modulus bitmask."""

    m: int
    modulus: int

    def __post_init__(self):
        if not 1 <= self.m <= 16:
            raise ValueError(f"extension degree {self.m} outside [1, 16]")
        if _poly_deg(self.modulus) != self.m:
            raise ValueError(
                f"modulus {self.modulus:#x} does not have degree {self.m}"
            )
        if not is_irreducible(self.modulus):
            raise ValueError(f"modulus {self.modulus:#x} is reducible")
        # not dataclass fields: equality, hash and repr stay (m, modulus)
        exp, log = _tables(self.m, self.modulus)
        object.__setattr__(self, "_exp", exp)
        object.__setattr__(self, "_log", log)
        object.__setattr__(self, "_elements", frozenset(range(1 << self.m)))

    @property
    def order(self) -> int:
        return 1 << self.m

    def holds(self, symbols: list[int]) -> bool:
        """Whether every one of symbols is an element: an int, and in range.

        Two set tests at C speed, cheaper than min and max for the few
        symbols of a base repair. The type test comes first: 1.0 == 1 passes
        the range test, and a list cannot be looked up in a set.
        """
        return {int}.issuperset(map(type, symbols)) and self._elements.issuperset(symbols)

    def add(self, a: int, b: int) -> int:
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        return self._exp[self._log[a] + self._log[b]] if a and b else 0

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            raise ValueError(f"negative exponent {e}")
        if a == 0:
            return 0 if e else 1
        return self._exp[self._log[a] * e % (self.order - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in a finite field")
        return self._exp[self.order - 1 - self._log[a]]


def _tables(m: int, modulus: int) -> tuple[list[int], list[int]]:
    """Antilog (doubled) and log tables over the first generator of GF(2^m)*.

    The generator need not be x (it is not under 0x11B). Doubling the antilog
    table lets exp[log a + log b] skip the reduction mod 2^m - 1.
    """
    order = 1 << m

    def times(a: int, b: int) -> int:  # carryless multiply reduced by the modulus
        result = 0
        while b:
            if b & 1:
                result ^= a
            b >>= 1
            a <<= 1
            if a & order:
                a ^= modulus
        return result

    for g in range(1, order):
        exp = [1]
        while (x := times(exp[-1], g)) != 1:
            exp.append(x)
        if len(exp) == order - 1:
            break
    log = [0] * order
    for i, x in enumerate(exp):
        log[x] = i
    return exp + exp, log


GF2 = FieldSpec(1, 0b11)
GF16 = FieldSpec(4, 0x13)
GF256 = FieldSpec(8, 0x11D)  # standard Reed-Solomon modulus


@lru_cache(maxsize=64)
def _index(n: int) -> tuple[int, ...]:
    """The column indices 0..n-1, for compress to pick the nonzero ones from.

    Built once per width: a range would make a new int for every entry past
    256 as compress steps over it (25 against 11 ns an entry).
    """
    return tuple(range(n))


class FieldMatrix:
    """Matrix over a FieldSpec, stored as one segment per row.

    A segment (start, entries) holds a row's entries from column `start`
    on; the row is zero outside it. The constructor takes dense rows and
    keeps each from its first to its last nonzero column (a zero row keeps
    none), sharing a row whose ends are both nonzero; from_segments takes
    segments as they are, zeros among their entries included. Both refuse
    an entry that is not a field element with ValueError. Products and
    solutions keep each row whole, as wide as the matrix. `data` renders
    the dense rows. A matrix shares what it is given without copying: no
    operation in this module mutates an operand (elimination works on its
    own rows), and a caller must not mutate rows or entries afterwards
    either, so composed codes share their parts' entries.
    """

    __slots__ = ("field", "rows", "cols", "segments")

    def __init__(self, field: FieldSpec, data: list[list[int]]):
        cols = len(data[0]) if data else 0
        segments = []
        for row in data:
            if len(row) != cols:
                raise ValueError("ragged rows")
            if not field.holds(row):
                raise ValueError(f"row holds an entry outside GF(2^{field.m})")
            segments.append(_trim(row))
        self.field, self.rows, self.cols, self.segments = field, len(data), cols, segments

    @classmethod
    def from_segments(
        cls, field: FieldSpec, cols: int, segments: list[tuple[int, list[int]]]
    ) -> "FieldMatrix":
        """The matrix of `cols` columns whose rows are the (start, entries) segments."""
        for start, entries in segments:
            if type(start) is not int or not field.holds(entries):
                raise ValueError(f"segment at {start!r} needs an int start and field entries")
            if start < 0 or start + len(entries) > cols:
                raise ValueError(f"segment at column {start} overruns {cols} columns")
        return _matrix(field, cols, segments)

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "FieldMatrix":
        return _matrix(field, n, [(i, [1]) for i in range(n)])

    @classmethod
    def column(cls, field: FieldSpec, vec: list[int]) -> "FieldMatrix":
        return _matrix(field, 1, [(0, [v]) for v in vec])

    @property
    def data(self) -> list[list[int]]:
        """The dense rows; a segment as wide as the matrix is its own row."""
        cols = self.cols
        return [
            entries
            if len(entries) == cols
            else [0] * start + entries + [0] * (cols - start - len(entries))
            for start, entries in self.segments
        ]

    def col_vector(self) -> list[int]:
        if self.cols != 1:
            raise ValueError("not a column vector")
        return [entries[0] if entries else 0 for _, entries in self.segments]

    def mul(self, other: "FieldMatrix") -> "FieldMatrix":
        """The product, one dense row per row of self; costs the nonzeros it meets."""
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        exp, log = self.field._exp, self.field._log
        width, right = other.cols, other.segments
        inner, outer = _index(self.cols), _index(width)
        out = []
        for start, entries in self.segments:
            row = [0] * width
            for t in compress(inner, entries):  # nonzeros only, found at C speed
                la, (at, brow) = log[entries[t]], right[start + t]
                for j in compress(outer, brow):
                    row[at + j] ^= exp[la + log[brow[j]]]
            out.append((0, row))
        return _matrix(self.field, width, out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldMatrix)
            and self.field == other.field
            and self.cols == other.cols
            and self.data == other.data
        )

    def __repr__(self) -> str:
        return f"FieldMatrix({self.rows}x{self.cols} over GF(2^{self.field.m}))"


def _matrix(field: FieldSpec, cols: int, segments: list) -> FieldMatrix:
    """A FieldMatrix of segments that fit by construction: no check."""
    matrix = FieldMatrix.__new__(FieldMatrix)
    matrix.field, matrix.rows, matrix.cols, matrix.segments = field, len(segments), cols, segments
    return matrix


def _trim(row: list[int], at: int = 0) -> tuple[int, list[int]]:
    """A dense row's segment, from its first to its last nonzero column.

    The row starts at column `at`; a zero row is (0, []), and a row whose
    ends are both nonzero is its own entries.
    """
    if row and row[0] and row[-1]:
        return at, row
    index = _index(len(row))
    first = next(compress(index, row), None)
    if first is None:
        return 0, []
    return at + first, row[first : len(row) - next(compress(index, reversed(row)))]


def _eliminate(field: FieldSpec, work: list[list[int]], cols: int):
    """In-place forward elimination on the leading `cols` columns.

    Returns the list of pivot row indices, one per column (None where the
    column has no pivot).
    """
    exp, log, group = field._exp, field._log, field.order - 1
    index = _index(len(work[0])) if work else ()
    pivots = []
    prow = 0
    nrows = len(work)
    for col in range(cols):
        piv = None
        for r in range(prow, nrows):
            if work[r][col]:
                piv = r
                break
        if piv is None:
            pivots.append(None)
            continue
        work[prow], work[piv] = work[piv], work[prow]
        lead = work[prow]
        scale = group - log[lead[col]]  # the inverse's log; exp is doubled, so no reduction
        # the pivot row is zero left of col: each earlier pivot cleared its column
        terms = [(j, log[lead[j]]) for j in compress(index, lead)]
        for j, lv in terms:  # scale the pivot to 1; terms keep the unscaled logs
            lead[j] = exp[scale + lv]
        for r in range(nrows):
            factor = work[r][col]
            if factor == 0 or r == prow:
                continue
            row, lf = work[r], (log[factor] + scale) % group
            for j, lv in terms:
                row[j] ^= exp[lf + lv]
        pivots.append(prow)
        prow += 1
    return pivots


# Matrices of at most this many entries are eliminated whole: below it the
# split's fixed cost outweighs what it saves. Whole against split, measured
# on block-diagonal GF(2^8) matrices (Python 3.11.7, 2-vCPU Xeon): a 2 x 2
# identity solve 13 against 24 us; 32 x 32 ranks 210-240 against 250-300 us;
# 64 x 64 within 12 % either way; 128 x 128 9-38 % and 256 x 256 34-56 %
# less time split.
WHOLE_MAX_ENTRIES = 4096


def _blocks(A: FieldMatrix, rhs: list[tuple[int, list[int]]] | None, rhs_cols: int):
    """Yield (width, work rows) for each column block of A, in column order.

    The blocks are the merged column spans of A's segments (_tiles). They
    tile the columns, as the stacked generators of a composed code split
    into its copies, and each row is zero outside its block: ranks and
    solutions add up block by block, and a zero column is one of its
    block's columns. The spans are read off the segments, so finding them
    costs one step a row. Each work row is a new list, the row's entries in
    its block's columns followed by its segment of rhs made dense over
    rhs_cols columns (rank passes no rhs and 0). A matrix of at most
    WHOLE_MAX_ENTRIES entries is yielded whole, without finding its spans.
    """
    segments, ncols = A.segments, A.cols
    if A.rows * ncols <= WHOLE_MAX_ENTRIES:
        yield ncols, _work(segments, range(A.rows), 0, ncols, rhs, rhs_cols)
        return
    for lo, hi, rows in _tiles(segments, ncols):
        yield hi - lo, _work(segments, rows, lo, hi, rhs, rhs_cols)


def _tiles(segments, ncols: int):
    """Yield (lo, hi, rows) for each merged column span of the segments, in column order.

    Each tile runs from the previous tile's end to its merged span's end,
    the last one to column ncols, so the tiles cover every column; rows
    lists the indices of the segments inside it, in span order. A zero
    row spans the last column alone.
    """
    spans = sorted(
        (start, start + len(entries), r) if entries else (ncols - 1, ncols, r)
        for r, (start, entries) in enumerate(segments)
    )
    lo = hi = 0
    rows = []
    for first, end, r in spans:
        if first >= hi and rows:  # no span so far reaches this one: the tile ends
            yield lo, hi, rows
            lo, rows = hi, []
        hi = max(hi, end)
        rows.append(r)
    yield lo, ncols, rows


def _work(segments, rows, lo: int, hi: int, rhs, rhs_cols: int) -> list[list[int]]:
    """Each of rows, dense over columns lo..hi-1, then its rhs segment over rhs_cols.

    Every segment of a nonzero row lies within the columns; a zero row's
    empty segment writes nothing.
    """
    width = hi - lo
    work, zeros = [], [0] * (width + rhs_cols)
    for r in rows:
        start, entries = segments[r]
        row = zeros[:]
        row[start - lo : start - lo + len(entries)] = entries
        if rhs_cols:
            at, tail = rhs[r]
            row[width + at : width + at + len(tail)] = tail
        work.append(row)
    return work


def mat_solve(A: FieldMatrix, b: FieldMatrix) -> FieldMatrix:
    """Solve A x = b exactly by Gauss-Jordan elimination, block by block.

    A may have more rows than columns; raises SingularMatrixError when the
    column rank is deficient and InconsistentSystemError when no x exists.
    Deficient rank takes precedence: it is reported even when the system is
    also inconsistent.
    """
    if A.rows != b.rows:
        raise ValueError("A and b row counts differ")
    x = []
    consistent = True
    for width, work in _blocks(A, b.segments, b.cols):
        pivots = _eliminate(A.field, work, width)
        if None in pivots:
            raise SingularMatrixError("coefficient matrix is rank deficient")
        for w in work[width:]:  # zero on the left past the pivots: so must the right be
            consistent = consistent and not any(w[width:])
        x += [(0, work[p][width:]) for p in pivots]
    if not consistent:
        raise InconsistentSystemError("no solution: inconsistent system")
    return _matrix(A.field, b.cols, x)


def mat_rank(A: FieldMatrix) -> int:
    """Rank of A: the sum of its column blocks' ranks."""
    rank = 0
    for width, work in _blocks(A, None, 0):
        pivots = _eliminate(A.field, work, width)
        rank += len(pivots) - pivots.count(None)
    return rank


def mat_inv(A: FieldMatrix) -> FieldMatrix:
    if A.rows != A.cols:
        raise ValueError("not square")
    return mat_solve(A, FieldMatrix.identity(A.field, A.rows))
