"""Binary extension field arithmetic GF(2^m) and exact linear algebra over it.

Field elements are ints in [0, 2^m); addition is XOR. Multiplication, inverse
and powers are lookups in log/antilog tables that each field builds once.
A matrix keeps each row as one segment, a start column and the entries from
there on, outside which the row is zero; a generator row keeps its first to its
last nonzero column. Rank and solve take two paths: a matrix of at most
WHOLE_MAX_ENTRIES entries is eliminated whole, a larger one block by block.
Each row spans its segment, and overlapping spans merge into runs of columns
that tile the matrix, as the stacked generators of a composed code split into
its copies' column blocks. The blocks are grouped by their segments, and each
distinct one is laid out once, dense only on its own columns with its members'
right-hand sides side by side, and eliminated once. So a split costs the rows
and their nonzeros, not rows times columns. A matrix times a vector of elements
(_mat_vec), or of forms, segments themselves (_mat_forms), walks each row's
segment; the pivot-row and matrix-product loops find nonzeros with
itertools.compress, at C speed. An exchange tableau (_Tableau) keeps rows
grouped by node as coordinates over a basis of them: the verifier ranks node
sets by it, and MDS repair walks its basis from helper set to helper set.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, count


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
    segments as they are, zeros among their entries included; column takes
    one entry per row. All three refuse an entry that is not a field
    element with ValueError. Products and solutions keep each row whole, as
    wide as the matrix. `data` renders the dense rows. A matrix shares what
    it is given without copying: no operation in this module mutates an
    operand (elimination works on its own rows), and a caller must not
    mutate rows or entries afterwards either, so composed codes share their
    parts' entries.
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
        """The one-column matrix of vec; ValueError if an entry is not a field element."""
        if not field.holds(vec):
            raise ValueError(f"column holds an entry outside GF(2^{field.m})")
        return _column(field, vec)

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
            and _trimmed(self.segments) == _trimmed(other.segments)
        )

    def __repr__(self) -> str:
        return f"FieldMatrix({self.rows}x{self.cols} over GF(2^{self.field.m}))"


def _matrix(field: FieldSpec, cols: int, segments: list) -> FieldMatrix:
    """A FieldMatrix of segments that fit by construction: no check."""
    matrix = FieldMatrix.__new__(FieldMatrix)
    matrix.field, matrix.rows, matrix.cols, matrix.segments = field, len(segments), cols, segments
    return matrix


def _column(field: FieldSpec, vec: list[int]) -> FieldMatrix:
    """FieldMatrix.column of elements already checked: no check."""
    return _matrix(field, 1, [(0, [v]) for v in vec])


def _mat_vec(field: FieldSpec, segments: list, vec: list[int]) -> list[int]:
    """The segments' matrix times the column vec, as a list; no check.

    Row by row, the XOR over the nonzeros e of its segment, against vec's
    nonzeros m, of exp[log e + log m]: a product costs its nonzeros.
    """
    exp, log, out = field._exp, field._log, []
    for start, entries in segments:
        acc, j = 0, start
        for e in entries:
            if e and (m := vec[j]):
                acc ^= exp[log[e] + log[m]]
            j += 1
        out.append(acc)
    return out


def _mat_forms(field: FieldSpec, segments: list, forms: list) -> list:
    """The segments' matrix times a column of forms (segments), as forms; no check.

    Row by row, the XOR over the nonzeros e of its segment of e times the
    form at e's column, summed over the columns the forms cover and trimmed
    to its nonzeros (a zero row (0, [])): as in _mat_vec, a product costs
    the nonzeros it meets, and no form is laid out as a matrix.
    """
    exp, log, out = field._exp, field._log, []
    first, end = _span(forms)
    for start, entries in segments:
        acc = [0] * (end - first)
        for j, e in enumerate(entries, start):
            if e:
                at, form = forms[j]
                le, at = log[e], at - first
                for m in form:
                    if m:
                        acc[at] ^= exp[le + log[m]]
                    at += 1
        out.append(_trim(acc, first))
    return out


def _span(segments: list) -> tuple[int, int]:
    """The columns the segments cover, first to past the last."""
    first, end = segments[0][0], 0
    for start, entries in segments:
        if start < first:
            first = start
        if start + len(entries) > end:
            end = start + len(entries)
    return first, end


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


def _trimmed(segments: list) -> list:
    """The segments with their end zeros trimmed: equal iff their dense rows are."""
    return [_trim(entries, start) for start, entries in segments]


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


def _tiles(segments, ncols: int):
    """Yield (lo, hi, rows) for each merged column span of the segments, in column order.

    Each tile runs from the previous tile's end to its merged span's end,
    the last one to column ncols, so the tiles cover every column; rows
    lists the indices of the segments inside it, in span order. A zero
    row spans the last column alone. Each row is zero outside its tile, so
    ranks and solutions add up tile by tile; the tiles are found by a sort.
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
        if end > hi:
            hi = end
        rows.append(r)
    yield lo, ncols, rows


def _layout(segments, lo: int, width: int, rows, rhs, rhs_cols: int, later=()):
    """The work rows of the block of rows on the width columns from lo.

    Work row i is a new list: row i's entries there, then its rhs segment
    dense over rhs_cols columns (rank: no rhs, 0), then those of row i of
    each later group member, whose segments later holds member by member.
    """
    n, work = len(rows), []
    zeros = [0] * (width + (len(later) // (n or 1) + 1) * rhs_cols)
    for i, r in enumerate(rows):
        start, entries = segments[r]
        row = zeros[:]
        row[start - lo : start - lo + len(entries)] = entries
        if rhs_cols:
            at, tail = rhs[r]
            row[width + at : width + at + len(tail)] = tail
            at = width + rhs_cols
            for s, tail in later[i::n] if later else ():
                row[at + s : at + s + len(tail)] = tail
                at += rhs_cols
        work.append(row)
    return work


def _groups(A: FieldMatrix, rhs: list[tuple[int, list[int]]] | None, rhs_cols: int):
    """Yield (width, work rows, los) for each distinct column block of A.

    Two paths. A matrix of at most WHOLE_MAX_ENTRIES entries is one block,
    laid out whole without a key. Otherwise the blocks are A's tiles,
    keyed on their segments: the width, then each row's start in the
    block, length and entries. Each distinct block is laid out once
    (_layout), its first tile's rows with every member's rhs beside them,
    so one elimination serves them all; los lists the members' first
    columns, in order.
    """
    segments, ncols, groups = A.segments, A.cols, {}
    if A.rows * ncols <= WHOLE_MAX_ENTRIES:
        yield ncols, _layout(segments, 0, ncols, range(A.rows), rhs, rhs_cols), [0]
        return
    for lo, hi, rows in _tiles(segments, ncols):
        width = hi - lo
        key = [width]
        for r in rows:
            start, entries = segments[r]
            key += (start - lo, len(entries))
            key += entries
        key = tuple(key)
        if key in groups:
            groups[key][1].append(lo)
            groups[key][2] += [rhs[r] for r in rows] if rhs_cols else []
        else:
            groups[key] = [rows, [lo], []]
    for key, (rows, los, later) in groups.items():
        yield key[0], _layout(segments, los[0], key[0], rows, rhs, rhs_cols, later), los


def mat_solve(A: FieldMatrix, b: FieldMatrix) -> FieldMatrix:
    """Solve A x = b exactly by Gauss-Jordan elimination, block by block.

    Each distinct column block is eliminated once, its members' right-hand
    sides side by side (_groups). A may have more rows than columns; raises
    SingularMatrixError when the column rank is deficient and
    InconsistentSystemError when no x exists. Deficient rank takes
    precedence: it is reported even when the system is also inconsistent.
    """
    if A.rows != b.rows:
        raise ValueError("A and b row counts differ")
    x = [None] * A.cols
    consistent = True
    for width, work, los in _groups(A, b.segments, b.cols):
        pivots = _eliminate(A.field, work, width)
        if None in pivots:
            raise SingularMatrixError("coefficient matrix is rank deficient")
        for w in work[width:]:  # zero on the left past the pivots: so must the right be
            consistent = consistent and not any(w[width:])
        places = list(zip(los, count(width, b.cols)))  # each member's first unknown and rhs column
        for j, p in enumerate(pivots):
            for lo, at in places:
                x[lo + j] = (0, work[p][at : at + b.cols])
    if not consistent:
        raise InconsistentSystemError("no solution: inconsistent system")
    return _matrix(A.field, b.cols, x)


def mat_rank(A: FieldMatrix) -> int:
    """Rank of A: the sum of its column blocks' ranks, each distinct block ranked once."""
    rank = 0
    for width, work, los in _groups(A, None, 0):
        pivots = _eliminate(A.field, work, width)
        rank += (len(pivots) - pivots.count(None)) * len(los)
    return rank


def mat_inv(A: FieldMatrix) -> FieldMatrix:
    if A.rows != A.cols:
        raise ValueError("not square")
    return mat_solve(A, FieldMatrix.identity(A.field, A.rows))


class _Tableau:
    """Rows grouped by node, kept as coordinates over a basis of some of them.

    The rows, node by node, are laid out transposed (width x rows) and
    eliminated once (_eliminate, Gauss-Jordan): the pivot columns are the
    first independent rows, the basis, and each column then holds its row's
    coordinates over them, since row operations keep the linear relations
    among columns. `basis` lists the basic rows by position and `coords`
    maps each other row to its coordinates by position. Two uses:
    full_rank reads the minor a set of nodes swaps in and never moves the
    basis; move swaps rows into the basis one Gauss-Jordan step (pivot) at
    a time, so the basis walks from one row set to the next at the cost of
    the rows swapped in. A tableau holds only its own lists.
    """

    __slots__ = ("field", "owned", "basis", "coords", "full")

    def __init__(self, field: FieldSpec, width: int, nodes: dict):
        """nodes maps each node to its rows: segments, starts counted from the first column."""
        self.field, self.owned, rows = field, {}, []
        for node, node_rows in nodes.items():
            self.owned[node] = range(len(rows), len(rows) + len(node_rows))
            rows += node_rows
        work = [[0] * len(rows) for _ in range(width)]
        for i, (start, entries) in enumerate(rows):
            for c, e in enumerate(entries, start):
                work[c][i] = e
        pivots = _eliminate(field, work, len(rows))
        self.basis = [r for r, p in enumerate(pivots) if p is not None]
        columns = [work[pivots[r]] for r in self.basis]  # each basic row's coordinate in every row
        self.coords = {i: [c[i] for c in columns] for i, p in enumerate(pivots) if p is None}
        self.full = len(self.basis) == width

    def full_rank(self, chosen) -> bool:
        """Whether the rows of the chosen nodes have rank `width`.

        The rows S of the chosen nodes are X_S * G_R over the basis rows R,
        G_R of full row rank, so rank G_S = |S & R| + rank X[S - R, R - S]:
        S's basic rows are unit rows, which clear their own positions,
        leaving the minor of the rows S swaps in on the positions it leaves.
        """
        if not self.full:
            return False
        rows = [i for node in chosen for i in self.owned[node]]
        swapped = [self.coords[i] for i in rows if i in self.coords]  # S - R
        if len(rows) - len(swapped) == len(self.basis):  # S covers R
            return True
        taken = set(rows)
        left = [p for p, r in enumerate(self.basis) if r not in taken]  # R - S
        if len(swapped) < len(left):
            return False
        minor = [[x[p] for p in left] for x in swapped]
        return None not in _eliminate(self.field, minor, len(left))

    def move(self, rows: list[int]) -> list[int]:
        """Make rows the basis; return their positions in it, in rows' order.

        Each row not yet basic enters at a position whose basic row is not
        among rows and where its coordinate is nonzero; SingularMatrixError
        if there is none (the row lies in the span of rows already basic),
        or if rows are not as many as the basis. Rows already basic stay,
        so each pivot swaps one of rows in for good. A raise can leave the
        basis moved partway, a basis all the same.
        """
        if len(rows) != len(self.basis):
            raise SingularMatrixError(f"{len(rows)} rows are no basis of rank {len(self.basis)}")
        basis, targets = self.basis, set(rows)
        index = _index(len(basis))
        for q in rows:
            entering = self.coords.get(q)
            if entering is None:  # already basic
                continue
            for p in compress(index, entering):
                if basis[p] not in targets:
                    break
            else:
                raise SingularMatrixError(f"row {q} lies in the span of the others")
            self.pivot(q, p)
        place = {r: p for p, r in enumerate(basis)}
        return [place[r] for r in rows]

    def pivot(self, q: int, p: int) -> None:
        """Swap the non-basic row q in for the basic row at position p, where q is nonzero.

        The leaving row gets q's coordinates scaled by their inverse at p,
        its own coordinate on q that inverse; every other row with a
        nonzero coordinate at p takes one scaled XOR of it.
        """
        exp, log, coords = self.field._exp, self.field._log, self.coords
        entering = coords.pop(q)
        scale = self.field.order - 1 - log[entering[p]]  # the inverse's log
        leaving = [exp[scale + log[e]] if e else 0 for e in entering]
        leaving[p] = exp[scale]
        terms = [(j, log[leaving[j]]) for j in compress(_index(len(leaving)), leaving)]
        for row in coords.values():
            factor = row[p]
            if factor:
                row[p], lf = 0, log[factor]
                for j, lv in terms:
                    row[j] ^= exp[lf + lv]
        coords[self.basis[p]] = leaving
        self.basis[p] = q
