"""Binary extension field arithmetic GF(2^m) and exact linear algebra over it.

Field elements are ints in [0, 2^m); addition is XOR. Multiplication, inverse
and powers are lookups in log/antilog tables that each field builds once.
A matrix keeps each row as one segment, a start column and the entries from
there on, outside which the row is zero. Solve packs each row of [A | b]
into one int, an 8-bit lane per entry (16-bit above GF(256)), and
eliminates them once (_eliminate, one kernel for every field): adding rows
is one int XOR, and a scalar times a row the XOR of the pivot row's
multiples by x^j at the scalar's set bits, so a row operation is a few
C-level int operations whatever its width. A composed code decodes and is
proved through its copy table, so the systems solved and ranked are its
parts'. Products walk each row's segment against elements (_mat_vec) or
forms, segments themselves (_mat_forms, also FieldMatrix.mul over the
other matrix's rows); trims and the tableau's pivots find nonzeros with
compress, at C speed. An exchange tableau (_Tableau) keeps rows grouped
by node as coordinates over a basis of them, and one walk (span) swaps a
node set's rows in: a base code keeps one (dss.LinearDss._exchange), which
MDS repair and both of the verifier's proofs walk from node set to node
set, and mat_rank counts its basis.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import compress
from operator import xor


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
        # packed rows (_pack): lane width and each element's set bits, for _eliminate
        object.__setattr__(self, "_lane", 8 if self.m <= 8 else 16)
        object.__setattr__(self, "_bits", _set_bits(self.m))

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


@lru_cache(maxsize=None)
def _set_bits(m: int) -> tuple[tuple[int, ...], ...]:
    """Per element of GF(2^m), the positions of its set bits, as _eliminate's row products read them."""
    if m == 0:
        return ((),)
    low = _set_bits(m - 1)
    return low + tuple(bits + (m - 1,) for bits in low)


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
    element with ValueError. Products keep each row trimmed to its
    nonzeros, solutions each row whole. `data` renders the dense rows. A
    matrix shares what it is given without copying: no operation in this
    module mutates an operand (elimination works on its own rows), and a
    caller must not mutate rows or entries afterwards either, so composed
    codes share their parts' entries.
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
        """The product, other's rows as forms (_mat_forms); costs the nonzeros it meets."""
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        if not other.rows:  # an empty inner dimension: zero rows
            return _matrix(self.field, other.cols, [(0, [])] * self.rows)
        product = _mat_forms(self.field, self.segments, other.segments)
        return _matrix(self.field, other.cols, product)

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


def _eliminate(field: FieldSpec, work: list[int], cols: int):
    """In-place Gauss-Jordan elimination of packed rows on their leading `cols` columns.

    Each row is one int, column j in lane j of field._lane bits (_pack).
    Returns the list of pivot row indices, one per column (None where the
    column has no pivot); pivots and rows are those of an elimination
    entry by entry. A scalar g times a row is the XOR, over the set bits j
    of g, of x^j times the row. Per pivot, x^j times the pivot row is
    taken for j up to the highest bit its scalars set, each from the last
    by shifting every lane left and folding the lanes that overflow back
    in by the modulus; a row update is then a few int XORs at any width.
    """
    exp, log, group, m, lane = field._exp, field._log, field.order - 1, field.m, field._lane
    bits, top, fold = field._bits, m - 1, field.modulus ^ field.order
    span = -(-max(map(int.bit_length, work), default=0) // lane) * lane
    ones = ((1 << span) - 1) // ((1 << lane) - 1)  # 1 in every lane
    low = ones * ((1 << top) - 1)  # every lane's bits below its top one
    pivots, prow, nrows = [], 0, len(work)
    for col in range(cols):
        at = col * lane
        for piv in range(prow, nrows):
            if work[piv] >> at & group:
                break
        else:
            pivots.append(None)
            continue
        work[prow], work[piv] = work[piv], work[prow]
        row = work[prow]
        scale = group - log[row >> at & group]  # the inverse's log; exp is doubled
        # each other row's scalar, its entry at col over the pivot's, and
        # the pivot row's, the inverse; need has every bit one of them sets
        scalars, inverse = [], exp[scale]
        need = inverse
        for r in range(nrows):
            if r != prow and (f := work[r] >> at & group):
                g = exp[log[f] + scale]
                scalars.append((r, g))
                need |= g
        times_x = [row]  # x^j times the pivot row, up to need's highest bit
        for _ in range(need.bit_length() - 1):
            row = (row & low) << 1 ^ (row >> top & ones) * fold
            times_x.append(row)
        pick = times_x.__getitem__
        for r, g in scalars:
            work[r] ^= reduce(xor, map(pick, bits[g]))
        work[prow] = reduce(xor, map(pick, bits[inverse]))
        pivots.append(prow)
        prow += 1
    return pivots


def _pack(field: FieldSpec, entries: list[int]) -> int:
    """A row of elements as one int, entry j in lane j (field._lane bits, little-endian)."""
    if field._lane == 8:
        return int.from_bytes(bytes(entries), "little")
    return int.from_bytes(struct.pack(f"<{len(entries)}H", *entries), "little")


def _unpack(field: FieldSpec, row: int, n: int) -> list[int]:
    """The first n lanes of a packed row as a list of elements: _pack undone."""
    if field._lane == 8:
        return list(row.to_bytes(n, "little"))
    return list(struct.unpack(f"<{n}H", row.to_bytes(2 * n, "little")))


def mat_solve(A: FieldMatrix, b: FieldMatrix) -> FieldMatrix:
    """Solve A x = b exactly by one Gauss-Jordan elimination of [A | b], rows packed (_pack).

    A may have more rows than columns; raises SingularMatrixError when the
    column rank is deficient and InconsistentSystemError when no x exists.
    Deficient rank takes precedence: it is reported even when the system
    is also inconsistent.
    """
    if A.rows != b.rows:
        raise ValueError("A and b row counts differ")
    field, width, work = A.field, A.cols, []
    for (start, entries), (at, tail) in zip(A.segments, b.segments):
        row = [0] * (width + b.cols)
        row[start : start + len(entries)] = entries
        row[width + at : width + at + len(tail)] = tail
        work.append(_pack(field, row))
    pivots = _eliminate(field, work, width)
    if None in pivots:
        raise SingularMatrixError("coefficient matrix is rank deficient")
    if any(work[width:]):  # zero on the left past the pivots: so must the right be
        raise InconsistentSystemError("no solution: inconsistent system")
    cut = width * field._lane
    return _matrix(field, b.cols, [(0, _unpack(field, work[p] >> cut, b.cols)) for p in pivots])


def mat_rank(A: FieldMatrix) -> int:
    """Rank of A: the basis its rows' exchange tableau takes, in one elimination."""
    return len(_Tableau(A.field, A.cols, {0: A.segments}).basis)


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
    maps each other row to its coordinates by position. One walk uses
    it: span swaps a node set's rows into the basis one Gauss-Jordan step
    (pivot) at a time, so the basis walks from one node set to the next at
    the cost of the rows swapped in, and answers whether they span. A
    tableau holds only its own lists.
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
        work = [_pack(field, column) for column in work]
        pivots = _eliminate(field, work, len(rows))
        self.basis = [r for r, p in enumerate(pivots) if p is not None]
        # each basic row's coordinate in every row
        columns = [_unpack(field, work[pivots[r]], len(rows)) for r in self.basis]
        self.coords = {i: [c[i] for c in columns] for i, p in enumerate(pivots) if p is None}
        self.full = len(self.basis) == width

    def span(self, chosen) -> bool:
        """Whether the rows of the chosen nodes span all `width` columns.

        False at once if the rows have rank below width. Otherwise each
        chosen row not yet basic enters by one pivot, at the first position
        whose basic row is not chosen and where its coordinate is nonzero;
        a row with no such position lies in the span of the chosen basic
        rows and stays out. Chosen rows only replace rows that are not, so
        a row left out stays in that span, and the chosen rows span iff
        every basic row is now chosen. The basis stays moved, a basis of
        the same rows, so the next call walks on from it.
        """
        if not self.full:
            return False
        basis, coords = self.basis, self.coords
        rows = [i for node in chosen for i in self.owned[node]]
        targets, index = set(rows), _index(len(basis))
        for q in rows:
            entering = coords.get(q)
            if entering is None:  # already basic
                continue
            for p in compress(index, entering):
                if basis[p] not in targets:
                    self.pivot(q, p)
                    break
        return targets.issuperset(basis)

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
