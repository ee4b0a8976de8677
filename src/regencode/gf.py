"""Binary extension field arithmetic GF(2^m) and dense linear algebra over it.

Field elements are ints in [0, 2^m); addition is XOR. Multiplication, inverse
and powers are lookups in log/antilog tables that each field builds once.
"""

from __future__ import annotations

from dataclasses import dataclass


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

    @property
    def order(self) -> int:
        return 1 << self.m

    def check(self, a: int) -> int:
        if not 0 <= a < self.order:
            raise ValueError(f"{a} is not a GF(2^{self.m}) element")
        return a

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


class FieldMatrix:
    """Dense matrix over a FieldSpec, stored as row lists of ints.

    The matrix takes ownership of `data` and its rows without copying them:
    no operation in this module mutates an operand (elimination works on its
    own rows), and a caller must not mutate `data` afterwards either.
    """

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: FieldSpec, data: list[list[int]]):
        self.field = field
        self.data = data
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.data else 0
        for row in self.data:
            if len(row) != self.cols:
                raise ValueError("ragged rows")

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "FieldMatrix":
        return cls(field, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def column(cls, field: FieldSpec, vec: list[int]) -> "FieldMatrix":
        return cls(field, [[v] for v in vec])

    def col_vector(self) -> list[int]:
        if self.cols != 1:
            raise ValueError("not a column vector")
        return [row[0] for row in self.data]

    def mul(self, other: "FieldMatrix") -> "FieldMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        exp, log = self.field._exp, self.field._log
        out = [[0] * other.cols for _ in range(self.rows)]
        for i, arow in enumerate(self.data):
            orow = out[i]
            for t, a in enumerate(arow):
                if a == 0:
                    continue
                la = log[a]
                for j, b in enumerate(other.data[t]):
                    if b:
                        orow[j] ^= exp[la + log[b]]
        return FieldMatrix(self.field, out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldMatrix)
            and self.field == other.field
            and self.data == other.data
        )

    def __repr__(self) -> str:
        return f"FieldMatrix({self.rows}x{self.cols} over GF(2^{self.field.m}))"


def _eliminate(field: FieldSpec, work: list[list[int]], cols: int):
    """In-place forward elimination on the leading `cols` columns.

    Returns the list of pivot row indices, one per pivoted column.
    """
    exp, log, group = field._exp, field._log, field.order - 1
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
        scale = log[field.inv(lead[col])]
        # the pivot row is zero left of col: each earlier pivot cleared its column
        terms = [(j, log[v]) for j, v in enumerate(lead[col:], col) if v]
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


def mat_solve(A: FieldMatrix, b: FieldMatrix) -> FieldMatrix:
    """Solve A x = b exactly by Gauss-Jordan elimination.

    A may have more rows than columns; raises SingularMatrixError when the
    column rank is deficient and InconsistentSystemError when no x exists.
    """
    if A.rows != b.rows:
        raise ValueError("A and b row counts differ")
    field = A.field
    work = [arow + brow for arow, brow in zip(A.data, b.data)]
    pivots = _eliminate(field, work, A.cols)
    if any(p is None for p in pivots):
        raise SingularMatrixError("coefficient matrix is rank deficient")
    rank = A.cols
    for r in range(rank, A.rows):
        if any(work[r][A.cols :]):
            raise InconsistentSystemError("no solution: inconsistent system")
    x = [work[p][A.cols :] for p in pivots]
    return FieldMatrix(field, x)


def mat_rank(A: FieldMatrix) -> int:
    work = [row[:] for row in A.data]
    pivots = _eliminate(A.field, work, A.cols)
    return sum(1 for p in pivots if p is not None)


def mat_inv(A: FieldMatrix) -> FieldMatrix:
    if A.rows != A.cols:
        raise ValueError("not square")
    return mat_solve(A, FieldMatrix.identity(A.field, A.rows))
