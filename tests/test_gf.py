import random
from itertools import combinations

import pytest

from regencode.gf import (
    GF2,
    GF16,
    GF256,
    FieldMatrix,
    FieldSpec,
    InconsistentSystemError,
    SingularMatrixError,
    _Tableau,
    _column,
    _eliminate,
    _mat_forms,
    _mat_vec,
    _matrix,
    _pack,
    _trim,
    _trimmed,
    _unpack,
    is_irreducible,
    mat_inv,
    mat_rank,
    mat_solve,
)


AES_FIELD = FieldSpec(8, 0x11B)  # x is not primitive under this modulus
GF65536 = FieldSpec(16, 0x1100B)


def reference_mul(field, a, b):
    """Independent oracle: carryless product, then reduction by the modulus."""
    product = 0
    for i in range(field.m):
        if b >> i & 1:
            product ^= a << i
    for shift in range(field.m - 2, -1, -1):
        if product >> (field.m + shift) & 1:
            product ^= field.modulus << shift
    return product


def brute_force_inverse_table(field):
    table = {}
    for a in range(1, field.order):
        for b in range(1, field.order):
            if field.mul(a, b) == 1:
                table[a] = b
                break
    return table


def test_gf2_characteristic():
    assert GF2.add(1, 1) == 0
    assert GF2.mul(1, 1) == 1


def test_gf256_inverse_against_brute_force():
    table = brute_force_inverse_table(GF256)
    assert len(table) == 255
    for a, b in table.items():
        assert GF256.inv(a) == b
    # frozen from the brute-force table: inv(2) differs per modulus
    assert table[2] == 142
    assert brute_force_inverse_table(AES_FIELD)[2] == 141


def test_multiplicative_group_order():
    rnd = random.Random(7)
    for field in (GF2, GF16, GF256):
        for _ in range(20):
            a = rnd.randrange(1, field.order)
            assert field.pow(a, field.order - 1) == 1
    assert GF256.pow(0, 0) == 1


def test_inv_zero_raises():
    with pytest.raises(ZeroDivisionError):
        GF256.inv(0)


def test_pow_rejects_negative_exponent():
    with pytest.raises(ValueError):
        GF256.pow(3, -1)


@pytest.mark.parametrize("field", [GF16, GF256, AES_FIELD], ids=["GF16", "GF256", "AES"])
def test_table_kernel_matches_the_reference(field):
    q = field.order
    for a in range(q):  # a = 0 pins pow(0, 0) == 1 and pow(0, e) == 0 for e > 0
        assert [field.mul(a, b) for b in range(q)] == [reference_mul(field, a, b) for b in range(q)]
        if a:
            assert reference_mul(field, a, field.inv(a)) == 1
        power = 1
        for e in range(2 * q + 1):
            assert field.pow(a, e) == power, (a, e)
            power = reference_mul(field, power, a)


def test_gf65536_builds_and_passes_random_identities():
    field = GF65536
    rnd = random.Random(16)
    for _ in range(200):
        a, b, c = (rnd.randrange(1, field.order) for _ in range(3))
        assert field.mul(a, b) == reference_mul(field, a, b)
        assert field.mul(a, field.mul(b, c)) == field.mul(field.mul(a, b), c)
        assert field.mul(a, b ^ c) == field.mul(a, b) ^ field.mul(a, c)
        assert field.mul(a, field.inv(a)) == 1
        assert field.pow(a, field.order - 1) == 1


def test_fields_compare_by_degree_and_modulus_alone():
    same = FieldSpec(8, 0x11D)
    assert same == GF256 and hash(same) == hash(GF256)
    assert same != AES_FIELD
    assert repr(same) == "FieldSpec(m=8, modulus=285)"


@pytest.mark.parametrize("field", [GF2, GF16, GF256])
def test_field_axioms_random(field):
    rnd = random.Random(field.m)
    for _ in range(200):
        a, b, c = (rnd.randrange(field.order) for _ in range(3))
        assert field.mul(a, field.mul(b, c)) == field.mul(field.mul(a, b), c)
        assert field.mul(a, field.add(b, c)) == field.add(
            field.mul(a, b), field.mul(a, c)
        )
        assert field.add(a, b) == field.add(b, a)
        assert field.mul(a, b) == field.mul(b, a)
        if a:
            assert field.mul(a, field.inv(a)) == 1


def test_irreducibility_check():
    assert not is_irreducible(1)  # degree 0: a unit, no field extension
    assert is_irreducible(0b111)  # x^2 + x + 1
    assert not is_irreducible(0b101)  # x^2 + 1 = (x+1)^2
    assert is_irreducible(0x11D)
    assert not is_irreducible(0x11C)  # divisible by x
    with pytest.raises(ValueError):
        FieldSpec(2, 0b101)
    with pytest.raises(ValueError):
        FieldSpec(8, 0b111)  # degree mismatch
    with pytest.raises(ValueError):
        FieldSpec(0, 0b11)


def test_mat_solve_identity():
    A = FieldMatrix.identity(GF256, 4)
    b = FieldMatrix.column(GF256, [9, 8, 7, 6])
    assert mat_solve(A, b).col_vector() == [9, 8, 7, 6]


def test_mat_solve_vandermonde_multiply_back():
    rnd = random.Random(3)
    for _ in range(20):
        x0, x1 = rnd.sample(range(256), 2)
        A = FieldMatrix(GF256, [[1, x0], [1, x1]])
        b = FieldMatrix.column(GF256, [rnd.randrange(256), rnd.randrange(256)])
        x = mat_solve(A, b)
        assert A.mul(x).col_vector() == b.col_vector()


def test_mat_solve_singular():
    A = FieldMatrix(GF256, [[1, 0], [1, 0]])  # all-zero column
    b = FieldMatrix.column(GF256, [1, 1])
    with pytest.raises(SingularMatrixError):
        mat_solve(A, b)


def test_mat_solve_overdetermined_inconsistent():
    A = FieldMatrix(GF2, [[1, 0], [0, 1], [1, 1]])
    good = mat_solve(A, FieldMatrix.column(GF2, [1, 0, 1]))
    assert good.col_vector() == [1, 0]
    with pytest.raises(InconsistentSystemError):
        mat_solve(A, FieldMatrix.column(GF2, [1, 0, 0]))


def test_mat_rank():
    assert mat_rank(FieldMatrix(GF256, [[0] * 4 for _ in range(3)])) == 0
    A = FieldMatrix(GF256, [[1, 2], [3, 4], [1, 2]])  # duplicated row
    assert mat_rank(A) == mat_rank(FieldMatrix(GF256, [[1, 2], [3, 4]]))
    assert mat_rank(FieldMatrix.identity(GF16, 5)) == 5


def test_mat_inv_round_trip():
    rnd = random.Random(11)
    for _ in range(10):
        pts = rnd.sample(range(256), 3)
        A = FieldMatrix(GF256, [[GF256.pow(x, j) for j in range(3)] for x in pts])
        assert A.mul(mat_inv(A)) == FieldMatrix.identity(GF256, 3)


@pytest.mark.parametrize(
    "call",
    [
        lambda: FieldMatrix(GF256, [[1, 2]]).col_vector(),  # two columns
        lambda: FieldMatrix(GF256, [[1, 2]]).mul(FieldMatrix.identity(GF256, 3)),
        lambda: mat_solve(FieldMatrix.identity(GF256, 2), FieldMatrix.column(GF256, [1, 2, 3])),
        lambda: mat_inv(FieldMatrix(GF256, [[1, 2]])),  # not square
    ],
    ids=["col_vector", "mul", "mat_solve", "mat_inv"],
)
def test_shape_mismatches_raise_value_error(call):
    with pytest.raises(ValueError):
        call()


def test_a_product_over_an_empty_inner_dimension_is_zero():
    # a 1x0 matrix times a 0x3 one: one zero row of three columns
    product = FieldMatrix(GF256, [[]]).mul(FieldMatrix.from_segments(GF256, 3, []))
    assert (product.rows, product.cols, product.data) == (1, 3, [[0, 0, 0]])
    # a product row is trimmed to its nonzeros and renders whole
    A = FieldMatrix(GF256, [[1, 0], [0, 0]])
    product = A.mul(FieldMatrix(GF256, [[0, 7, 0], [1, 1, 1]]))
    assert product.segments == [(1, [7]), (0, [])]
    assert product.data == [[0, 7, 0], [0, 0, 0]]


def test_matrices_equal_by_their_rows_not_their_segments():
    # a segment may keep zeros at its ends; equality reads the rows they render
    A = FieldMatrix(GF256, [[0, 5, 0], [0, 0, 0], [1, 2, 3]])
    padded = FieldMatrix.from_segments(GF256, 3, [(0, [0, 5, 0]), (1, [0, 0]), (0, [1, 2, 3])])
    assert padded.segments != A.segments and padded == A
    assert FieldMatrix.from_segments(GF256, 3, [(1, [5]), (0, []), (0, [1, 2, 3])]) == A
    assert FieldMatrix.from_segments(GF256, 3, [(2, [5]), (0, []), (0, [1, 2, 3])]) != A
    assert FieldMatrix(GF256, [[0, 5, 0], [0, 0, 0]]) != A  # a row fewer
    assert FieldMatrix(GF16, A.data) != A  # another field
    assert FieldMatrix(GF256, [row + [0] for row in A.data]) != A  # a column more


def test_matrix_keeps_its_rows_and_operations_leave_them_unchanged():
    rows = [[1, 2, 3], [4, 5, 6]]
    # a row nonzero at both ends is its own segment, and renders as itself
    kept = FieldMatrix(GF256, rows)
    assert all(entries is row for (_, entries), row in zip(kept.segments, rows))
    assert all(a is b for a, b in zip(kept.data, rows))
    assert FieldMatrix(GF256, [[0, 5, 0, 6, 0], [0] * 5]).segments == [(1, [5, 0, 6]), (0, [])]
    segments = [(1, [7, 0, 9]), (5, [])]
    assert FieldMatrix.from_segments(GF256, 5, segments).segments is segments
    with pytest.raises(ValueError, match="overruns"):
        FieldMatrix.from_segments(GF256, 3, [(1, [7, 0, 9])])
    with pytest.raises(ValueError, match="ragged"):
        FieldMatrix(GF256, [[1, 2], [3]])
    rnd = random.Random(5)
    pts = rnd.sample(range(1, 256), 4)
    A = FieldMatrix(GF256, [[GF256.pow(x, j) for j in range(3)] for x in pts])
    x = FieldMatrix(GF256, [[rnd.randrange(256) for _ in range(2)] for _ in range(3)])
    b = A.mul(x)
    square = FieldMatrix(GF256, A.data[:3])
    before = [[row[:] for row in m.data] for m in (A, x, b, square)]
    assert mat_solve(A, b) == x
    assert mat_rank(A) == 3
    assert square.mul(mat_inv(square)) == FieldMatrix.identity(GF256, 3)
    assert [m.data for m in (A, x, b, square)] == before


def test_matrix_refuses_entries_outside_the_field():
    # a negative entry would index the log table from its end (a rank of 1),
    # 300 would overrun it, a float start would fail later with a TypeError
    for data in ([[-1, 2]], [[300, 1]], [[1, 2.0]], [[1, [2]]]):
        with pytest.raises(ValueError, match="outside"):
            FieldMatrix(GF256, data)
    with pytest.raises(ValueError, match="outside"):
        FieldMatrix(GF2, [[1, 2]])
    for segments in ([(0.5, [1])], [(0, [-1])], [(1, [256])], [(0, [1.0])]):
        with pytest.raises(ValueError, match="needs an int start"):
            FieldMatrix.from_segments(GF256, 3, segments)
    assert mat_rank(FieldMatrix(GF256, [[255, 2]])) == 1
    # -1 would multiply as 255, 300 would overrun the log table in a solve
    for vec in ([-1], [300], [1.0]):
        with pytest.raises(ValueError, match="outside"):
            FieldMatrix.column(GF256, vec)
    assert FieldMatrix(GF256, [[2]]).mul(FieldMatrix.column(GF256, [255])).col_vector() == [227]


def _random_block(rnd, field, full):
    """A rows x cols block; with full set, of full column rank (retried until so)."""
    cols = rnd.randint(1, 9)
    rows = cols + rnd.randint(0, 3) if full else rnd.randint(1, cols + 3)
    while True:
        block = [
            [rnd.randrange(1, field.order) if rnd.random() < 0.6 else 0 for _ in range(cols)]
            for _ in range(rows)
        ]
        if not full or mat_rank(FieldMatrix(field, block)) == cols:
            return block


def _block_diagonal_case(rnd, field):
    """Blocks placed on the diagonal, plus zero rows and columns, then shuffled.

    Returns the matrix and, per block, its rows' and columns' places in it;
    zero rows are listed as blocks with no columns.
    """
    full = rnd.random() < 0.6  # every block of full column rank, so some solves succeed
    blocks = [_random_block(rnd, field, full) for _ in range(rnd.randint(1, 24))]
    zero_rows, zero_cols = rnd.randint(0, 3), rnd.choice([0, 0, 0, 1, 2])
    ncols = sum(len(b[0]) for b in blocks) + zero_cols
    col_at = list(range(ncols))
    if rnd.random() < 0.5:  # otherwise every block keeps contiguous columns
        rnd.shuffle(col_at)
    data, places, col = [], [], 0
    for block in blocks:
        cols = [col_at[c] for c in range(col, col + len(block[0]))]
        rows = list(range(len(data), len(data) + len(block)))
        for brow in block:
            row = [0] * ncols
            for c, v in zip(cols, brow):
                row[c] = v
            data.append(row)
        places.append((rows, cols))
        col += len(block[0])
    places.append((list(range(len(data), len(data) + zero_rows)), []))
    data += [[0] * ncols for _ in range(zero_rows)]
    order = list(range(len(data)))
    rnd.shuffle(order)
    row_at = {old: new for new, old in enumerate(order)}
    places = [([row_at[r] for r in rows], cols) for rows, cols in places]
    return FieldMatrix(field, [data[old] for old in order]), places


def _sub(field, data, rows, cols):
    return FieldMatrix(field, [[data[r][c] for c in cols] for r in rows])


@pytest.mark.parametrize("field", [GF2, GF16, GF256], ids=["GF2", "GF16", "GF256"])
def test_block_diagonal_systems_agree_with_their_blocks(field):
    """Rank, solutions and failures of shuffled block-diagonal systems, block by block."""
    rnd = random.Random(900 + field.m)
    outcomes = set()
    for _ in range(40):
        A, places = _block_diagonal_case(rnd, field)
        width = rnd.randint(1, 3)
        x0 = [[rnd.randrange(field.order) for _ in range(width)] for _ in range(A.cols)]
        rhs = A.mul(FieldMatrix(field, x0)).data
        if rnd.random() < 0.5:  # one disturbed entry: inconsistent unless its block absorbs it
            r = rnd.randrange(A.rows)
            rhs[r][rnd.randrange(width)] ^= rnd.randrange(1, field.order)
        b, data = FieldMatrix(field, rhs), A.data  # data renders the rows: once a case
        before = ([row[:] for row in data], [row[:] for row in rhs])

        ranks = [mat_rank(_sub(field, data, rows, cols)) if cols else 0 for rows, cols in places]
        assert mat_rank(A) == sum(ranks)
        singular = sum(ranks) < A.cols
        inconsistent = any(
            mat_rank(FieldMatrix(field, [[data[r][c] for c in cols] + rhs[r] for r in rows]))
            > rank
            for (rows, cols), rank in zip(places, ranks)
            if rows
        )
        if singular:
            with pytest.raises(SingularMatrixError) as info:
                mat_solve(A, b)
            assert type(info.value) is SingularMatrixError
            outcomes.add("singular")
        elif inconsistent:
            with pytest.raises(InconsistentSystemError):
                mat_solve(A, b)
            outcomes.add("inconsistent")
        else:
            assert A.mul(mat_solve(A, b)) == b
            outcomes.add("solved")
        assert (A.data, b.data) == before
    assert outcomes == {"singular", "inconsistent", "solved"}


def test_rank_deficiency_outranks_inconsistency_across_blocks():
    """One block rank deficient, another inconsistent: SingularMatrixError.

    The rank error comes first whichever block holds the lower columns, in a
    small matrix and in one past the size eliminated whole.
    """
    deficient = [[1, 2], [GF256.mul(3, 1), GF256.mul(3, 2)]]  # second row 3 x the first
    assert mat_rank(FieldMatrix(GF256, deficient)) == 1
    tall = [[1, 0], [0, 1], [1, 1]]  # consistent only when b3 = b1 + b2
    for deficient_first in (True, False):
        for pad in (0, 80):
            n = 4 + pad
            data = [[0] * n for _ in range(5 + pad)]
            rhs = [[0] for _ in range(5 + pad)]
            d, t = (0, 2) if deficient_first else (2, 0)  # each block's first column
            for r, row in enumerate(deficient):
                data[r][d : d + 2] = row
            for r, row in enumerate(tall):
                data[2 + r][t : t + 2] = row
                rhs[2 + r][0] = 1  # 1 + 1 != 1
            for i in range(pad):  # unit blocks with a consistent right side
                data[5 + i][4 + i] = 1
                rhs[5 + i][0] = 7
            A, b = FieldMatrix(GF256, data), FieldMatrix(GF256, rhs)
            with pytest.raises(SingularMatrixError) as info:
                mat_solve(A, b)
            assert type(info.value) is SingularMatrixError
            data[1] = [0] * n  # a unit second row gives the first block full rank,
            data[1][d + 1] = 1  # so the system is only inconsistent
            with pytest.raises(InconsistentSystemError):
                mat_solve(FieldMatrix(GF256, data), b)


def test_zero_column_is_singular_beside_full_rank_blocks():
    """A zero column before, between or after two full-rank blocks is a missing pivot."""
    n = 40  # two n x n triangular blocks and a zero column
    for zero_col in (0, n, 2 * n):
        cols = [c for c in range(2 * n + 1) if c != zero_col]
        data = [[0] * (2 * n + 1) for _ in range(2 * n)]
        for r in range(2 * n):  # row r: ones from its diagonal to its block's end
            for c in cols[r : r - r % n + n]:
                data[r][c] = 1
        A = FieldMatrix(GF256, data)
        assert mat_rank(A) == 2 * n
        with pytest.raises(SingularMatrixError) as info:
            mat_solve(A, FieldMatrix.column(GF256, [1] * (2 * n)))
        assert type(info.value) is SingularMatrixError
    zero = FieldMatrix(GF256, [[0] * 70 for _ in range(70)])
    assert mat_rank(zero) == 0
    with pytest.raises(SingularMatrixError):
        mat_solve(zero, FieldMatrix.column(GF256, [0] * 70))


def _segment_case(rnd, field):
    """A block-structured matrix as segments, and the same rows as dense lists.

    Each block is a run of columns whose rows' segments lie inside it; the
    entries hold zeros at random, inside and at either end. With `full` set
    every block has full column rank, so solves can succeed, and each row
    spans its block, so the last block's rows end at the last column.
    Otherwise a block may leave columns zero. Zero rows are empty segments
    at any start. The rows come shuffled.
    """
    full = rnd.random() < 0.5
    segments, lo = [], 0
    for _ in range(rnd.randint(1, 40)):
        width = rnd.randint(1, 6)
        while True:
            block = []
            for _ in range(width + rnd.randint(0, 2) if full else rnd.randint(0, width + 2)):
                start = lo if full else rnd.randint(lo, lo + width - 1)
                end = lo + width if full else rnd.randint(start + 1, lo + width)
                entries = [rnd.randrange(field.order) if rnd.random() < 0.7 else 0
                           for _ in range(end - start)]
                block.append((start, entries))
            if not full or mat_rank(FieldMatrix.from_segments(field, lo + width, block)) == width:
                break
        segments += block
        lo += width
    segments += [(rnd.randint(0, lo), []) for _ in range(rnd.randint(0 if segments else 1, 3))]
    rnd.shuffle(segments)
    dense = []
    for start, entries in segments:
        row = [0] * lo
        row[start : start + len(entries)] = entries
        dense.append(row)
    return FieldMatrix.from_segments(field, lo, segments), FieldMatrix(field, dense)


def per_entry_eliminate(field, work, cols):
    """The oracle: Gauss-Jordan on dense rows of elements, one entry at a time, in place.

    The elimination that packed rows replaced: the first row at or below
    the pivot row with a nonzero entry in the column pivots, its row is
    scaled to 1 there, and every other row with a nonzero entry there
    takes that multiple of it. Returns the pivot rows, None for a column
    without one.
    """
    exp, log, group = field._exp, field._log, field.order - 1
    pivots, prow = [], 0
    for col in range(cols):
        piv = next((r for r in range(prow, len(work)) if work[r][col]), None)
        if piv is None:
            pivots.append(None)
            continue
        work[prow], work[piv] = work[piv], work[prow]
        lead = work[prow]
        scale = group - log[lead[col]]
        terms = [(j, log[v]) for j, v in enumerate(lead) if v]
        for j, lv in terms:
            lead[j] = exp[scale + lv]
        for r, row in enumerate(work):
            if row[col] and r != prow:
                lf = (log[row[col]] + scale) % group
                for j, lv in terms:
                    row[j] ^= exp[lf + lv]
        pivots.append(prow)
        prow += 1
    return pivots


def _elimination_case(rnd, field, rows, width):
    """Dense rows with zero rows, zero columns and rows that combine others, seeded."""
    data = [[rnd.randrange(field.order) for _ in range(width)] for _ in range(rows)]
    for j in rnd.sample(range(width), width // 4):
        for row in data:
            row[j] = 0
    for r in rnd.sample(range(rows), rows // 3):
        a, b = rnd.randrange(rows), rnd.randrange(rows)
        ca, cb = rnd.randrange(field.order), rnd.randrange(field.order)
        data[r] = [field.mul(ca, x) ^ field.mul(cb, y) for x, y in zip(data[a], data[b])]
    if rows > 1:
        data[rnd.randrange(rows)] = [0] * width
    return data


FIELDS = [GF2, GF16, GF256, AES_FIELD, GF65536]
FIELD_IDS = ["GF2", "GF16", "GF256", "AES", "GF65536"]


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_packed_elimination_agrees_with_the_per_entry_oracle(field):
    rnd = random.Random(3500 + field.m)
    shapes = [(1, 1), (2, 1), (1, 4), (3, 3), (4, 6), (6, 4), (12, 24), (16, 16), (25, 40)]
    shapes += [(2, 578), (3, 700), (7, 700)]
    deficient = 0
    for rows, width in shapes:
        for cols in {min(rows, width), width} if width <= 40 else {rows}:
            data = _elimination_case(rnd, field, rows, width)
            dense = [list(row) for row in data]
            packed = [_pack(field, row) for row in data]
            expected = per_entry_eliminate(field, dense, cols)
            assert _eliminate(field, packed, cols) == expected, (rows, width, cols)
            assert [_unpack(field, row, width) for row in packed] == dense, (rows, width, cols)
            deficient += None in expected
    assert deficient >= 5


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_packing_round_trips_every_element(field):
    row = list(range(min(field.order, 257))) + [field.order - 1, field.order >> 1, 1, 0]
    packed = _pack(field, row)
    assert _unpack(field, packed, len(row)) == row
    assert packed >> field._lane * 3 & field.order - 1 == row[3]


def _random_matrix(rnd, field, rows, cols):
    return FieldMatrix(field, [[rnd.randrange(field.order) for _ in range(cols)] for _ in range(rows)])


def _solve_outcome(A, b):
    try:
        return mat_solve(A, b)
    except SingularMatrixError as exc:
        return type(exc)


@pytest.mark.parametrize("field", [GF2, GF16, GF256], ids=["GF2", "GF16", "GF256"])
def test_segments_and_dense_rows_agree(field):
    """Rank, solve (its failures too) and products agree on segments and dense rows."""
    rnd = random.Random(1300 + field.m)
    outcomes = set()
    for _ in range(30):
        A, D = _segment_case(rnd, field)
        assert (A.rows, A.cols, A.data) == (D.rows, D.cols, D.data)
        assert mat_rank(A) == mat_rank(D)
        width = rnd.randint(1, 3)
        x0 = _random_matrix(rnd, field, A.cols, width)
        assert A.mul(x0) == D.mul(x0)
        left = _random_matrix(rnd, field, 3, A.rows)
        assert left.mul(A) == left.mul(D)  # A's segments as the right operand
        rhs = D.mul(x0).data
        if rnd.random() < 0.5:  # one disturbed entry: inconsistent unless its block absorbs it
            rhs[rnd.randrange(A.rows)][rnd.randrange(width)] ^= rnd.randrange(1, field.order)
        b = FieldMatrix(field, rhs)
        outcome = _solve_outcome(A, b)
        assert outcome == _solve_outcome(D, b)
        if isinstance(outcome, FieldMatrix):
            assert A.mul(outcome) == b
            outcomes.add("solved")
        else:
            outcomes.add(outcome.__name__)
    assert outcomes == {"solved", "SingularMatrixError", "InconsistentSystemError"}


@pytest.mark.parametrize("field", [GF2, GF16, GF256], ids=["GF2", "GF16", "GF256"])
def test_mat_vec_agrees_with_the_one_column_product(field):
    """_mat_vec equals the product with a one-column matrix, read off as a column."""
    rnd = random.Random(2000 + field.m)
    seen = set()
    for _ in range(40):
        A, _ = _segment_case(rnd, field)
        segments = A.segments + [(0, [])]
        rnd.shuffle(segments)
        A = FieldMatrix.from_segments(field, A.cols, segments)
        vec = [rnd.randrange(field.order) if rnd.random() < 0.7 else 0 for _ in range(A.cols)]
        product = _mat_vec(field, A.segments, vec)
        assert product == A.mul(_column(field, vec)).col_vector()
        seen.add("interior zero" if any(0 in e[1:-1] for _, e in segments) else None)
        seen.add("start past 0" if any(s and e for s, e in segments) else None)
        seen.add("zero symbol" if 0 in vec else None)
        seen.add("nonzero row" if any(product) else None)
    assert seen >= {"interior zero", "start past 0", "zero symbol", "nonzero row"}


def tiles(segments, ncols: int):
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


def per_tile_solve(A, b):
    """The oracle: A x = b solved one column block (tiles) at a time, each by mat_solve.

    Every row is zero outside its block, so the blocks' solutions stack
    into x. As in mat_solve, a rank-deficient block is reported even when
    another block, or the same one, is inconsistent. b's rows may be any
    segments, a zero row at any start included.
    """
    x, consistent = [], True
    for lo, hi, rows in tiles(A.segments, A.cols):
        block = [(start - lo, entries) if entries else (0, []) for start, entries in
                 (A.segments[r] for r in rows)]
        rhs = _matrix(A.field, b.cols, [b.segments[r] for r in rows])
        try:
            x += mat_solve(_matrix(A.field, hi - lo, block), rhs).segments
        except InconsistentSystemError:
            consistent = False
            x += [(0, [])] * (hi - lo)
    if not consistent:
        raise InconsistentSystemError("no solution: inconsistent system")
    return _matrix(A.field, b.cols, x)


def _repeated_blocks_case(rnd, field, fault):
    """A block-diagonal system of a few distinct blocks, each placed many times.

    The blocks run down the diagonal in order, zero rows between them, so
    equal blocks have equal rows in the same order (the zero rows join the
    last block, which is never a tall one). The right-hand side is A x0 over
    1-3 columns, its first column zero half the time, so its segments start
    past column 0. fault "singular" places a rank-deficient block once,
    "inconsistent" disturbs the right side of the last of four equal tall
    blocks, not the first of its group, and "both" does the two in
    different blocks.
    """
    templates = []
    for _ in range(3):
        width = rnd.randint(1, 4)
        while True:
            block = [[rnd.randrange(field.order) for _ in range(width)]
                     for _ in range(width + rnd.randint(0, 2))]
            if mat_rank(FieldMatrix(field, block)) == width:
                break
        templates.append(block)
    tall = [[1, 0], [0, 1], [1, 1]]
    deficient = [[1, 2], [field.mul(3, 1), field.mul(3, 2)]]
    layout = [rnd.choice(templates) for _ in range(rnd.randint(50, 70))]
    for _ in range(4):
        layout.insert(rnd.randrange(len(layout)), tall)
    singular_at = rnd.randrange(len(layout)) if fault in ("singular", "both") else None
    if singular_at is not None:
        layout[singular_at] = deficient
    ncols = sum(len(block[0]) for block in layout)
    data, tall_rows, lo = [], [], 0
    for block in layout:
        for row in block:
            data.append([0] * lo + row + [0] * (ncols - lo - len(row)))
        if block is tall:
            tall_rows.append(len(data) - 1)
        data += [[0] * ncols for _ in range(rnd.choice([0, 0, 1]))]
        lo += len(block[0])
    A = FieldMatrix(field, data)
    width = rnd.randint(1, 3)
    x0 = _random_matrix(rnd, field, A.cols, width)
    rhs = A.mul(x0).data
    if rnd.random() < 0.5:
        for row in rhs:
            row[0] = 0
    if fault in ("inconsistent", "both"):
        rhs[tall_rows[-1]][width - 1] ^= 1
    return A, FieldMatrix(field, rhs)


@pytest.mark.parametrize("field", [GF16, GF256], ids=["GF16", "GF256"])
def test_whole_solve_agrees_with_the_per_tile_solve(field):
    """One elimination of a block-diagonal matrix gives the per-tile solve's result or error."""
    rnd = random.Random(1900 + field.m)
    starts_past_zero = False
    for fault in [None, "singular", "inconsistent", "both"] * 5:
        A, b = _repeated_blocks_case(rnd, field, fault)
        starts_past_zero |= any(start for start, entries in b.segments if entries)
        assert len(list(tiles(A.segments, A.cols))) > 50  # the oracle solves block by block
        expected = {None: FieldMatrix, "singular": SingularMatrixError,
                    "inconsistent": InconsistentSystemError, "both": SingularMatrixError}[fault]
        try:
            oracle = per_tile_solve(A, b)
        except SingularMatrixError as exc:
            oracle = type(exc)
        outcome = _solve_outcome(A, b)
        if expected is FieldMatrix:
            assert outcome == oracle and A.mul(outcome) == b
        else:
            assert outcome is oracle is expected
        assert mat_rank(A) == A.cols - (fault in ("singular", "both"))
    assert starts_past_zero


@pytest.mark.parametrize("field", [GF2, GF16, GF256], ids=["GF2", "GF16", "GF256"])
def test_mat_forms_agrees_with_the_product_by_the_forms_as_a_matrix(field):
    """_mat_forms equals the product with the forms' matrix, its rows trimmed."""
    rnd = random.Random(2400 + field.m)
    seen = set()
    for _ in range(40):
        A, _ = _segment_case(rnd, field)
        width = rnd.randint(1, 30)
        forms = []
        for _ in range(A.cols):
            start = rnd.randrange(width)
            entries = [rnd.randrange(field.order) if rnd.random() < 0.6 else 0
                       for _ in range(rnd.randint(0, width - start))]
            forms.append((start, entries))
        product = _mat_forms(field, A.segments, forms)
        assert product == _trimmed(A.mul(FieldMatrix.from_segments(field, width, forms)).segments)
        seen.add("zero form" if any(not any(e) for _, e in forms) else None)
        seen.add("zero product row" if (0, []) in product else None)
        seen.add("nonzero product row" if any(e for _, e in product) else None)
    assert seen >= {"zero form", "zero product row", "nonzero product row"}


def _span_block(rnd, field):
    """A block's nodes, each one to three dense rows, drawn from `rank` random rows.

    rank is the width or below it; zero rows come up too.
    """
    width = rnd.randint(1, 5)
    rank = width if rnd.random() < 0.6 else rnd.randrange(width)
    spanning = [[rnd.randrange(field.order) for _ in range(width)] for _ in range(rank)]

    def row():
        acc = [0] * width
        for base in spanning:
            c = rnd.randrange(field.order)
            acc = [a ^ field.mul(c, x) for a, x in zip(acc, base)]
        return acc

    nodes = {node: [row() for _ in range(rnd.randint(1, 3))] for node in range(rnd.randint(1, 5))}
    return width, nodes


def _coordinates_hold(field, tableau, rows):
    """Each row is basic or stored, once; stored coordinates times the basic rows give the row."""
    assert sorted(tableau.basis + list(tableau.coords)) == list(range(len(rows)))
    columns = [(0, [rows[r][c] for r in tableau.basis]) for c in range(len(rows[0]))]
    for i, x in tableau.coords.items():
        assert _mat_vec(field, columns, x) == rows[i]


@pytest.mark.parametrize("field", [GF2, GF16, GF256], ids=["GF2", "GF16", "GF256"])
def test_span_agrees_with_the_rank_of_the_chosen_rows(field):
    """span answers whether the chosen rows have rank width, from any basis it walked to.

    Every t-subset of a block's nodes is walked in combinations order, then
    shuffled, each call from the basis the last one left; the stored
    coordinates stay exact after every call.
    """
    rnd = random.Random(2500 + field.m)
    seen = set()
    for _ in range(40):
        width, nodes = _span_block(rnd, field)
        rows = [r for node in nodes.values() for r in node]
        tableau = _Tableau(field, width, {node: [_trim(r) for r in node_rows]
                                          for node, node_rows in nodes.items()})
        seen.add("full" if tableau.full else "deficient")
        for t in range(len(nodes) + 1):
            sets = list(combinations(nodes, t))
            shuffled = sets[:]
            rnd.shuffle(shuffled)
            for chosen in sets + shuffled:
                held = [r for node in chosen for r in nodes[node]]
                expected = mat_rank(FieldMatrix(field, held)) == width if held else False
                assert tableau.span(chosen) is expected, (width, nodes, chosen)
                _coordinates_hold(field, tableau, rows)
                seen.add(expected)
                seen.add("t = 0" if not chosen else None)
                seen.add("more rows than width" if len(held) > width else None)
    assert seen >= {"full", "deficient", True, False, "t = 0", "more rows than width"}


def test_subsets_holding_more_rows_than_the_block_is_wide():
    # a column block of filenode_blowup(rs_base(3, 2)): 2 wide, the base's
    # 3 one-row nodes and the file node's 2 unit rows. A 2-subset that holds
    # the file node holds 3 rows, so its walk swaps in more rows than the
    # block is wide; every 2-subset spans, and no single node does
    from regencode.dss import rs_base

    rows = {u: g.data for u, g in enumerate(rs_base(3, 2).node_gens)}
    rows[3] = [[1, 0], [0, 1]]
    nodes = {u: [_trim(row) for row in node_rows] for u, node_rows in rows.items()}
    tableau = _Tableau(GF256, 2, nodes)
    held = {chosen: sum(len(nodes[u]) for u in chosen) for chosen in combinations(nodes, 2)}
    assert max(held.values()) == 3
    assert all(tableau.span(chosen) for chosen in held)
    assert not any(tableau.span((u,)) for u in range(3))
    _coordinates_hold(GF256, tableau, [row for node_rows in rows.values() for row in node_rows])
