import random

import pytest

from regencode.gf import (
    GF2,
    GF16,
    GF256,
    WHOLE_MAX_ENTRIES,
    FieldMatrix,
    FieldSpec,
    InconsistentSystemError,
    SingularMatrixError,
    is_irreducible,
    mat_inv,
    mat_rank,
    mat_solve,
)


AES_FIELD = FieldSpec(8, 0x11B)  # x is not primitive under this modulus


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
    field = FieldSpec(16, 0x1100B)
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


def test_zero_column_is_singular_past_the_whole_size():
    """A zero column before, between or after two full-rank blocks is a missing pivot."""
    n = 40  # two n x n triangular blocks and a zero column: past WHOLE_MAX_ENTRIES
    assert 2 * n * (2 * n + 1) > WHOLE_MAX_ENTRIES
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
    outcomes, split = set(), 0
    for _ in range(30):
        A, D = _segment_case(rnd, field)
        assert (A.rows, A.cols, A.data) == (D.rows, D.cols, D.data)
        split += A.rows * A.cols > WHOLE_MAX_ENTRIES
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
    assert 0 < split < 30  # both the whole and the split elimination ran
