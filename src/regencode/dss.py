"""Concrete linear distributed storage codes.

A LinearDss stores a file of file_len field symbols across n nodes; node i
holds G_i * message. Any k nodes reconstruct the message, and any d
survivors rebuild a lost node bit-for-bit (exact repair) while the transfer
of every helper is accounted in symbols.
"""

from __future__ import annotations

import json
import weakref
from dataclasses import dataclass

from .gf import (
    GF256,
    FieldMatrix,
    FieldSpec,
    SingularMatrixError,
    _column,
    _mat_forms,
    _mat_vec,
    _matrix,
    _span,
    _trim,
    mat_inv,
    mat_solve,
)
from .tradeoff import SystemParams


class InputError(ValueError):
    """Malformed call input (wrong sizes, bad indices, unusable field)."""


class CodeInvariantError(RuntimeError):
    """A structural property the code promised does not hold."""


class ResourceError(RuntimeError):
    """Construction or sweep would exceed the configured budget."""


@dataclass(frozen=True)
class BandwidthReport:
    """Symbols transferred per helper during one repair."""

    per_helper: dict[int, int]

    @property
    def total(self) -> int:
        return sum(self.per_helper.values())

    def max_deviation(self) -> int:
        counts = list(self.per_helper.values())
        return max(counts) - min(counts)


class RepairRule:
    """Total procedure rebuilding any failed node from any d-subset of survivors.

    A stored symbol is a field element or a linear form over the message
    (node i's forms are G_i's rows). The public calls take field elements
    only. Inside, a symbol is an element; a row, a plain list of one element
    per copy of a batch a composite hands its part; or a form, the segment
    (start, entries) a generator stores its rows as, so a proof on the
    forms costs the columns they cover, not the file's width. execute gets
    symbols of one shape and returns the failed node's symbols in that
    shape (segments trimmed to their nonzeros, a zero row (0, [])) with
    each helper's transfer. It may slice, decode (_decode) and multiply by
    fixed matrices (apply_generator), but not branch on stored values: so
    one run on the forms proves it exact for every file, and a rule acts on
    each column alone, so its output on input moved by some columns is that
    output moved as far. The public repair checks contents once and
    execute reads only the helpers' entries (contents is indexed by node),
    so a rule runs its parts' rules directly on slices of checked contents.
    """

    kind = "abstract"

    def execute(
        self,
        dss: "LinearDss",
        failed: int,
        helpers: tuple[int, ...],
        contents: list[list[int]],
    ) -> tuple[list[int], BandwidthReport]:
        raise NotImplementedError

    def describe(self) -> dict:
        return {"kind": self.kind}


class LinearDss:
    """Immutable linear storage code with an executable repair rule."""

    def __init__(
        self,
        params: SystemParams,
        field: FieldSpec,
        file_len: int,
        node_gens: list[FieldMatrix],
        repair_rule: RepairRule,
        label: str,
        gamma_symbols: int,
        meta: dict | None = None,
    ):
        if len(node_gens) != params.n:
            raise InputError("one generator per node required")
        alphas = {g.rows for g in node_gens}
        if len(alphas) != 1:
            raise CodeInvariantError("node sizes are not uniform")
        for g in node_gens:
            if g.cols != file_len or g.field != field:
                raise InputError("generator shape or field mismatch")
        self.params = params
        self.field = field
        self.file_len = file_len
        self.node_gens = node_gens
        self.repair_rule = repair_rule
        self.label = label
        self.alpha_symbols = alphas.pop()
        self.gamma_symbols = gamma_symbols
        self.meta = meta

    def __repr__(self) -> str:
        p = self.params
        return (
            f"LinearDss({self.label}: n={p.n} k={p.k} d={p.d} "
            f"alpha={self.alpha_symbols} gamma={self.gamma_symbols} B={self.file_len})"
        )


def encode(dss: LinearDss, message: list[int]) -> list[list[int]]:
    """Node contents G_i * message for every node, one stored row at a time (gf._mat_vec)."""
    if len(message) != dss.file_len:
        raise InputError(
            f"message length {len(message)} != file_len {dss.file_len}"
        )
    if not dss.field.holds(message):
        raise InputError(f"message holds a symbol outside GF(2^{dss.field.m})")
    return [_mat_vec(dss.field, g.segments, message) for g in dss.node_gens]


def reconstruct(
    dss: LinearDss, subset: tuple[int, ...] | list[int], contents: list[list[int]]
) -> list[int]:
    """Recover the message, one field element per file position, from a k-subset.

    Raises InputError when the subset is not k distinct node indices in
    range, when contents does not hold one entry per node, or when a node
    of the subset does not hold a list of alpha_symbols field elements.
    """
    subset = _indices(subset)
    if len(subset) != dss.params.k:
        raise InputError(f"need exactly k={dss.params.k} nodes, got {len(subset)}")
    return _decode(dss, subset, _read(dss, subset, contents))


def _decode(dss: LinearDss, subset: tuple[int, ...], symbols: list) -> list:
    """The message from the symbols of subset's nodes, read in order; no checks.

    Callers pass symbols already checked: reconstruct's own, or slices a
    repair rule takes from contents its public call has checked.
    """
    rhs, at = _as_matrix(dss.field, symbols)
    return _shaped(_solve(dss, subset, rhs), symbols, at)


def _solve(dss: LinearDss, subset: tuple[int, ...], rhs: FieldMatrix) -> FieldMatrix:
    """_decode's message as a matrix: the nodes' generator segments, stacked, solved."""
    segments = []
    for i in subset:
        segments += dss.node_gens[i].segments
    try:
        return mat_solve(_matrix(dss.field, dss.file_len, segments), rhs)
    except SingularMatrixError as exc:
        raise CodeInvariantError(
            f"subset {subset} does not determine the file: {exc}"
        ) from exc


def apply_generator(gen: FieldMatrix, symbols: list) -> list:
    """gen times a column of symbols, e.g. a node's content from the file.

    Elements go row by row (gf._mat_vec), forms too, each output form
    summed from the input forms' segments (gf._mat_forms); rows, one
    element per copy of a batch, go through FieldMatrix.mul.
    """
    shape = type(symbols[0])
    if shape is int:
        return _mat_vec(gen.field, gen.segments, symbols)
    if shape is tuple:
        return _mat_forms(gen.field, gen.segments, symbols)
    rhs, at = _as_matrix(gen.field, symbols)
    return _shaped(gen.mul(rhs), symbols, at)


def _as_matrix(field: FieldSpec, symbols: list) -> tuple[FieldMatrix, int]:
    """Symbols of one shape (see RepairRule) as a matrix, and the column its first stands for.

    Elements become one column and rows the matrix's rows, both at 0;
    segments cover their columns from the first they start at (a zero row
    (0, []) starts at 0).
    """
    shape = type(symbols[0])
    if shape is int:
        return _column(field, symbols), 0
    if shape is list:
        return _matrix(field, len(symbols[0]), [(0, row) for row in symbols]), 0
    at, end = _span(symbols)
    if at:
        symbols = [(start - at, entries) for start, entries in symbols]
    return _matrix(field, end - at, symbols), at


def _shaped(matrix: FieldMatrix, like: list, at: int) -> list:
    """_as_matrix(like) undone on a result, whose rows are whole: like's shape, moved back by at."""
    shape = type(like[0])
    if shape is int:
        return matrix.col_vector()
    if shape is list:
        return [row for _, row in matrix.segments]
    return [_trim(row, at) for _, row in matrix.segments]


def repair(
    dss: LinearDss,
    failed: int,
    helpers: tuple[int, ...] | list[int],
    contents: list[list[int]],
) -> tuple[list[int], BandwidthReport]:
    """Rebuild the failed node's exact content, field elements, from d helpers.

    Raises InputError when the helpers are not d distinct node indices in
    range other than the failed one, when contents does not hold one entry
    per node, or when a helper does not hold a list of alpha_symbols field
    elements. Forms are repaired by repair_rule.execute (see RepairRule).
    """
    helpers = _indices(helpers)
    if len(helpers) != dss.params.d:
        raise InputError(f"need exactly d={dss.params.d} helpers, got {len(helpers)}")
    if type(failed) is not int or not 0 <= failed < dss.params.n:
        raise InputError(f"node index {failed!r} out of range")
    if failed in helpers:
        raise InputError("failed node cannot help itself")
    _read(dss, helpers, contents)  # distinct ints in range: they sort
    return dss.repair_rule.execute(dss, failed, tuple(sorted(helpers)), contents)


def _indices(nodes) -> tuple:
    """The node indices of a call as a tuple; InputError if they are no collection."""
    try:
        return tuple(nodes)
    except TypeError:
        raise InputError(f"node indices must be a collection, got {nodes!r}") from None


def _read(dss: LinearDss, read: tuple[int, ...], contents: list) -> list:
    """The symbols of the nodes read, in order; InputError if a call cannot read them.

    The nodes read must be distinct ints in range, contents must be a list
    of one content per node, and each node read must hold a list of alpha
    field elements (a set test, at C speed), so a row of forms is refused.
    Each public reconstruct or repair makes this one check; nested parts
    are not checked again.
    """
    n, alpha = dss.params.n, dss.alpha_symbols
    if not isinstance(contents, list):
        raise InputError(f"contents must be a list of n={n} node contents")
    if len(contents) != n:
        raise InputError(f"need the contents of all n={n} nodes, got {len(contents)}")
    symbols = []
    for i in read:
        if type(i) is not int or not 0 <= i < n:
            raise InputError(f"node index {i!r} out of range")
        content = contents[i]
        if not isinstance(content, list) or len(content) != alpha:
            raise InputError(f"node {i} must hold a list of alpha={alpha} symbols")
        symbols += content
    if len(set(read)) != len(read):  # after the index checks: ints hash
        raise InputError(f"duplicate node indices in {read}")
    if not dss.field.holds(symbols):
        raise InputError(f"contents hold a symbol outside GF(2^{dss.field.m})")
    return symbols


class MdsReencodeRule(RepairRule):
    """Repair for d = k codes: download the d helpers, decode, re-encode.

    At d = k the helpers' stacked generators G_H are square (d * alpha =
    B), and the failed node's content is G_failed * G_H^-1 * the helpers'
    symbols. The rule decodes by exchange: the first helper system H0 it
    meets for a code, and that is invertible, is eliminated once, and node
    i's rows in that basis, X_i = G_i * G_H0^-1, are built when first read
    (_Basis). Since G_H = X_H * G_H0, a helper set H that swaps the nodes Q
    in for the nodes M of H0 (S = H & H0 stays) inverts only the square
    minor X_{Q,M}, j * alpha wide for j = |Q| <= min(k, n - k); call its
    inverse Z. The failed node's coefficients over the helpers are then
    X_{f,S} + X_{f,M} Z X_{Q,S} on S's symbols and X_{f,M} Z on Q's, the
    first term skipped when S is empty. A singular minor is a singular
    G_H: CodeInvariantError. The rule keeps one basis per code, keyed
    weakly, so codes that share the rule object each keep their own and
    switching between them eliminates nothing, and a code's basis goes
    with its last reference; a basis keeps the decoder of its last helper
    set, so the verifier's sweep, which takes one helper set in a row,
    inverts each minor once. Everything a basis keeps is built from
    generators alone, and at most n * alpha x B entries, the generators'
    own size laid out dense.
    """

    kind = "mds_reencode"

    def __init__(self):
        self._bases = weakref.WeakKeyDictionary()

    def execute(self, dss, failed, helpers, contents):
        symbols = []
        for h in helpers:
            symbols += contents[h]
        basis = self._bases.get(dss)
        if basis is None:
            basis = self._bases[dss] = _Basis(dss, helpers)
        coefficients = basis.row(dss, failed).mul(basis.decoder(dss, helpers))
        per_helper = dict.fromkeys(helpers, dss.alpha_symbols)
        return apply_generator(coefficients, symbols), BandwidthReport(per_helper)


class _Basis:
    """A d = k code's node rows X_i = G_i * G_H0^-1 in the basis of one helper system H0.

    `decoder(helpers)` is X_H^-1 with its columns in the helpers' symbol
    order, so X_f * decoder is the failed node's coefficients over the
    helpers' symbols: a unit row for each column of a node of H0 that
    stays, and for the columns of the nodes M swapped out the rows of
    Z * [X_{Q,S} | I], one solve of the minor X_{Q,M}. The last decoder
    built is kept with its helpers.
    """

    __slots__ = ("first", "unit", "inverse", "x", "last")

    def __init__(self, dss: LinearDss, helpers: tuple[int, ...]):
        alpha = dss.alpha_symbols
        size = len(helpers) * alpha
        self.unit = FieldMatrix.identity(dss.field, size)
        self.inverse = _solve(dss, helpers, self.unit)
        self.first = dict(zip(helpers, range(0, size, alpha)))  # H0's nodes, first column each
        self.x = [None] * dss.params.n  # X_i by node, built when first read
        self.last = None, None

    def row(self, dss: LinearDss, i: int) -> FieldMatrix:
        """X_i, dense rows."""
        x = self.x[i]
        if x is None:
            x = self.x[i] = dss.node_gens[i].mul(self.inverse)
        return x

    def decoder(self, dss: LinearDss, helpers: tuple[int, ...]) -> FieldMatrix:
        """X_H^-1, its columns in the helpers' symbol order, the last one kept."""
        if self.last[0] == helpers:
            return self.last[1]
        alpha, first = dss.alpha_symbols, self.first
        width = len(helpers) * alpha
        if first.keys().isdisjoint(helpers):  # every node swapped: the minor is X_H
            minor = []
            for q in helpers:
                minor += self.row(dss, q).segments
            decoder = _minor(dss, helpers, minor, self.unit)
        else:
            rows, stay, swapped = [None] * width, [], []  # stay: (column, helper symbol)
            for t, h in zip(range(0, width, alpha), helpers):
                c = first.get(h)
                if c is None:
                    swapped.append((h, t))
                else:  # a unit row: the column is the helper's own symbol
                    for r in range(alpha):
                        rows[c + r] = (t + r, [1])
                        stay.append((c + r, t + r))
            if swapped:
                out = [c for c in range(width) if rows[c] is None]  # the columns of M
                minor, right = [], []  # X_{Q,M}, and [X_{Q,S} | I] at the helpers' symbols
                for q, t in swapped:
                    for r, (_, x) in enumerate(self.row(dss, q).segments):
                        minor.append((0, [x[c] for c in out]))
                        row = [0] * width
                        for c, s in stay:
                            row[s] = x[c]
                        row[t + r] = 1
                        right.append((0, row))
                z = _minor(dss, helpers, minor, _matrix(dss.field, width, right))
                for c, row in zip(out, z.segments):
                    rows[c] = row
            decoder = _matrix(dss.field, width, rows)
        self.last = helpers, decoder
        return decoder


def _minor(dss: LinearDss, helpers: tuple[int, ...], minor: list, right: FieldMatrix):
    """Z * right for the square minor's rows, Z its inverse; CodeInvariantError if singular."""
    try:
        return mat_solve(_matrix(dss.field, len(minor), minor), right)
    except SingularMatrixError as exc:
        raise CodeInvariantError(f"helpers {helpers} do not determine the file: {exc}") from exc


def rs_base(n: int, k: int, field: FieldSpec = GF256) -> LinearDss:
    """Systematic MDS code from extended Vandermonde evaluation, with d = k.

    Evaluation points are distinct field elements, plus the point at
    infinity when n = 2^m + 1; hence n <= 2^m + 1 is required. Node size is
    one symbol, so the repair of any node downloads k symbols, meeting the
    minimum-storage bandwidth d*B/(k(d-k+1)) exactly at d = k.
    """
    if not 1 <= k < n:
        raise InputError(f"need 1 <= k < n, got (n,k)=({n},{k})")
    if n > field.order + 1:
        raise InputError(
            f"field GF(2^{field.m}) too small: supports at most {field.order + 1} nodes"
        )
    rows = []
    for x in range(min(n, field.order)):
        rows.append([field.pow(x, j) for j in range(k)])
    if n == field.order + 1:
        rows.append([0] * (k - 1) + [1])
    vander = FieldMatrix(field, rows)
    top_inv = mat_inv(FieldMatrix(field, rows[:k]))
    gsys = vander.mul(top_inv)
    gens = [FieldMatrix(field, [gsys.data[i]]) for i in range(n)]
    return LinearDss(
        params=SystemParams(n, k, k),
        field=field,
        file_len=k,
        node_gens=gens,
        repair_rule=MdsReencodeRule(),
        label=f"rs_base({n},{k})/GF(2^{field.m})",
        gamma_symbols=k,
    )


def to_json_dict(dss: LinearDss) -> dict:
    """JSON-ready description: field, dimensions, generators, repair rule."""
    return {
        "label": dss.label,
        "params": {"n": dss.params.n, "k": dss.params.k, "d": dss.params.d},
        "field": {"m": dss.field.m, "modulus": dss.field.modulus},
        "file_len": dss.file_len,
        "alpha_symbols": dss.alpha_symbols,
        "gamma_symbols": dss.gamma_symbols,
        "node_gens": [g.data for g in dss.node_gens],
        "repair_rule": dss.repair_rule.describe(),
        "composition": dss.meta,
    }


def to_json(dss: LinearDss) -> str:
    return json.dumps(to_json_dict(dss), sort_keys=True, indent=2) + "\n"
