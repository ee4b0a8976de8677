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
    _Tableau,
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
        counts = self.per_helper.values()
        return max(counts) - min(counts)


class RepairRule:
    """Total procedure rebuilding any failed nodes from any d-subset of survivors.

    A stored symbol is a field element or a linear form over the message
    (node i's forms are G_i's rows). The public calls take field elements
    only. Inside, a symbol is an element; a row, a plain list of one element
    per copy of a batch a composite hands its part; or a form, the segment
    (start, entries) a generator stores its rows as, so a proof on the
    forms costs the columns they cover, not the file's width. execute gets
    a tuple of failed nodes outside the helpers (a part node and its lost
    twin come as one node twice) and symbols of one shape, and returns per
    failed node, in order, its symbols in that shape (segments trimmed to
    their nonzeros, a zero row (0, [])) with each helper's transfer, a
    report the nodes may share. It may slice, decode (_decode) and multiply
    by fixed matrices (apply_generator), but not branch on stored values: so
    one run on the forms proves it exact for every file, and a rule acts on
    each column alone, so its output on input moved by some columns is that
    output moved as far: a part's verdict holds for each of its placed
    copies. The public repair checks contents once and execute reads only
    the helpers' entries (contents is indexed by node), so a rule runs its
    parts' rules directly on slices of checked contents.
    """

    kind = "abstract"

    def execute(
        self,
        dss: "LinearDss",
        failed: tuple[int, ...],
        helpers: tuple[int, ...],
        contents: list[list[int]],
    ) -> list[tuple[list[int], BandwidthReport]]:
        raise NotImplementedError

    def describe(self) -> dict:
        return {"kind": self.kind}


class LinearDss:
    """Immutable linear storage code with an executable repair rule.

    node_gens define the code, and encode follows them. A composite
    (constructions) stores only the copy table in its rule and is built
    with node_gens None: they are rendered from the table on first read and
    kept as a tuple. Its reconstruct, repair and both of the verifier's
    proofs follow the table and render nothing; a generator list handed
    with a copy table is refused (CodeInvariantError).
    """

    def __init__(
        self,
        params: SystemParams,
        field: FieldSpec,
        file_len: int,
        node_gens: list[FieldMatrix] | None,
        repair_rule: RepairRule,
        label: str,
        gamma_symbols: int,
        meta: dict | None = None,
    ):
        if hasattr(repair_rule, "copies"):
            if node_gens is not None:
                raise CodeInvariantError(f"{label}: a copy table renders its own generators")
            alpha = repair_rule.alpha_symbols
        else:
            if node_gens is None or len(node_gens) != params.n:
                raise InputError("one generator per node required")
            alphas = {g.rows for g in node_gens}
            if len(alphas) != 1:
                raise CodeInvariantError("node sizes are not uniform")
            for g in node_gens:
                if g.cols != file_len or g.field != field:
                    raise InputError("generator shape or field mismatch")
            alpha = alphas.pop()
        self.params = params
        self.field = field
        self.file_len = file_len
        self._node_gens = node_gens
        self.repair_rule = repair_rule
        self.label = label
        self.alpha_symbols = alpha
        self.gamma_symbols = gamma_symbols
        self.meta = meta

    @property
    def node_gens(self) -> list[FieldMatrix] | tuple[FieldMatrix, ...]:
        if self._node_gens is None:
            self._node_gens = self.repair_rule._render(self)
        return self._node_gens

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
    """The message, in the symbols' shape, from those of subset's nodes read in order.

    A composite decodes through its copy table (constructions._CopiesRule.solve),
    any other code in one gf.mat_solve; CodeInvariantError, naming subset, if
    they do not determine the file. No checks: callers pass symbols that
    reconstruct, or the public call of a repair rule, has checked.
    """
    try:
        if hasattr(dss.repair_rule, "copies"):
            return dss.repair_rule.solve(dss, subset, symbols)
        segments = [segment for i in subset for segment in dss.node_gens[i].segments]
        rhs, at = _as_matrix(dss.field, symbols)
        return _shaped(mat_solve(_matrix(dss.field, dss.file_len, segments), rhs), symbols, at)
    except (SingularMatrixError, CodeInvariantError) as exc:
        reason = exc.__cause__ or exc  # a part's decode named the part's nodes
        raise CodeInvariantError(f"subset {subset} does not determine the file: {reason}") from exc


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
    """_as_matrix(like) undone on a result: like's shape, a form row's start moved back by at."""
    shape = type(like[0])
    if shape is int:
        return matrix.col_vector()
    if shape is list:
        return matrix.data
    return [_trim(row, at + start) for start, row in matrix.segments]


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
    return dss.repair_rule.execute(dss, (failed,), tuple(sorted(helpers)), contents)[0]


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
    symbols, G_failed * G_H^-1 being its rows' coordinates over the
    helpers' rows. The rule keeps every node's rows as coordinates over a
    basis of rows (gf._Tableau), built once per code from its first
    independent rows, and walks that basis to the helpers' rows (span, the
    walk the verifier's reconstruction proof takes): one Gauss-Jordan pivot
    per helper row not yet in it, so a helper set next to the last costs
    the rows it swaps in. Helpers whose rows do not span (a singular G_H,
    or a code of rank below B): CodeInvariantError.
    The failed nodes' coordinates are then their coefficients on the
    helpers' symbols read in basis order, all in one apply_generator, and
    the nodes share one report. The rule keeps one tableau per code, keyed
    weakly, so codes that share the rule object each keep their own, and a
    code's tableau goes with its last reference; it moves only when the
    helpers differ from the last call's: once per helper set in the
    verifier's sweep. A tableau holds (n - k) * alpha rows of B coordinates
    and nothing of its code.
    """

    kind = "mds_reencode"

    def __init__(self):
        self._bases = weakref.WeakKeyDictionary()

    def execute(self, dss, failed, helpers, contents):
        alpha, kept = dss.alpha_symbols, self._bases.get(dss)
        if kept is None:
            nodes = dict(enumerate(g.segments for g in dss.node_gens))
            kept = self._bases[dss] = [_Tableau(dss.field, dss.file_len, nodes), None, None]
        tableau, last, reads = kept
        if last != helpers:
            kept[1] = None  # a walk that fails still moves the basis
            if not tableau.span(helpers):
                raise CodeInvariantError(f"helpers {helpers} do not determine the file")
            # the symbol each basis position reads: node i's rows are i * alpha on
            reads = kept[2] = [divmod(r, alpha) for r in tableau.basis]
            kept[1] = helpers
        coords, owned = tableau.coords, tableau.owned
        coefficients = [(0, coords[r]) for f in failed for r in owned[f]]
        symbols = [contents[h][t] for h, t in reads]
        rebuilt = apply_generator(_matrix(dss.field, len(reads), coefficients), symbols)
        report = BandwidthReport(dict.fromkeys(helpers, alpha))
        if len(failed) == 1:  # the product is the one node's symbols
            return [(rebuilt, report)]
        return [(rebuilt[i : i + alpha], report) for i in range(0, len(rebuilt), alpha)]


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
    gens = [_matrix(field, k, [segment]) for segment in gsys.segments]
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
    """to_json_dict as JSON, every generator row dense: n * alpha * B entries.

    So it is meant for small codes: iterate(base(3,2),2), at 49.8M, is beyond it.
    """
    return json.dumps(to_json_dict(dss), sort_keys=True, indent=2) + "\n"
