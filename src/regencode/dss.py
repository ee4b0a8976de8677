"""Concrete linear distributed storage codes.

A LinearDss stores a file of file_len field symbols across n nodes; node i
holds G_i * message. Any k nodes reconstruct the message, and any d
survivors rebuild a lost node bit-for-bit (exact repair) while the transfer
of every helper is accounted in symbols.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .gf import (
    GF256,
    FieldMatrix,
    FieldSpec,
    SingularMatrixError,
    _matrix,
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
    only; forms are private to execute and the verifier, and have one shape,
    the segment (start, entries) a generator stores its rows as, so a proof
    on the forms costs the columns they cover, not the file's width. execute
    gets elements or segments and returns the failed node's symbols in that
    shape (segments trimmed to their nonzeros, a zero row (0, [])) with each
    helper's transfer. It may slice, decode (_decode) and multiply by fixed
    matrices (apply_generator), but not branch on stored values: so one run
    on the forms proves it exact for every file. The public repair checks
    contents once and execute reads only the helpers' entries (contents is
    indexed by node), so a rule runs its parts' rules directly on slices of
    checked contents.
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
    """Node contents G_i * message for every node."""
    if len(message) != dss.file_len:
        raise InputError(
            f"message length {len(message)} != file_len {dss.file_len}"
        )
    if not dss.field.holds(message):
        raise InputError(f"message holds a symbol outside GF(2^{dss.field.m})")
    column = FieldMatrix.column(dss.field, message)
    return [g.mul(column).col_vector() for g in dss.node_gens]


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
    return _shaped(_solve(dss, subset, rhs), at)


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
    """gen times a column of symbols, e.g. a node's content from the file."""
    rhs, at = _as_matrix(gen.field, symbols)
    return _shaped(gen.mul(rhs), at)


def _as_matrix(field: FieldSpec, symbols: list) -> tuple[FieldMatrix, int | None]:
    """Symbols as a matrix, and the column its first column stands for.

    Segments become rows over the columns they cover, from the first they
    start at (a zero row (0, []) starts at 0); elements become one column,
    at None.
    """
    if not _forms(symbols):
        return FieldMatrix.column(field, symbols), None
    at, end = _span(symbols)
    if at:
        symbols = [(start - at, entries) for start, entries in symbols]
    return _matrix(field, end - at, symbols), at


def _shaped(matrix: FieldMatrix, at: int | None) -> list:
    """_as_matrix undone on a result: its rows trimmed and moved back by at, or a column."""
    if at is None:
        return matrix.col_vector()
    return [_trim(row, at) for _, row in matrix.segments]  # results keep rows whole


def _span(segments: list) -> tuple[int, int]:
    """The columns the segments cover, first to past the last."""
    first, end = segments[0][0], 0
    for start, entries in segments:
        if start < first:
            first = start
        if start + len(entries) > end:
            end = start + len(entries)
    return first, end


def _forms(symbols: list) -> bool:
    """Segments or field elements: the one test of the shape execute gets."""
    return type(symbols[0]) is tuple


def _dense(segments: list, width: int) -> list[list[int]]:
    """Segments as dense rows of the width given."""
    return [[0] * s + e + [0] * (width - s - len(e)) for s, e in segments]


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
    """Repair for d = k codes: download the d helpers, decode, re-encode."""

    kind = "mds_reencode"

    def execute(self, dss, failed, helpers, contents):
        symbols = []
        for h in helpers:
            symbols += contents[h]
        rhs, at = _as_matrix(dss.field, symbols)
        msg = _solve(dss, helpers, rhs)  # re-encoded as it is, no round trip
        content = _shaped(dss.node_gens[failed].mul(msg), at)
        per_helper = dict.fromkeys(helpers, dss.alpha_symbols)
        return content, BandwidthReport(per_helper)


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
