"""Compositions that build storage codes from smaller ones by placing copies.

Every composition places copies of smaller codes (its parts) on the
composite nodes. A copy is a part and a record of the positions it hosts:
at each, one of the part's nodes, an exact twin of one, or a node holding
the part's whole file. Each copy stores its own file in its own block of
columns. The four blowups place permuted copies of one base augmented by
appended nodes (an empty node, twins, or a file node), so composite node
j stores the j-th node of every copy, and a copy hosts every position but
the one its empty node would take; concat places each part once, on its
own run of positions. A composite's generator rows are its copies' rows,
each the part's segment moved to the copy's columns: the placed segment
shares the part's entries, so a composite stores a (column, entries) pair
per row and no dense row. Reconstruction is one solve over the stacked
generators. Repair runs one rule over the copies, so exact repair is
inherited from the parts and bandwidth is accounted per copy. The copies
that repair the same part node from the same part helpers share one part
repair, and those whose lost file node decodes from the same part nodes
share one decode, on field elements and on forms alike: an element copy is
one column of its right-hand side, a form copy the span of columns its
segments cover, so a proof on the forms is not repaired copy by copy.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, NamedTuple

from .dss import (
    BandwidthReport,
    InputError,
    LinearDss,
    RepairRule,
    ResourceError,
    _decode,
    _dense,
    _forms,
    _span,
    apply_generator,
)
from .gf import _matrix, _trim
from .tradeoff import RangeError, SystemParams

# generator entries n * alpha * B a composite may span, dense; the segments
# it stores hold far fewer. Admits iterate(base(3,2),2) at 49,766,400
DEFAULT_BUDGET = 5 * 10**7

# What a copy hosts at a position: part node (_BASE, u), its twin (_DUP, u) or
# the part's file (_FILE,); an appended empty node (_EMPTY,) hosts nothing.
# Appended kinds name layout keys
_BASE = "base"
_DUP = "copy"
_EMPTY = "empty"
_FILE = "file"
_TWIN = {_BASE: _DUP, _DUP: _BASE}

# the augmented nodes each blowup appends to the base, for copy_blowup's l
_APPENDED = {
    "blowup_simple": lambda l: [(_EMPTY,)],
    "blowup_full": lambda l: [(_EMPTY,)],
    "copy_blowup": lambda l: [(_DUP, j) for j in range(l)],
    "filenode_blowup": lambda l: [(_FILE,)],
}


class Shape(NamedTuple):
    """A code's dimensions before it is built; a LinearDss has the same fields."""

    params: SystemParams
    alpha_symbols: int
    file_len: int
    gamma_symbols: int

    @classmethod
    def predict(
        cls, name: str, parts: list, arg: int | None = None, budget: int | None = None
    ) -> "Shape":
        """The Shape of construction `name` over parts (codes or Shapes), within budget.

        The one shape rule of each construction, applied before it
        materializes anything; parse_recipe applies it to a whole recipe
        before building any composite part. `arg` is iterate's j or
        copy_blowup's l. The budget bounds the generator entries n * alpha * B
        counted dense, an upper bound on the entries the segments store;
        "base" applies that bound alone to a built base code.
        """
        p, alpha, file_len = parts[0].params, parts[0].alpha_symbols, parts[0].file_len
        n, gamma, fact = p.n, parts[0].gamma_symbols, math.factorial
        if name == "copy_blowup" and not 1 <= arg <= p.k - 1:
            raise RangeError(f"copy count l must lie in [1, {p.k - 1}], got {arg}")
        if name in _APPENDED:
            # m positions, each hosting every augmented node copies/m times
            appended = _APPENDED[name](arg)
            m = n + len(appended)
            copies = m if name == "blowup_simple" else fact(m)  # cyclic or all placements
            per_node = copies // m
            sizes = {_EMPTY: 0, _DUP: alpha, _FILE: file_len}
            shift = 0 if name == "filenode_blowup" else len(appended)
            if name == "copy_blowup":  # a lost node's twin among the helpers sends alpha
                twins = 2 * arg * (p.d + arg) * fact(m - 2)
                gamma = twins * alpha + (copies - twins) * gamma
            elif name == "filenode_blowup":
                gamma = per_node * ((n - p.d) * gamma + (p.d + p.k) * alpha)
            else:
                gamma = per_node * n * gamma
            out = cls(
                SystemParams(m, p.k + shift, p.d + shift),
                per_node * (n * alpha + sum(sizes[a[0]] for a in appended)),
                copies * file_len,
                gamma,
            )
        elif name == "iterate":
            if arg < 1:
                raise RangeError(f"iteration count must be >= 1, got {arg}")
            out = parts[0]
            for _ in range(arg):
                out = cls.predict("blowup_full", [out], budget=budget)
        elif name == "concat":
            if len({(q.params.epsilon, q.params.delta) for q in parts}) != 1:
                raise InputError("parts must share epsilon = n-k and delta = n-d")
            if len({q.alpha_symbols for q in parts}) != 1:
                raise InputError("parts must share the node size alpha")
            n = sum(q.params.n for q in parts)
            params = SystemParams(n, n - p.epsilon, n - p.delta)
            out = cls(
                params, alpha, sum(q.file_len for q in parts), max(q.gamma_symbols for q in parts)
            )
        elif name == "base":  # a built base code: only the budget applies
            out = cls(p, alpha, file_len, gamma)
        else:
            raise ValueError(f"unknown construction {name!r}")
        limit = DEFAULT_BUDGET if budget is None else budget
        entries = out.params.n * out.alpha_symbols * out.file_len
        if entries > limit:
            raise ResourceError(
                f"construction holds {entries} generator entries (n={out.params.n} x "
                f"alpha={out.alpha_symbols} x B={out.file_len}), over the budget {limit}"
            )
        return out


class _CopiesRule(RepairRule):
    """Repair rule shared by every composition: rebuild the failed node from its copies.

    Each copy is one record (part, hosts): hosts maps each composite
    position the copy hosts to (node, start), the part node placed there
    and where its content starts among that position's symbols. A copy
    that does not host the failed position contributes nothing. For one
    that does, the cheapest legal route rebuilds its node: a single
    download from an exact twin or from a file node when one is among the
    helpers, a decode from k part helpers for a lost file node, otherwise
    the part's own repair rule with d part helpers. When more than d
    distinct part helpers are available the ones with the largest part
    index are excluded; the rule depends only on stored content, never on
    position numbers, so it is equidistributed across the permuted copies.
    Slices of the contents the public repair has checked go to _decode and
    to the part's rule unchecked. The copies taking the part repair are
    grouped by (part, lost part node, chosen part helpers), and the copies
    whose lost file node decodes from the same part nodes, read in part
    order, by (part, _FILE, those nodes). Each group of several runs the
    part's rule or _decode once on its copies' symbols laid side by side
    (_side_by_side), whether they are elements, forms, or the rows a level
    above handed down; a copy alone reads its own slices. Each copy keeps
    its slots in the output and counts the group's transfers through its
    own helpers.
    """

    def __init__(self, description, copies):
        self.description = description
        self.copies = copies

    def describe(self) -> dict:
        return self.description

    def execute(self, dss, failed, helpers, contents):
        counts = dict.fromkeys(helpers, 0)
        out: list = []
        # part repairs, grouped by (part, lost part node, chosen part helpers),
        # and file decodes, by (part, _FILE, part nodes read)
        groups = {}

        for part, hosts in self.copies:
            lost = hosts.get(failed)
            if lost is None:
                continue
            desc, alpha = lost[0], part.alpha_symbols
            # where each of this copy's nodes that a helper hosts is read
            at = {}
            for q in helpers:
                node = hosts.get(q)
                if node is not None:
                    at[node[0]] = (q, node[1])

            if desc[0] == _FILE:
                # rebuild the file from the first k part nodes among the helpers,
                # read in part order; the copy's slots in out are filled once
                # its group is decoded
                used = [(node[1], where) for node, where in at.items() if node[0] == _BASE]
                cand = dict(sorted(used[: part.params.k]))
                groups.setdefault((part, _FILE, tuple(cand)), []).append((len(out), cand))
                out += [0] * part.file_len
                continue

            u = desc[1]
            twin = at.get((_TWIN[desc[0]], u))
            if twin is not None:
                # the exact copy of the lost node alone transfers
                q, s = twin
                out.extend(contents[q][s : s + alpha])
                counts[q] += alpha
                continue
            file_at = at.get((_FILE,))
            if file_at is not None:
                # a file node computes the lost content and sends it
                q, s = file_at
                out.extend(apply_generator(part.node_gens[u], contents[q][s : s + part.file_len]))
                counts[q] += alpha
                continue

            # part repair: collect distinct part helpers (part nodes and
            # twins), original preferred over its twin, then keep the d
            # smallest part indices; the copy's slots in out are filled
            # once its group is repaired
            cand: dict[int, tuple[int, int]] = {}
            for node, where in at.items():
                if node[0] != _FILE and node[1] != u:
                    if node[1] not in cand or node[0] == _BASE:
                        cand[node[1]] = where
            chosen = tuple(sorted(cand)[: part.params.d])
            groups.setdefault((part, u, chosen), []).append((len(out), cand))
            out += [0] * alpha

        # one part repair or file decode per group, on the actual symbols of
        # its copies (never a repair map taken from unit forms: they are
        # inconsistent where a lost file decodes k*alpha > B symbols)
        for (part, u, chosen), members in groups.items():
            alpha = part.alpha_symbols
            copies = [
                [contents[q][s : s + alpha] for q, s in map(cand.__getitem__, chosen)]
                for _, cand in members
            ]
            if len(members) == 1:  # a copy alone reads its own slices
                rows, unlay = copies[0], lambda rebuilt: [rebuilt]
            else:
                rows, unlay = _side_by_side(copies)
            if u == _FILE:
                rebuilt = _decode(part, chosen, [symbol for read in rows for symbol in read])
                per_helper = dict.fromkeys(chosen, alpha)
            else:
                rebuilt, report = part.repair_rule.execute(part, u, chosen, dict(zip(chosen, rows)))
                per_helper = report.per_helper
            for (slot, cand), piece in zip(members, unlay(rebuilt)):
                out[slot : slot + len(piece)] = piece
                for w, amount in per_helper.items():
                    counts[cand[w][0]] += amount

        return out, BandwidthReport(counts)


def _side_by_side(copies: list) -> tuple[list, Callable]:
    """The symbols of one part repair's copies, laid side by side as rows of forms.

    copies[i][j] holds what copy i reads from its j-th chosen helper. An
    element copy takes one column, a form copy the span of columns its
    segments cover, so row t of helper j holds every copy's t-th symbol
    from it. Returns the rows, per helper, and the function that splits the
    rebuilt rows back into each copy's symbols.
    """
    reads = range(len(copies[0]))
    if not _forms(copies[0][0]):
        rows = [[(0, list(row)) for row in zip(*[c[j] for c in copies])] for j in reads]
        return rows, lambda rebuilt: list(zip(*_dense(rebuilt, len(copies))))

    spans = [_span([symbol for read in copy for symbol in read]) for copy in copies]
    offsets = list(itertools.accumulate([end - first for first, end in spans], initial=0))
    width, rows = offsets.pop(), []
    for j in reads:
        helper_rows = []
        for t in range(len(copies[0][j])):
            row = [0] * width
            for copy, (first, _), off in zip(copies, spans, offsets):
                start, entries = copy[j][t]
                row[off + start - first : off + start - first + len(entries)] = entries
            helper_rows.append((0, row))
        rows.append(helper_rows)

    def unlay(rebuilt):
        dense = _dense(rebuilt, width)
        return [
            [_trim(row[off : off + end - first], first) for row in dense]
            for (first, end), off in zip(spans, offsets)
        ]

    return rows, unlay


def _compose(name, parts, arg=None, budget=None):
    """Build construction `name` over parts: the one assembly of every composite.

    Its Shape is predicted, and admitted by the budget, before anything is
    materialized; `arg` is copy_blowup's l. Every composite is a list of
    placed copies, each a part and the (position, node) pairs it hosts;
    the copies' files take consecutive column blocks. A placed row is the
    part row's segment moved to its copy's block, sharing its entries; a
    file node's rows are one-entry unit segments.
    """
    shape = Shape.predict(name, parts, arg, budget)
    if len({p.field for p in parts}) != 1:
        raise InputError("parts must share the field")
    npos, file_len = shape.params.n, shape.file_len
    placed = []  # (part, [(position, node hosted there), ...]) per copy
    if name == "concat":  # part j hosts its nodes at positions starts[j]...
        starts = list(itertools.accumulate([p.params.n for p in parts[:-1]], initial=0))
        for part, start in zip(parts, starts):
            placed.append((part, [(start + u, (_BASE, u)) for u in range(part.params.n)]))
        layout = {"node_offsets": starts, "part_gammas": [p.gamma_symbols for p in parts]}
        description = {"kind": name, "parts": [p.label for p in parts]}
    else:
        base, n = parts[0], parts[0].params.n
        aug_nodes = [(_BASE, u) for u in range(n)] + _APPENDED[name](arg)
        if name == "blowup_simple":  # copy j parks the empty node at position j
            sigmas = [tuple([u if u < j else u + 1 for u in range(n)] + [j]) for j in range(npos)]
        else:
            sigmas = [tuple(p) for p in itertools.permutations(range(npos))]
        for sigma in sigmas:  # augmented node a sits at position sigma[a]
            placed.append((base, [(pos, a) for pos, a in zip(sigma, aug_nodes) if a[0] != _EMPTY]))
        # where each copy put the appended nodes; only copy_blowup appends several
        kind = aug_nodes[n][0]
        layout = {f"{kind}_positions": [list(s[n:]) if kind == _DUP else s[n] for s in sigmas]}
        if name != "blowup_simple":
            layout = {"permutations": [list(s) for s in sigmas], **layout}
        description = {"kind": name, "copies": len(placed), "base": base.label}

    # one pass: each copy's rows go to the positions it hosts, shifted to its
    # file's column block and sharing the part's entries; its record keeps
    # where its content starts
    gens = [[] for _ in range(npos)]
    copies, col, unit = [], 0, [1]
    for part, placement in placed:
        B, hosts = part.file_len, {}
        for pos, node in placement:
            hosts[pos] = (node, len(gens[pos]))
            if node[0] == _FILE:
                gens[pos] += [(col + r, unit) for r in range(B)]
            else:
                segments = part.node_gens[node[1]].segments
                gens[pos] += [(col + start, entries) for start, entries in segments]
        copies.append((part, hosts))
        col += B
    if {len(rows) for rows in gens} != {shape.alpha_symbols} or col != file_len:
        raise AssertionError("composition disagrees with its shape rule")

    field = parts[0].field
    meta = {
        "kind": name,
        "copies": len(copies),
        "base_labels": [p.label for p in parts],
        "copy_layout": layout,
    }
    suffix = "" if arg is None else f",{arg}"
    return LinearDss(
        params=shape.params,
        field=field,
        file_len=file_len,
        node_gens=[_matrix(field, file_len, rows) for rows in gens],
        repair_rule=_CopiesRule(description, copies),
        label=f"{name}({','.join(p.label for p in parts)}{suffix})",
        gamma_symbols=shape.gamma_symbols,
        meta=meta,
    )


def blowup_simple(base: LinearDss, budget: int | None = None) -> LinearDss:
    """Append one empty node and stack the n+1 cyclic placements of it.

    Yields parameters (n+1, k+1, d+1) with alpha' = n*alpha, gamma' =
    n*gamma and B' = (n+1)*B; repair stays exact but is not symmetric in
    general.
    """
    return _compose("blowup_simple", [base], budget=budget)


def blowup_full(base: LinearDss, budget: int | None = None) -> LinearDss:
    """Append one empty node and stack all (n+1)! permuted placements.

    Same normalized performance as blowup_simple but with exactly equal
    per-helper transfers in every repair (symmetric repair).
    """
    return _compose("blowup_full", [base], budget=budget)


def iterate(base: LinearDss, j: int, budget: int | None = None) -> LinearDss:
    """j-fold blowup_full; parameters shift to (n+j, k+j, d+j).

    Every level is checked against the budget before the first is built.
    """
    Shape.predict("iterate", [base], j, budget)
    out = base
    for _ in range(j):
        out = blowup_full(out, budget=budget)
    return out


def copy_blowup(base: LinearDss, l: int, budget: int | None = None) -> LinearDss:
    """Append exact copies of the first l nodes and stack all permutations.

    Parameters become (n+l, k+l, d+l). Whenever the twin of a lost node
    sits among the helpers it alone transfers alpha symbols, which is what
    pulls the bandwidth below a plain parameter shift.
    """
    return _compose("copy_blowup", [base], l, budget)


def filenode_blowup(base: LinearDss, budget: int | None = None) -> LinearDss:
    """Append a node holding the whole file and stack all permutations.

    Parameters become (n+1, k, d): reconstruction and repair degrees stay
    put while the node size grows to n!(n*alpha + B). Repair of a file node
    costs k*alpha via reconstruction; repair of an ordinary node with a
    file node among the helpers costs alpha.
    """
    return _compose("filenode_blowup", [base], budget=budget)


def concat(parts: list[LinearDss], budget: int | None = None) -> LinearDss:
    """Place systems with equal (epsilon, delta, alpha) side by side.

    The result has parameters (sum n_j, sum n_j - epsilon, sum n_j - delta)
    and stores the concatenation of the part files. Each part must keep the
    same node size and field; the declared bandwidth is the largest part
    bandwidth (parts at their own operating points may repair with less).
    """
    if not parts:
        raise InputError("concat needs at least one part")
    if len(parts) == 1:
        return parts[0]
    return _compose("concat", parts, budget=budget)
