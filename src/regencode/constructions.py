"""Compositions that build storage codes from smaller ones by placing copies.

Every composition places copies of smaller codes (its parts) on the
composite nodes. A copy is a part and a record of the positions it hosts:
at each, one of the part's nodes, an exact twin of one, or a node holding
the part's whole file. Each copy stores its own file in its own block of
columns. The four blowups place permuted copies of one base augmented by
appended nodes (an empty node, twins, or a file node), so composite node
j stores the j-th node of every copy, and a copy hosts every position but
the one its empty node would take; concat places each part once, on its
own run of positions. The copy table is all a composite stores. Its
generator rows, rendered from the table when first read, are its copies'
rows, each the part's segment moved to the copy's columns and sharing the
part's entries. Reconstruction decodes symbols in their own shape, copy
by copy through the copy table. Repair plans routes over the copies for
all failed nodes (_CopiesRule._plan) and runs them, so exact repair is
inherited from the parts and bandwidth is accounted per copy; the
verifier judges the same plan without symbols. The copies that repair
the same part nodes from the same part helpers share one part repair,
those that compute a part node from a file node share one product, and
those that decode from the same part nodes, in a reconstruct or for a
lost file node, share one decode of their symbols side by side as rows,
a column per copy: solve gathers them as it walks the copies in batches,
and execute stacks each group's reads (_stack).
"""

from __future__ import annotations

import collections
import itertools
import math
from typing import NamedTuple

from .dss import (
    BandwidthReport,
    CodeInvariantError,
    InputError,
    LinearDss,
    RepairRule,
    ResourceError,
    _decode,
    apply_generator,
)
from .gf import _matrix
from .tradeoff import RangeError, SystemParams

# generator entries n * alpha * B a composite may span, dense. A composite
# stores only its copy table, but the budget still counts these entries, an
# upper bound on what its rendered generators hold. Admits
# iterate(base(3,2),2) at 49,766,400
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
        counted dense: a composite stores only its copy table, yet this
        count stays, an upper bound on the entries its rendered generators
        hold. "base" applies that bound alone to a built base code. A negative
        budget is a RangeError; 0 admits no entries.
        """
        if budget is not None and budget < 0:
            raise RangeError(f"budget must be >= 0, got {budget}")
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
    """Repair rule shared by every composition: rebuild the failed nodes from their copies.

    Each copy is one record (part, hosts, column): hosts maps each
    composite position the copy hosts to (node, start), the part node
    placed there and where its content starts among that position's
    symbols, and column is the first of its file's block. A copy that
    hosts no failed position contributes nothing. For one that does, the
    cheapest legal route rebuilds each node it loses (_plan): a single
    download from an exact twin or from a file node among the helpers, a
    decode from k part helpers for a lost file node, otherwise the part's
    own rule with its d smallest part helpers, one call for all such nodes
    of the copy. The rule depends only on stored content, never on
    position numbers, so it is equidistributed across the permuted copies.
    execute runs each group of the plan once on its copies' reads stacked
    (_stack), as solve decodes each group of copies reading equal part
    nodes; a copy alone runs on its own slices, unchecked: the public calls
    have checked the contents. Both take elements or rows and refuse forms
    (InputError): the verifier proves a composite from this table.
    Each copy keeps its slots in the output and counts its run's
    transfers through its own helpers. alpha_symbols is the composite's
    node size, and _render gives its generators from the table.
    """

    def __init__(self, description, copies, alpha_symbols):
        self.description = description
        self.copies = copies
        self.alpha_symbols = alpha_symbols

    def describe(self) -> dict:
        return self.description

    def _render(self, dss):
        """dss's node_gens: each copy's rows where it hosts, in table order, moved to its block."""
        gens, unit = [[] for _ in range(dss.params.n)], [1]
        for part, hosts, col in self.copies:
            for pos, (node, _) in hosts.items():
                if node[0] == _FILE:
                    gens[pos] += [(col + r, unit) for r in range(part.file_len)]
                else:
                    segments = part.node_gens[node[1]].segments
                    gens[pos] += [(col + start, entries) for start, entries in segments]
        return tuple(_matrix(dss.field, dss.file_len, rows) for rows in gens)

    def solve(self, dss, subset, symbols):
        """dss's file from subset's nodes' elements or rows, in that shape (dss._decode).

        The walk down the copy table moves copies in batches, one per
        (composite, positions read), of the copies' first columns and, per
        position read, each copy's first symbol there; a composite part
        joins its batch by C-level maps over them. The batch joined last is
        walked first, so checks fail in the order of a walk copy by copy.
        A copy that reads its file node takes that slice of symbols, and
        each part node it reads must be that file re-encoded
        (apply_generator), or CodeInvariantError. The copies of a code
        without copies that read equal part nodes gather their symbols as
        rows, a column per copy, and decode in one _decode.
        """
        shape, alpha = type(symbols[0]), dss.alpha_symbols
        x, routes, groups = [None] * dss.file_len, {}, {}
        batches = {(dss, tuple(subset)): ([0], [[i * alpha] for i in range(len(subset))])}
        while batches:
            (code, positions), (cols, firsts) = batches.popitem()
            rule = code.repair_rule
            if (rule, positions) not in routes:
                routes[rule, positions] = rule._routes(positions)
            copies, leaves = routes[rule, positions]
            for part, at, file, nodes, reads in copies:
                if file is None:  # a composite part, read at its part nodes
                    batch = batches.pop((part, nodes), None) or ([], [[] for _ in nodes])
                    into_cols, into_firsts = batches[part, nodes] = batch  # now last
                    into_cols += map(at.__add__, cols)
                    for into, (i, s) in zip(into_firsts, reads):
                        into += map(s.__add__, firsts[i])
                    continue
                for b, col in enumerate(cols):
                    first, col = firsts[file[0]][b] + file[1], col + at
                    x[col : col + part.file_len] = own = symbols[first : first + part.file_len]
                    for u, (i, s) in zip(nodes, reads):
                        first = firsts[i][b] + s
                        hosted = symbols[first : first + part.alpha_symbols]
                        if apply_generator(part.node_gens[u], own) != hosted:
                            raise CodeInvariantError(f"part node {u} is not its file re-encoded")
            for leaf, (ats, members) in leaves.items():
                into_cols, rows = groups.setdefault(leaf, ([], [[] for _ in members[0]]))
                for at, offsets in zip(ats, members):
                    into_cols += map(at.__add__, cols)
                    for row, (i, t) in zip(rows, offsets):
                        row += map(symbols.__getitem__, map(t.__add__, firsts[i]))
        for (part, nodes), (cols, rows) in groups.items():
            if shape is list:  # each copy's row on its own run of columns
                width = len(symbols[0])
                rows = [list(itertools.chain.from_iterable(row)) for row in rows]
            for r, row in enumerate(_decode(part, nodes, rows)):
                if shape is list:
                    row = [row[i : i + width] for i in range(0, len(row), width)]
                # x[col + r] = each copy's entry, run at C speed
                collections.deque(map(x.__setitem__, map(r.__add__, cols), row), maxlen=0)
        return x

    def _routes(self, positions):
        """How the copies read the nodes at positions, whatever the symbols (solve).

        A copy reads its file node there, at (index in positions, start), or
        None, and its part nodes there, sorted, a twin as its node again. The
        copies that read a file or hold a composite give (part, first column,
        file, part nodes, their reads); the rest, by (part, part nodes), their
        first columns and the (index, row) of each row they read.
        """
        copies, leaves = [], {}
        for part, hosts, col in self.copies:
            file, nodes = None, []
            for i, pos in enumerate(positions):
                if (held := hosts.get(pos)) is not None:
                    node, start = held
                    if node[0] == _FILE:
                        file = (i, start)
                    else:
                        nodes.append((node[1], i, start))
            nodes.sort()
            us, reads = tuple(u for u, _, _ in nodes), [(i, s) for _, i, s in nodes]
            if file is not None or isinstance(part.repair_rule, _CopiesRule):
                copies.append((part, col, file, us, reads))
            else:
                ats, members = leaves.setdefault((part, us), ([], []))
                ats.append(col)
                members.append([(i, s + t) for i, s in reads for t in range(part.alpha_symbols)])
        return copies, leaves

    def _plan(self, dss, failed, helpers):
        """The routes that rebuild failed from helpers, whatever the symbols (execute).

        Returns (twins, groups, counts): each download from a lost node's
        twin as (slot, (helper, start), size); the groups, keyed (part, lost
        part nodes, chosen part helpers), (part, (u,), (_FILE,)) for part
        node u from a file node, or (part, _FILE, part nodes read) for a
        lost file node, each member a copy's slots, one per node its group
        rebuilds (failed node i's symbols are the slots from i * alpha on),
        and where it reads its part helpers; and per failed node each
        helper's twin transfers.
        """
        alpha, twins, groups = dss.alpha_symbols, [], {}
        counts = [dict.fromkeys(helpers, 0) for _ in failed]
        firsts = list(zip(range(0, len(failed) * alpha, alpha), failed))
        for part, hosts, _ in self.copies:
            at, slots, us = None, (), ()
            for first, f in firsts:
                lost = hosts.get(f)
                if lost is None:
                    continue
                if at is None:
                    # where each of this copy's nodes that a helper hosts is read,
                    # and its distinct part helpers (part nodes and twins), an
                    # original preferred over its twin; a lost part node with a
                    # twin among them takes the twin, so the part repairs share cand
                    at, cand = {}, {}
                    for q in helpers:
                        node = hosts.get(q)
                        if node is not None:
                            desc = node[0]
                            at[desc] = where = (q, node[1])
                            if desc[0] != _FILE and (desc[1] not in cand or desc[0] == _BASE):
                                cand[desc[1]] = where
                desc, slot = lost[0], first + lost[1]

                if desc[0] == _FILE:
                    # rebuild the file from the first k part nodes among the helpers,
                    # read in part order
                    used = [(node[1], where) for node, where in at.items() if node[0] == _BASE]
                    read = dict(sorted(used[: part.params.k]))
                    groups.setdefault((part, _FILE, tuple(read)), []).append(((slot,), read))
                    continue

                u = desc[1]
                twin = at.get((_TWIN[desc[0]], u))
                if twin is not None:  # the exact copy of the lost node alone transfers
                    twins.append((slot, twin, part.alpha_symbols))
                    counts[first // alpha][twin[0]] += part.alpha_symbols
                elif (_FILE,) in at:  # a file node computes the lost content and sends it
                    file_at = {_FILE: at[(_FILE,)]}
                    groups.setdefault((part, (u,), (_FILE,)), []).append(((slot,), file_at))
                else:
                    slots, us = slots + (slot,), us + (u,)

            if slots:  # part repair from the d smallest part helper indices
                chosen = tuple(sorted(cand)[: part.params.d])
                groups.setdefault((part, us, chosen), []).append((slots, cand))
        return twins, groups, counts

    def execute(self, dss, failed, helpers, contents):
        """Run the plan (_plan) on the helpers' symbols: each group once on its copies' reads."""
        if type(contents[helpers[0]][0]) is tuple:
            raise InputError(f"{dss.label}: a copy table repairs elements or rows, not forms")
        alpha, (twins, groups, counts) = dss.alpha_symbols, self._plan(dss, failed, helpers)
        out = [0] * (len(failed) * alpha)
        for slot, (q, s), size in twins:
            out[slot : slot + size] = contents[q][s : s + size]

        # one run per group on the actual symbols of its copies (a repair map
        # taken from unit forms is inconsistent where a lost file decodes
        # k*alpha > B symbols); done holds per node of the group each
        # member's (piece, transfer report)
        for (part, us, chosen), members in groups.items():
            size = part.file_len if chosen == (_FILE,) else part.alpha_symbols
            copies = [
                [contents[q][s : s + size] for q, s in map(cand.__getitem__, chosen)]
                for _, cand in members
            ]
            if len(members) == 1:  # a copy alone
                done = zip(*(_run(part, us, chosen, reads) for reads in copies))
            else:  # each chosen helper's reads stacked, the first split serving every result
                stacked, splits = zip(*(_stack(reads) for reads in zip(*copies)))
                results = _run(part, us, chosen, list(stacked))
                done = [zip(splits[0](rebuilt), itertools.repeat(bw)) for rebuilt, bw in results]
            for j, pieces in enumerate(done):
                for (slots, cand), (piece, report) in zip(members, pieces):
                    slot = slots[j]
                    out[slot : slot + len(piece)] = piece
                    count = counts[slot // alpha]
                    for w, amount in report.per_helper.items():
                        count[cand[w][0]] += amount

        cuts = range(0, len(out), alpha)
        return [(out[j : j + alpha], BandwidthReport(c)) for j, c in zip(cuts, counts)]


def _stack(copies):
    """Copies' symbols, a list per copy, as one list of rows, and its inverse on a result.

    Elements zip into rows, a column per copy; rows concatenate, each copy
    on its own run of columns. The inverse splits a result's rows back
    into one list per copy.
    """
    if type(copies[0][0]) is int:
        return [list(t) for t in zip(*copies)], lambda rows: zip(*rows)
    width = len(copies[0][0])
    cuts = range(0, len(copies) * width, width)
    rows = [list(itertools.chain.from_iterable(t)) for t in zip(*copies)]
    return rows, lambda rows: ([row[i : i + width] for row in rows] for i in cuts)


def _run(part, us, chosen, reads):
    """Part nodes us (for _FILE the file) rebuilt from reads of chosen, as RepairRule.execute.

    chosen is part nodes, or (_FILE,) for node us[0] computed from the file a file node holds.
    """
    if us == _FILE:
        symbols = [symbol for read in reads for symbol in read]
        report = BandwidthReport(dict.fromkeys(chosen, part.alpha_symbols))
        return [(_decode(part, chosen, symbols), report)]
    if chosen == (_FILE,):
        report = BandwidthReport({_FILE: part.alpha_symbols})
        return [(apply_generator(part.node_gens[us[0]], reads[0]), report)]
    return part.repair_rule.execute(part, us, chosen, dict(zip(chosen, reads)))


def _compose(name, parts, arg=None, budget=None):
    """Build construction `name` over parts: the one assembly of every composite.

    Its Shape is predicted, and admitted by the budget, before anything is
    materialized; `arg` is copy_blowup's l. Every composite is a list of
    placed copies, each a part and the (position, node) pairs it hosts;
    the copies' files take consecutive column blocks. The composite stores
    that copy table only: its generators are rendered from it when first
    read (_CopiesRule._render).
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

    # one pass: each copy's record keeps where its content starts at each
    # position it hosts, after the copies before it, and its file's first column
    sizes, copies, col = [0] * npos, [], 0
    for part, placement in placed:
        hosts = {}
        for pos, node in placement:
            hosts[pos] = (node, sizes[pos])
            sizes[pos] += part.file_len if node[0] == _FILE else part.alpha_symbols
        copies.append((part, hosts, col))
        col += part.file_len
    if set(sizes) != {shape.alpha_symbols} or col != file_len:
        raise AssertionError("composition disagrees with its shape rule")

    meta = {
        "kind": name,
        "copies": len(copies),
        "base_labels": [p.label for p in parts],
        "copy_layout": layout,
    }
    suffix = "" if arg is None else f",{arg}"
    return LinearDss(
        params=shape.params,
        field=parts[0].field,
        file_len=file_len,
        node_gens=None,
        repair_rule=_CopiesRule(description, copies, shape.alpha_symbols),
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
