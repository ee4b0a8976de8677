"""Compositions that turn base storage codes into codes with shifted parameters.

All blowup-style constructions share one mechanism: take the base system,
append special nodes (an empty node, exact copies, or a node holding the
whole file), and stack permuted copies of the augmented system so that
composite node j stores the j-th node of every copy. Repair and
reconstruction delegate into the copies, so exact repair is inherited and
bandwidth is accounted per copy.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

from .dss import (
    BandwidthReport,
    InputError,
    LinearDss,
    RepairRule,
    ResourceError,
    apply_generator,
    reconstruct,
    repair,
)
from .gf import FieldMatrix
from .tradeoff import RangeError, SystemParams

# dense generator entries (n * alpha * B) a composite may hold; admits
# iterate(base(3,2),2) at 49,766,400 entries
DEFAULT_BUDGET = 5 * 10**7
BLOWUP_FULL_MAX_BASE_N = 5  # (n+1)! copies beyond this is no longer desk scale

# Augmented-system node descriptors; each appended kind names its layout key
_BASE = "base"
_DUP = "copy"
_EMPTY = "empty"
_FILE = "file"

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
        before building any part. `arg` is iterate's j or copy_blowup's l.
        The budget bounds the dense generator entries n * alpha * B.
        """
        p, alpha, file_len = parts[0].params, parts[0].alpha_symbols, parts[0].file_len
        n, gamma, fact = p.n, parts[0].gamma_symbols, math.factorial
        if name == "blowup_full" and n > BLOWUP_FULL_MAX_BASE_N:
            raise ResourceError(
                f"blowup_full needs ({n}+1)! copies; base n is capped at "
                f"{BLOWUP_FULL_MAX_BASE_N}"
            )
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
            if len(parts) == 1:
                return cls(p, alpha, file_len, gamma)
            n = sum(q.params.n for q in parts)
            params = SystemParams(n, n - p.epsilon, n - p.delta)
            out = cls(
                params, alpha, sum(q.file_len for q in parts), max(q.gamma_symbols for q in parts)
            )
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


class _PermutedCopiesRule(RepairRule):
    """Repair rule shared by all permuted-copy compositions.

    For each copy the failed composite position hosts one augmented node;
    the cheapest legal route rebuilds it: nothing for an empty node, a
    single download from an exact twin or from a file node when one is
    among the helpers, otherwise the base system's own repair with d base
    helpers. When more than d distinct base helpers are available the ones
    with the largest base index are excluded; the rule depends only on
    stored content, never on position numbers, so it is equidistributed
    across the permuted copies.
    """

    def __init__(self, variant, base, aug_nodes, sigmas, aug_at, offsets, twin, file_aug):
        self.kind = variant
        self.base = base
        self.aug_nodes = aug_nodes
        self.sigmas = sigmas
        self.aug_at = aug_at
        self.offsets = offsets
        self.twin = twin
        self.file_aug = file_aug

    def describe(self) -> dict:
        return {"kind": self.kind, "copies": len(self.sigmas), "base": self.base.label}

    def _extract(self, contents, c, pos, length):
        off = self.offsets[c][pos]
        return contents[pos][off : off + length]

    def execute(self, dss, failed, helpers, contents):
        base = self.base
        nb, kb, db = base.params.n, base.params.k, base.params.d
        alpha_b, B_b = base.alpha_symbols, base.file_len
        helper_set = set(helpers)
        counts = {q: 0 for q in helpers}
        out: list[int] = []

        for c, sigma in enumerate(self.sigmas):
            a_failed = self.aug_at[c][failed]
            desc = self.aug_nodes[a_failed]
            if desc[0] == _EMPTY:
                continue

            if desc[0] == _FILE:
                # rebuild the file from the first k base-content helpers
                used = []
                for q in helpers:
                    node = self.aug_nodes[self.aug_at[c][q]]
                    if node[0] in (_BASE, _DUP):
                        used.append((q, node[1]))
                        if len(used) == kb:
                            break
                sub = [None] * nb
                for q, w in used:
                    sub[w] = self._extract(contents, c, q, alpha_b)
                out.extend(reconstruct(base, [w for _, w in used], sub))
                for q, _ in used:
                    counts[q] += alpha_b
                continue

            u = desc[1]
            twin_a = self.twin[a_failed]
            if twin_a is not None and sigma[twin_a] in helper_set:
                # the exact copy of the lost node alone transfers
                q = sigma[twin_a]
                out.extend(self._extract(contents, c, q, alpha_b))
                counts[q] += alpha_b
                continue
            if self.file_aug is not None and sigma[self.file_aug] in helper_set:
                # a file node computes the lost content and sends it
                q = sigma[self.file_aug]
                file_content = self._extract(contents, c, q, B_b)
                out.extend(apply_generator(base.node_gens[u], file_content))
                counts[q] += alpha_b
                continue

            # base repair: collect distinct base helpers, original preferred
            # over its duplicate, then keep the d smallest base indices
            cand: dict[int, tuple[int, int]] = {}
            for q in helpers:
                aq = self.aug_at[c][q]
                node = self.aug_nodes[aq]
                if node[0] not in (_BASE, _DUP):
                    continue
                w = node[1]
                if w == u:
                    continue
                prev = cand.get(w)
                if prev is None or (
                    self.aug_nodes[prev[0]][0] == _DUP and node[0] == _BASE
                ):
                    cand[w] = (aq, q)
            chosen = sorted(cand)[:db]
            sub = [None] * nb
            pos_of = {}
            for w in chosen:
                _, q = cand[w]
                sub[w] = self._extract(contents, c, q, alpha_b)
                pos_of[w] = q
            rebuilt, report = repair(base, u, chosen, sub)
            out.extend(rebuilt)
            for w, amount in report.per_helper.items():
                counts[pos_of[w]] += amount

        return out, BandwidthReport(counts)


def _compose(name, base, arg=None, budget=None):
    """Build blowup `name` of base: the one assembly of every permuted-copy code.

    Its Shape is predicted, and admitted by the budget, before anything is
    materialized; `arg` is copy_blowup's l.
    """
    shape = Shape.predict(name, [base], arg, budget)
    n, npos, B_b = base.params.n, shape.params.n, base.file_len
    aug_nodes = tuple([(_BASE, u) for u in range(n)] + _APPENDED[name](arg))
    if name == "blowup_simple":  # copy j parks the empty node at position j
        sigmas = [tuple([u if u < j else u + 1 for u in range(n)] + [j]) for j in range(npos)]
    else:
        sigmas = [tuple(p) for p in itertools.permutations(range(npos))]
    copies = len(sigmas)
    lengths = {_BASE: base.alpha_symbols, _DUP: base.alpha_symbols, _EMPTY: 0, _FILE: B_b}
    aug_at = []
    for sigma in sigmas:
        inv = [0] * npos
        for a, pos in enumerate(sigma):
            inv[pos] = a
        aug_at.append(tuple(inv))
    offsets = []
    running = [0] * npos
    for c in range(copies):
        offsets.append(tuple(running))
        for pos in range(npos):
            running[pos] += lengths[aug_nodes[aug_at[c][pos]][0]]
    if set(running) != {shape.alpha_symbols} or copies * B_b != shape.file_len:
        raise AssertionError("composition disagrees with its shape rule")
    file_len = shape.file_len

    gens = []
    for pos in range(npos):
        rows = []
        for c in range(copies):
            desc = aug_nodes[aug_at[c][pos]]
            block = c * B_b
            if desc[0] in (_BASE, _DUP):
                for base_row in base.node_gens[desc[1]].data:
                    row = [0] * file_len
                    row[block : block + B_b] = base_row
                    rows.append(row)
            elif desc[0] == _FILE:
                for r in range(B_b):
                    row = [0] * file_len
                    row[block + r] = 1
                    rows.append(row)
        gens.append(FieldMatrix(base.field, rows))

    twin = [None] * len(aug_nodes)
    file_aug = None
    for a, desc in enumerate(aug_nodes):
        if desc[0] == _DUP:
            twin[a] = desc[1]
            twin[desc[1]] = a
        elif desc[0] == _FILE:
            file_aug = a

    # where each copy put the appended nodes; only copy_blowup appends several
    kind = aug_nodes[n][0]
    placed = [[int(s[a]) for a in range(n, npos)] for s in sigmas]
    layout = {f"{kind}_positions": placed if kind == _DUP else [a[0] for a in placed]}
    if name != "blowup_simple":
        layout = {"permutations": [list(s) for s in sigmas], **layout}
    rule = _PermutedCopiesRule(name, base, aug_nodes, sigmas, aug_at, offsets, twin, file_aug)
    meta = {"kind": name, "copies": copies, "base_labels": [base.label], "copy_layout": layout}
    suffix = "" if arg is None else f",{arg}"
    return LinearDss(
        params=shape.params,
        field=base.field,
        file_len=file_len,
        node_gens=gens,
        repair_rule=rule,
        label=f"{name}({base.label}{suffix})",
        gamma_symbols=shape.gamma_symbols,
        meta=meta,
    )


def blowup_simple(base: LinearDss, budget: int | None = None) -> LinearDss:
    """Append one empty node and stack the n+1 cyclic placements of it.

    Yields parameters (n+1, k+1, d+1) with alpha' = n*alpha, gamma' =
    n*gamma and B' = (n+1)*B; repair stays exact but is not symmetric in
    general.
    """
    return _compose("blowup_simple", base, budget=budget)


def blowup_full(base: LinearDss, budget: int | None = None) -> LinearDss:
    """Append one empty node and stack all (n+1)! permuted placements.

    Same normalized performance as blowup_simple but with exactly equal
    per-helper transfers in every repair (symmetric repair).
    """
    return _compose("blowup_full", base, budget=budget)


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
    return _compose("copy_blowup", base, l, budget)


def filenode_blowup(base: LinearDss, budget: int | None = None) -> LinearDss:
    """Append a node holding the whole file and stack all permutations.

    Parameters become (n+1, k, d): reconstruction and repair degrees stay
    put while the node size grows to n!(n*alpha + B). Repair of a file node
    costs k*alpha via reconstruction; repair of an ordinary node with a
    file node among the helpers costs alpha.
    """
    return _compose("filenode_blowup", base, budget=budget)


class _ConcatRule(RepairRule):
    kind = "concat"

    def __init__(self, parts, node_offsets):
        self.parts = parts
        self.node_offsets = node_offsets

    def describe(self) -> dict:
        return {"kind": self.kind, "parts": [p.label for p in self.parts]}

    def _owner(self, index):
        for j in range(len(self.parts) - 1, -1, -1):
            if index >= self.node_offsets[j]:
                return j
        raise InputError(f"node index {index} not owned by any part")

    def execute(self, dss, failed, helpers, contents):
        j = self._owner(failed)
        part = self.parts[j]
        off = self.node_offsets[j]
        local_failed = failed - off
        local_helpers = [
            q - off for q in helpers if off <= q < off + part.params.n
        ]
        chosen = local_helpers[: part.params.d]
        sub = [None] * part.params.n
        for w in chosen:
            sub[w] = contents[off + w]
        rebuilt, report = repair(part, local_failed, chosen, sub)
        counts = {q: 0 for q in helpers}
        for w, amount in report.per_helper.items():
            counts[off + w] += amount
        return rebuilt, BandwidthReport(counts)


def concat(parts: list[LinearDss], budget: int | None = None) -> LinearDss:
    """Place systems with equal (epsilon, delta, alpha) side by side.

    The result has parameters (sum n_j, sum n_j - epsilon, sum n_j - delta)
    and stores the concatenation of the part files. Each part must keep the
    same node size and field; the declared bandwidth is the largest part
    bandwidth (parts at their own operating points may repair with less).
    """
    if not parts:
        raise InputError("concat needs at least one part")
    shape2 = Shape.predict("concat", parts, budget=budget)
    fields = {p.field for p in parts}
    if len(fields) != 1:
        raise InputError("parts must share the field")
    if len(parts) == 1:
        return parts[0]
    field = fields.pop()
    file_len = shape2.file_len

    node_offsets, col_offsets = [], []
    acc_n = acc_b = 0
    for p in parts:
        node_offsets.append(acc_n)
        col_offsets.append(acc_b)
        acc_n += p.params.n
        acc_b += p.file_len
    gens = []
    for j, p in enumerate(parts):
        for g in p.node_gens:
            rows = []
            for base_row in g.data:
                row = [0] * file_len
                row[col_offsets[j] : col_offsets[j] + p.file_len] = base_row
                rows.append(row)
            gens.append(FieldMatrix(field, rows))

    meta = {
        "kind": "concat",
        "copies": len(parts),
        "base_labels": [p.label for p in parts],
        "copy_layout": {
            "node_offsets": node_offsets,
            "part_gammas": [p.gamma_symbols for p in parts],
        },
    }
    return LinearDss(
        params=shape2.params,
        field=field,
        file_len=file_len,
        node_gens=gens,
        repair_rule=_ConcatRule(parts, node_offsets),
        label="concat(" + ",".join(p.label for p in parts) + ")",
        gamma_symbols=shape2.gamma_symbols,
        meta=meta,
    )
