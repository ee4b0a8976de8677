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

# Augmented-system node descriptors
_BASE = "base"
_DUP = "dup"
_EMPTY = "empty"
_FILE = "file"


class Shape(NamedTuple):
    """A code's dimensions before it is built; a LinearDss has the same fields."""

    params: SystemParams
    alpha_symbols: int
    file_len: int

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
        n, fact = p.n, math.factorial
        if name == "blowup_simple":
            out = cls(p.shifted(1), n * alpha, (n + 1) * file_len)
        elif name == "blowup_full":
            if n > BLOWUP_FULL_MAX_BASE_N:
                raise ResourceError(
                    f"blowup_full needs ({n}+1)! copies; base n is capped at "
                    f"{BLOWUP_FULL_MAX_BASE_N}"
                )
            out = cls(p.shifted(1), n * fact(n) * alpha, fact(n + 1) * file_len)
        elif name == "iterate":
            if arg < 1:
                raise RangeError(f"iteration count must be >= 1, got {arg}")
            out = parts[0]
            for _ in range(arg):
                out = cls.predict("blowup_full", [out], budget=budget)
        elif name == "copy_blowup":
            if not 1 <= arg <= p.k - 1:
                raise RangeError(f"copy count l must lie in [1, {p.k - 1}], got {arg}")
            out = cls(p.shifted(arg), fact(n + arg) * alpha, fact(n + arg) * file_len)
        elif name == "filenode_blowup":
            params = SystemParams(n + 1, p.k, p.d)
            out = cls(params, fact(n) * (n * alpha + file_len), fact(n + 1) * file_len)
        elif name == "concat":
            if len({(q.params.epsilon, q.params.delta) for q in parts}) != 1:
                raise InputError("parts must share epsilon = n-k and delta = n-d")
            if len({q.alpha_symbols for q in parts}) != 1:
                raise InputError("parts must share the node size alpha")
            if len(parts) == 1:
                return cls(p, alpha, file_len)
            n = sum(q.params.n for q in parts)
            params = SystemParams(n, n - p.epsilon, n - p.delta)
            out = cls(params, alpha, sum(q.file_len for q in parts))
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


def _compose(base, aug_nodes, sigmas, shape2, gamma2, variant, label, layout):
    """Assemble the composite LinearDss shared by every blowup variant.

    shape2 is the composite's Shape, already admitted by the budget.
    """
    field = base.field
    B_b = base.file_len
    copies = len(sigmas)
    npos = shape2.params.n
    lengths = {
        _BASE: base.alpha_symbols,
        _DUP: base.alpha_symbols,
        _EMPTY: 0,
        _FILE: B_b,
    }
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
    if set(running) != {shape2.alpha_symbols} or copies * B_b != shape2.file_len:
        raise AssertionError("composition disagrees with its shape rule")
    file_len = shape2.file_len

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
        gens.append(FieldMatrix(field, rows))

    twin = [None] * len(aug_nodes)
    file_aug = None
    for a, desc in enumerate(aug_nodes):
        if desc[0] == _DUP:
            twin[a] = desc[1]
            twin[desc[1]] = a
        elif desc[0] == _FILE:
            file_aug = a

    rule = _PermutedCopiesRule(
        variant, base, aug_nodes, sigmas, aug_at, offsets, twin, file_aug
    )
    meta = {"kind": variant, "copies": copies, "base_labels": [base.label], "copy_layout": layout}
    return LinearDss(
        params=shape2.params,
        field=field,
        file_len=file_len,
        node_gens=gens,
        repair_rule=rule,
        label=label,
        gamma_symbols=gamma2,
        meta=meta,
    )


def blowup_simple(base: LinearDss, budget: int | None = None) -> LinearDss:
    """Append one empty node and stack the n+1 cyclic placements of it.

    Yields parameters (n+1, k+1, d+1) with alpha' = n*alpha, gamma' =
    n*gamma and B' = (n+1)*B; repair stays exact but is not symmetric in
    general.
    """
    shape2 = Shape.predict("blowup_simple", [base], budget=budget)
    n = base.params.n
    aug_nodes = tuple([(_BASE, u) for u in range(n)] + [(_EMPTY,)])
    sigmas = []
    for j in range(n + 1):
        # copy j parks the empty node at position j
        sigma = [u if u < j else u + 1 for u in range(n)] + [j]
        sigmas.append(tuple(sigma))
    layout = {"empty_positions": [int(s[n]) for s in sigmas]}
    return _compose(
        base,
        aug_nodes,
        sigmas,
        shape2,
        n * base.gamma_symbols,
        "blowup_simple",
        f"blowup_simple({base.label})",
        layout,
    )


def blowup_full(base: LinearDss, budget: int | None = None) -> LinearDss:
    """Append one empty node and stack all (n+1)! permuted placements.

    Same normalized performance as blowup_simple but with exactly equal
    per-helper transfers in every repair (symmetric repair).
    """
    shape2 = Shape.predict("blowup_full", [base], budget=budget)
    n = base.params.n
    aug_nodes = tuple([(_BASE, u) for u in range(n)] + [(_EMPTY,)])
    sigmas = [tuple(p) for p in itertools.permutations(range(n + 1))]
    gamma2 = n * math.factorial(n) * base.gamma_symbols
    layout = {
        "permutations": [list(s) for s in sigmas],
        "empty_positions": [int(s[n]) for s in sigmas],
    }
    return _compose(
        base,
        aug_nodes,
        sigmas,
        shape2,
        gamma2,
        "blowup_full",
        f"blowup_full({base.label})",
        layout,
    )


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
    shape2 = Shape.predict("copy_blowup", [base], l, budget)
    n, d = base.params.n, base.params.d
    aug_nodes = tuple([(_BASE, u) for u in range(n)] + [(_DUP, j) for j in range(l)])
    sigmas = [tuple(p) for p in itertools.permutations(range(n + l))]
    twin_copies = 2 * l * (d + l) * math.factorial(n + l - 2)
    gamma2 = twin_copies * base.alpha_symbols + (
        math.factorial(n + l) - twin_copies
    ) * base.gamma_symbols
    layout = {
        "permutations": [list(s) for s in sigmas],
        "copy_positions": [[int(s[n + j]) for j in range(l)] for s in sigmas],
    }
    return _compose(
        base,
        aug_nodes,
        sigmas,
        shape2,
        gamma2,
        "copy_blowup",
        f"copy_blowup({base.label},{l})",
        layout,
    )


def filenode_blowup(base: LinearDss, budget: int | None = None) -> LinearDss:
    """Append a node holding the whole file and stack all permutations.

    Parameters become (n+1, k, d): reconstruction and repair degrees stay
    put while the node size grows to n!(n*alpha + B). Repair of a file node
    costs k*alpha via reconstruction; repair of an ordinary node with a
    file node among the helpers costs alpha.
    """
    shape2 = Shape.predict("filenode_blowup", [base], budget=budget)
    n, k, d = base.params.n, base.params.k, base.params.d
    aug_nodes = tuple([(_BASE, u) for u in range(n)] + [(_FILE,)])
    sigmas = [tuple(p) for p in itertools.permutations(range(n + 1))]
    gamma2 = math.factorial(n) * (
        (n - d) * base.gamma_symbols + (d + k) * base.alpha_symbols
    )
    layout = {
        "permutations": [list(s) for s in sigmas],
        "file_positions": [int(s[n]) for s in sigmas],
    }
    return _compose(
        base,
        aug_nodes,
        sigmas,
        shape2,
        gamma2,
        "filenode_blowup",
        f"filenode_blowup({base.label})",
        layout,
    )


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
        gamma_symbols=max(p.gamma_symbols for p in parts),
        meta=meta,
    )
