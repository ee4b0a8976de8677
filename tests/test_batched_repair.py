"""One repair rule call per helper set: a batch of failed nodes equals its one-node calls.

RepairRule.execute takes a tuple of distinct failed nodes outside the
helpers and returns one (rebuilt, report) per node, in order. The
verifier's repair proof hands the rule each helper set's failed nodes
together, and walks the pairs again one node a call only when one fails;
so a call with several nodes must rebuild each as the call with that node
alone does, on forms and on field elements, transfers included, and a
rule that answers differently batched is refused.
"""

import random
from itertools import combinations

import pytest

import test_sweep
from regencode.cli import parse_recipe
from regencode.dss import CodeInvariantError, LinearDss, RepairRule, encode, rs_base
from regencode.verifier import measure_and_compare

# the random sweep's composites, and wide bases whose helper sets each serve
# 4, 7 and 3 failed nodes
RECIPES = [*test_sweep.recipes(), "base(16,12)", "base(14,7)", "base(20,17)"]


@pytest.mark.parametrize("recipe", RECIPES)
def test_a_helper_sets_failed_nodes_batched_equal_their_one_node_calls(recipe):
    code = parse_recipe(recipe, budget=test_sweep.BUDGET)
    rnd = random.Random(recipe)
    message = [rnd.randrange(code.field.order) for _ in range(code.file_len)]
    shapes = {"forms": [g.segments for g in code.node_gens], "elements": encode(code, message)}
    n, d = code.params.n, code.params.d
    execute = code.repair_rule.execute
    for helpers in combinations(range(n), d):
        failed = tuple(f for f in range(n) if f not in helpers)
        for shape, contents in shapes.items():
            batched = execute(code, failed, helpers, contents)
            assert len(batched) == len(failed), (recipe, helpers)
            for f, (rebuilt, report) in zip(failed, batched):
                [(alone, alone_report)] = execute(code, (f,), helpers, contents)
                assert rebuilt == alone, (recipe, shape, f, helpers)
                assert report.per_helper == alone_report.per_helper, (recipe, shape, f, helpers)


class BatchedOnlyFault(RepairRule):
    """Fault model: a call with several failed nodes rebuilds the last of them as zeros."""

    kind = "batched_only_fault"

    def __init__(self, inner):
        self.inner = inner

    def execute(self, dss, failed, helpers, contents):
        results = self.inner.execute(dss, failed, helpers, contents)
        if len(failed) > 1:
            rebuilt, report = results[-1]
            results[-1] = [(0, [])] * len(rebuilt), report
        return results


def test_a_rule_that_fails_only_batched_is_refused():
    # the grouped proof fails, and the plan-order walk, one node a call,
    # finds no counterexample: the report would say repair_ok false with
    # none, so the verifier raises
    base = rs_base(6, 3)
    code = LinearDss(
        base.params, base.field, base.file_len, base.node_gens,
        BatchedOnlyFault(base.repair_rule), "batched-only", base.gamma_symbols,
    )
    with pytest.raises(CodeInvariantError, match="only when batched"):
        measure_and_compare(code)
    # the same rule handed one node a call proves the code
    assert measure_and_compare(base).ok
