"""The benchmark's workloads: seeded job lists and the checks on their outputs.

A workload is built from a seed and yields a list of jobs for one pass. Every
pass of one workload and seed runs the same inputs, so a job's time can be
taken as its median over the passes and the traced counters repeat exactly.
A job is timed around `run` only; `check` runs afterwards and is not part of
the job time. `warm_up` makes one small call whose output is not checked: a
broken program shows in the timed jobs, not as a crash during set-up.

Imports `regencode` lazily through `load_program`, which must be called first
with the checkout root, so this module never falls back to an installed copy.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

cli = None
dss = None


def load_program(root: Path):
    """Import regencode from `root/src` and refuse any other copy."""
    import sys

    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    global cli, dss
    import regencode
    from regencode import cli as _cli, dss as _dss

    if Path(regencode.__file__).resolve().parent.parent != src:
        raise ImportError(f"regencode imported from {regencode.__file__}, not {src}")
    cli, dss = _cli, _dss
    return regencode


class Failed(Exception):
    """The job produced no output to check: nonzero exit or missing state."""


class Wrong(Exception):
    """The job produced an output and it is wrong."""


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    # check(raw) -> (checks completed, digest of the output); raises Failed/Wrong
    check: Callable[[object], tuple[int, str]]


def _digest(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def call_cli(argv: list[str]) -> tuple[int, str, str]:
    """One closed-loop call through `regencode.cli.main` with output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _exit_ok(raw) -> str:
    rc, out, err = raw
    if rc == 2:
        raise Wrong(f"verification failed: {err.strip()[-300:]}")
    if rc != 0:
        raise Failed(f"exit {rc}: {err.strip()[-300:]}")
    return out


# --- code layer: construct-and-verify ------------------------------------

# recipe -> checks the exhaustive verifier must report (k-subsets + repair pairs)
VERIFY_BLOWUP = {
    "blowup_full(base(4,3))": 10,
    "filenode_blowup(base(4,3))": 30,
    "copy_blowup(base(4,3),1)": 10,
    "blowup_full(blowup_simple(base(3,2)))": 10,
}
VERIFY_WIDE = {
    "base(16,12)": 9100,
    "concat(base(6,3),base(6,3),base(6,3))": 3264,
    "blowup_simple(base(10,8))": 165,
}


def check_construct(recipe: str, expected_checks: int, raw) -> tuple[int, str]:
    out = _exit_ok(raw)
    report = json.loads(out)
    for key in ("reconstruction_ok", "repair_ok", "alpha_uniform", "match"):
        if report[key] is not True:
            raise Wrong(f"{recipe}: {key} is {report[key]!r}")
    if recipe.startswith("blowup_full(") and report["symmetric"] is not True:
        raise Wrong(f"{recipe}: repair is not symmetric")
    total = report["checks_run"]["total"]
    if total != expected_checks:
        raise Wrong(f"{recipe}: {total} checks, expected {expected_checks}")
    return total, _digest(out)


class VerifyWorkload:
    """Full `construct` of each recipe; the seed sets each call's --seed."""

    def __init__(self, recipes: dict[str, int], seed: int):
        rnd = random.Random(seed)
        self.calls = [
            (recipe, checks, ["construct", recipe, "--seed", str(rnd.randrange(2**31))])
            for recipe, checks in recipes.items()
        ]

    def warm_up(self):
        call_cli(["construct", "base(3,2)"])

    def jobs(self) -> list[Job]:
        return [
            Job(
                recipe,
                lambda argv=argv: call_cli(argv),
                lambda raw, r=recipe, c=checks: check_construct(r, c, raw),
            )
            for recipe, checks, argv in self.calls
        ]


# --- formula layer: curve, asymptotic, compare ----------------------------

ASYMPTOTIC_ARGV = ["asymptotic", "--n", "2", "--k", "1", "--d", "1",
                   "--s", "1/4,1/2,1", "--M", "100,10000,1000000"]
# sha256 of outputs recorded at the commit that introduced the benchmark
CURVE_1000_SHA256 = "836d6b5a2127e87fde7c34eec90b32787cee6af4da572b1cb2e719313c82ea4f"
ASYMPTOTIC_SHA256 = "ec306d9d5d2147d1972a8d86347ee5a08abcbf9dd0d8ea0c7cbda392e66c1826"
COMPARES_PER_PASS = 100
COMPARE_NAMES = ["capacity", "timeshare", "p1", "p2", "p3", "p4"]


def capacity(k: int, d: int, alpha: Fraction, gamma: Fraction) -> Fraction:
    """Functional-repair capacity, term by term, independent of regencode."""
    return sum((min(alpha, Fraction(d - j, d) * gamma) for j in range(k)), Fraction(0))


def _curve_argv(n, k, d, samples):
    return ["curve", "--n", str(n), "--k", str(k), "--d", str(d),
            "--alpha", "1", "--samples", str(samples)]


def check_exact(expected: bytes, raw) -> tuple[int, str]:
    out = _exit_ok(raw)
    if out.encode() != expected:
        raise Wrong("output differs from the golden file")
    return out.count("\n") - 1, _digest(out)


def check_sha(expected: str, raw) -> tuple[int, str]:
    out = _exit_ok(raw)
    digest = _digest(out)
    if digest != expected:
        raise Wrong(f"output digest {digest} != {expected}")
    return out.count("\n") - 1, digest


def check_compare(k, d, alpha, gamma, raw) -> tuple[int, str]:
    """Exact invariants of one `compare` output.

    Capacity equals the term-by-term sum; timeshare and P1 are shown exactly
    when gamma lies in [alpha, gamma_MSR]; no construction exceeds capacity;
    every decimal agrees with its fraction to 11 significant digits.
    """
    out = _exit_ok(raw)
    lines = out.splitlines()
    if [line.split()[0] for line in lines] != COMPARE_NAMES:
        raise Wrong(f"unexpected lines {lines!r}")
    values = {}
    for line in lines:
        name, *cells = line.split()
        if cells == ["-"]:
            values[name] = None
            continue
        value = Fraction(cells[0])
        shown = Fraction(cells[1].strip("()"))
        if abs(shown - value) > abs(value) * Fraction(1, 10**11):
            raise Wrong(f"{name}: decimal {cells[1]} does not match {value}")
        values[name] = value
    cap = capacity(k, d, alpha, gamma)
    if values["capacity"] != cap:
        raise Wrong(f"capacity {values['capacity']} != {cap}")
    in_range = alpha <= gamma <= Fraction(d) * alpha / (d - k + 1)
    for name in ("timeshare", "p1"):
        if (values[name] is not None) != in_range:
            raise Wrong(f"{name} shown={values[name] is not None}, in range={in_range}")
    for name in COMPARE_NAMES[1:]:
        if values[name] is not None and not 0 < values[name] <= cap:
            raise Wrong(f"{name} = {values[name]} exceeds capacity {cap}")
    return len(lines), _digest(out)


def compare_points(seed: int, count: int):
    """Seeded (n, k, d, alpha, gamma) points, a few beyond gamma_MSR."""
    rnd = random.Random(seed)
    points = []
    for _ in range(count):
        n = rnd.randint(3, 120)
        k = rnd.randint(1, n - 1)
        d = rnd.randint(k, n - 1)
        alpha = Fraction(rnd.randint(1, 8), rnd.randint(1, 8))
        steps = rnd.randint(1, 12)
        g_msr = Fraction(d) * alpha / (d - k + 1)
        gamma = alpha + (g_msr - alpha) * Fraction(rnd.randint(0, steps + 1), steps)
        points.append((n, k, d, alpha, gamma))
    return points


class FormulaWorkload:
    """The formula layer only: three curves, one asymptotic table, a compare sweep."""

    def __init__(self, root: Path, seed: int):
        golden = root / "tests" / "golden"
        self.exact = [
            (_curve_argv(100, 99, 99, 99), (golden / "curve_100_99_99.csv").read_bytes()),
            (_curve_argv(100, 80, 85, 99), (golden / "curve_100_80_85.csv").read_bytes()),
        ]
        self.hashed = [
            (_curve_argv(1000, 900, 950, 2000), CURVE_1000_SHA256),
            (ASYMPTOTIC_ARGV, ASYMPTOTIC_SHA256),
        ]
        self.compares = [
            (["compare", "--n", str(n), "--k", str(k), "--d", str(d),
              "--alpha", str(alpha), "--gamma", str(gamma)], k, d, alpha, gamma)
            for n, k, d, alpha, gamma in compare_points(seed, COMPARES_PER_PASS)
        ]

    def warm_up(self):
        call_cli(_curve_argv(4, 3, 3, 5))
        call_cli(["compare", "--n", "4", "--k", "3", "--d", "3", "--gamma", "1"])

    def jobs(self) -> list[Job]:
        jobs = [
            Job(" ".join(argv[:8]), lambda a=argv: call_cli(a),
                lambda raw, e=expected: check_exact(e, raw))
            for argv, expected in self.exact
        ]
        jobs += [
            Job(" ".join(argv[:8]), lambda a=argv: call_cli(a),
                lambda raw, e=expected: check_sha(e, raw))
            for argv, expected in self.hashed
        ]
        jobs += [
            Job("compare", lambda a=argv: call_cli(a),
                lambda raw, p=(k, d, alpha, gamma): check_compare(*p, raw))
            for argv, k, d, alpha, gamma in self.compares
        ]
        return jobs


# --- nested code: build, encode, decode, repair ---------------------------

NESTED_RECIPE = "iterate(base(3,2),2)"
NESTED_PARAMS = (5, 4, 4)
NESTED_FILE_LEN = 5760
# Expected to exit 4 (budget refusal) before allocating anything; see README.
PROBE_ARGV = ["construct", "iterate(base(3,2),3)"]


class NestedWorkload:
    """One nested code end to end; each step is one job.

    The seed sets the message, the k-subset decoded from, and each node's
    helper set.
    """

    def __init__(self, seed: int):
        rnd = random.Random(seed)
        n, k, d = NESTED_PARAMS
        self.message = [rnd.randrange(256) for _ in range(NESTED_FILE_LEN)]
        self.subset = tuple(sorted(rnd.sample(range(n), k)))
        self.helpers = [
            tuple(sorted(rnd.sample([i for i in range(n) if i != f], d))) for f in range(n)
        ]

    def warm_up(self):
        call_cli(["construct", "blowup_full(base(3,2))"])

    def jobs(self) -> list[Job]:
        state = {}

        def build():
            state["code"] = cli.parse_recipe(NESTED_RECIPE)
            return state["code"]

        def check_build(code):
            p = code.params
            if (p.n, p.k, p.d) != NESTED_PARAMS or code.file_len != NESTED_FILE_LEN:
                raise Wrong(f"built {code!r}")
            return 0, _digest(repr(code))

        def encode():
            if "code" not in state:
                raise Failed("no code was built")
            state["contents"] = dss.encode(state["code"], self.message)
            return state["contents"]

        def check_encode(contents):
            code = state["code"]
            if [len(c) for c in contents] != [code.alpha_symbols] * code.params.n:
                raise Wrong("node contents have the wrong sizes")
            return 0, _digest(b"".join(bytes(c) for c in contents))

        def reconstruct():
            if "contents" not in state:
                raise Failed("nothing was encoded")
            return dss.reconstruct(state["code"], self.subset, state["contents"])

        def check_reconstruct(decoded):
            if decoded != self.message:
                raise Wrong(f"decoding from {self.subset} gave another message")
            return 1, _digest(bytes(decoded))

        def repair(f):
            if "contents" not in state:
                raise Failed("nothing was encoded")
            return dss.repair(state["code"], f, self.helpers[f], state["contents"])

        def check_repair(f, raw):
            rebuilt, bandwidth = raw
            if rebuilt != state["contents"][f]:
                raise Wrong(f"repair of node {f} from {self.helpers[f]} differs")
            if bandwidth.total != state["code"].gamma_symbols:
                raise Wrong(f"repair of node {f} moved {bandwidth.total} symbols")
            return 1, _digest(bytes(rebuilt) + str(bandwidth.per_helper).encode())

        jobs = [
            Job("build", build, check_build),
            Job("encode", encode, check_encode),
            Job("reconstruct", reconstruct, check_reconstruct),
        ]
        jobs += [
            Job(f"repair {f}", lambda f=f: repair(f), lambda raw, f=f: check_repair(f, raw))
            for f in range(NESTED_PARAMS[0])
        ]
        return jobs


WORKLOADS = {
    "verify_blowup": "blowup compositions: few checks, each on a stack of mostly zeros",
    "verify_wide": "wide codes: thousands of checks on small dense systems",
    "formula_curves": "formula layer only: curves, asymptotic table, compare sweep",
    "nested_decode": "iterate(base(3,2),2) built, encoded, decoded and repaired",
}


def make(name: str, root: Path, seed: int):
    if name == "verify_blowup":
        return VerifyWorkload(VERIFY_BLOWUP, seed)
    if name == "verify_wide":
        return VerifyWorkload(VERIFY_WIDE, seed)
    if name == "formula_curves":
        return FormulaWorkload(root, seed)
    if name == "nested_decode":
        return NestedWorkload(seed)
    raise KeyError(name)
