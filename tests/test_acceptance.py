"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Three idealized sub-checks are pinned as strict xfails because exact
arithmetic shows the idealized bound cannot hold; each xfail reason states
the precise identity. Everything else must pass at its stated tolerance.
"""

import json
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from regencode.cli import CURVE_HEADER, curve_csv, main
from regencode.constructions import (
    blowup_full,
    blowup_simple,
    concat,
    copy_blowup,
    filenode_blowup,
)
from regencode.dss import rs_base
from regencode.gf import GF2
from regencode.tradeoff import (
    AsymptoticSetup,
    SystemParams,
    asymptotic_fraction,
    asymptotic_terms,
    closecase_fraction,
    closecase_limit,
    functional_capacity,
    max_split_count,
    perf_p1,
    perf_p2,
    perf_p3,
    perf_p4,
    timeshare_bound,
)
from regencode.verifier import measure_and_compare

GOLDEN = Path(__file__).parent / "golden"
RESULTS: list[str] = []


def record(line: str):
    RESULTS.append(line)
    print(line)


def check_runtime(started: float, limit_s: float, what: str):
    elapsed = time.monotonic() - started
    assert elapsed < limit_s, f"{what} took {elapsed:.2f}s, limit {limit_s}s"
    return elapsed


def test_criterion_01_rate_region_corner_points():
    p = SystemParams(4, 3, 3)
    perf_p1(p, F(1, 2), 1)  # warm up
    t0 = time.monotonic()
    results = [
        perf_p1(p, F(1, 2), 1).file_size,
        perf_p1(p, F(3, 8), 2).file_size,
        perf_p1(p, F(1, 3), 3).file_size,
    ]
    elapsed = time.monotonic() - t0
    assert results == [1, 1, 1]
    assert elapsed < 0.001, f"{elapsed * 1000:.3f} ms"
    record("criterion 1 ((4,3,3) rate-region corner points, B = 1 exactly): PASS")


def test_criterion_02_simple_blowup_end_to_end(tmp_path):
    t0 = time.monotonic()
    out = tmp_path / "r.json"
    code = main(["construct", "blowup_simple(base(3,2))", "--out", str(out)])
    report = json.loads(out.read_text())
    assert code == 0
    assert report["measured"] == {"alpha": "3", "file_size": "8", "gamma": "6"}
    assert report["mode"] == {"kind": "exhaustive"}
    assert report["checks_run"]["reconstruction"] == 4
    assert report["checks_run"]["repair"] == 4
    assert report["reconstruction_ok"] and report["repair_ok"] and report["match"]
    check_runtime(t0, 1.0, "criterion 2")
    record("criterion 2 (simple blowup end-to-end, (3,6,8) exhaustive): PASS")


def test_criterion_03_main_construction_end_to_end(tmp_path):
    t0 = time.monotonic()
    out = tmp_path / "r.json"
    code = main(["construct", "blowup_full(base(3,2))", "--out", str(out)])
    report = json.loads(out.read_text())
    assert code == 0
    assert report["measured"] == {"alpha": "18", "file_size": "48", "gamma": "36"}
    assert report["symmetric"] is True and report["match"] is True
    # every helper moves exactly 12 symbols in every repair: equal helpers,
    # equal totals of 3 x 12
    full = measure_and_compare(blowup_full(rs_base(3, 2, GF2)))
    assert full.symmetric and full.gamma_constant and full.measured.gamma == 36
    assert F(48, 18) == perf_p1(SystemParams(4, 3, 3), 1, 2).file_size
    check_runtime(t0, 10.0, "criterion 3")
    record("criterion 3 (full blowup, (18,36,48), symmetric 12 each): PASS")


def test_criterion_04_concatenation(tmp_path):
    t0 = time.monotonic()
    dss = concat([rs_base(3, 2, GF2) for _ in range(3)])
    assert dss.params == SystemParams(9, 8, 8)
    assert (dss.alpha_symbols, dss.gamma_symbols, dss.file_len) == (1, 2, 6)
    report = measure_and_compare(dss)
    assert report.ok
    assert report.mode == {"kind": "exhaustive"}
    assert (report.measured.alpha, report.measured.gamma, report.measured.file_size) == (1, 2, 6)
    out = tmp_path / "r.json"
    assert main(["construct", "concat(base(3,2),base(3,2),base(3,2))", "--out", str(out)]) == 0
    check_runtime(t0, 5.0, "criterion 4")
    record("criterion 4 (three-part concatenation, (9,8,8) B=6 exhaustive): PASS")


def test_criterion_05_p1_equals_p2_when_l_divides_n():
    t0 = time.monotonic()
    checked = 0
    for n in range(4, 61):
        for k in range(1, n):
            for d in range(k, n):
                p = SystemParams(n, k, d)
                for l in range(1, max_split_count(p) + 1):
                    if n % l:
                        continue
                    i = k - n + n // l
                    assert perf_p2(p, F(1), l) == perf_p1(p, F(1), i), (n, k, d, l)
                    checked += 1
    assert checked > 40000
    check_runtime(t0, 10.0, "criterion 5")
    record(f"criterion 5 (P1 = P2 when l | n, {checked} cases exact): PASS")


def test_criterion_06_p4_vs_timesharing_attainable():
    t0 = time.monotonic()
    equality_with_k_lt_d = set()
    for n in range(2, 41):
        for k in range(1, n):
            for d in range(k, n):
                pt = perf_p4(SystemParams(n, k, d), F(1))
                ts = timeshare_bound(SystemParams(n + 1, k, d), F(1), pt.gamma)
                assert pt.file_size <= ts, (n, k, d)
                if k == d:
                    assert pt.file_size == ts, (n, k, d)
                elif pt.file_size == ts:
                    equality_with_k_lt_d.add((k, d))
    # the only equality cases with k < d are the degenerate k = 1 family,
    # where the point collapses onto the MBR corner of the timeshare line
    assert equality_with_k_lt_d and all(k == 1 for k, _ in equality_with_k_lt_d)
    check_runtime(t0, 5.0, "criterion 6")
    record(
        "criterion 6 (P4 <= timeshare, equality at k=d; strict for 2<=k<d): PASS"
    )
    record(
        "criterion 6 strict form ('equality iff k=d', zero exceptions): "
        "XFAIL - k=1 with d>1 also degenerates to equality"
    )


@pytest.mark.xfail(
    strict=True,
    reason="k=1 bases collapse the P4 point onto the MBR corner where the "
    "timeshare bound equals it, so 'equality iff k=d' has exceptions",
)
def test_criterion_06_equality_iff_kd_strict():
    for n in range(2, 41):
        for k in range(1, n):
            for d in range(k, n):
                pt = perf_p4(SystemParams(n, k, d), F(1))
                ts = timeshare_bound(SystemParams(n + 1, k, d), F(1), pt.gamma)
                assert pt.file_size <= ts
                assert (pt.file_size == ts) == (k == d), (n, k, d)


def test_criterion_07_closecase_large_n():
    t0 = time.monotonic()
    n = 10**4
    for i in range(2, 11):
        assert abs(closecase_fraction(n, i) - closecase_limit(i)) <= F(1, 100), i
    floor_bound = F(8, 9) - F(1, 100)
    assert all(closecase_fraction(n, i) >= floor_bound for i in range(1, n))
    check_runtime(t0, 5.0, "criterion 7")
    record("criterion 7 (close-case fraction at n=10^4, approx + 8/9 floor): PASS")


BASES_8 = [SystemParams(2, 1, 1), SystemParams(3, 1, 1), SystemParams(4, 2, 3)]
S_VALUES_8 = [F(1, 4), F(1, 2), F(1)]
M_VALUES_8 = [10**2, 10**3, 10**4, 10**5, 10**6]


def test_criterion_08_asymptotic_convergence():
    t0 = time.monotonic()
    for base in BASES_8:
        for s in S_VALUES_8:
            gaps = []
            for M in M_VALUES_8:
                frac = asymptotic_fraction(AsymptoticSetup(base, s, M))[0]
                assert frac <= 1
                gaps.append(1 - frac)
            assert gaps[-1] <= F(1, 1000), (base, s)
            for prev, nxt in zip(gaps, gaps[1:]):
                # strictly closer at every step until the gap is exactly 0
                assert nxt < prev or prev == nxt == 0, (base, s, gaps)
            setup = AsymptoticSetup(base, s, 10**6)
            _, h2, h3, _ = asymptotic_terms(setup)
            # exact h2 identity: |h2/M - s| = (n-k+1+s(k-1))/M
            assert abs(h2 / 10**6 - s) == F(
                base.n - base.k + 1 + s * (base.k - 1), 10**6
            )
            assert abs(h3 / 10**12 - 2 * (base.d - base.k + 1)) <= F(1, 1000)
    check_runtime(t0, 30.0, "criterion 8")
    record(
        "criterion 8 (convergence to 1 at M=10^6, monotone, h3 bound, "
        "h2 exact identity): PASS"
    )
    record(
        "criterion 8 strict form (h2 bound (n-k+1)/M for base (4,2,3)): "
        "XFAIL - exact deviation is (n-k+1+s(k-1))/M, larger whenever k > 1"
    )


@pytest.mark.xfail(
    strict=True,
    reason="|h2/M - s| equals (n-k+1+s(k-1))/M exactly, which exceeds the "
    "stated (n-k+1)/M bound whenever k > 1, e.g. base (4,2,3)",
)
def test_criterion_08_h2_bound_strict():
    for base in BASES_8:
        for s in S_VALUES_8:
            _, h2, _, _ = asymptotic_terms(AsymptoticSetup(base, s, 10**6))
            assert abs(h2 / 10**6 - s) <= F(base.n - base.k + 1, 10**6), (base, s)


def test_criterion_09_copy_and_filenode_variants():
    t0 = time.monotonic()
    copy = copy_blowup(rs_base(3, 2, GF2), 1)
    report = measure_and_compare(copy)
    assert report.ok and report.mode == {"kind": "exhaustive"}
    assert (report.measured.alpha, report.measured.gamma, report.measured.file_size) == (24, 36, 48)
    norm = report.measured.normalized()
    pt3 = perf_p3(SystemParams(4, 3, 3), F(1), 1)
    assert (norm.gamma, norm.file_size) == (pt3.gamma, pt3.file_size)

    filenode = filenode_blowup(rs_base(3, 2, GF2))
    report = measure_and_compare(filenode)
    assert report.ok and report.mode == {"kind": "exhaustive"}
    assert (report.measured.alpha, report.measured.gamma, report.measured.file_size) == (30, 36, 48)
    norm = report.measured.normalized()
    pt4 = perf_p4(SystemParams(3, 2, 2), F(1))
    assert (norm.gamma, norm.file_size) == (pt4.gamma, pt4.file_size)
    check_runtime(t0, 30.0, "criterion 9")
    record("criterion 9 (copy (24,36,48) = P3; file-node (30,36,48) = P4): PASS")


CURVES_10 = [
    (SystemParams(100, 99, 99), "curve_100_99_99.csv"),
    (SystemParams(100, 80, 85), "curve_100_80_85.csv"),
]


def _curve_columns(text):
    header = text.strip().split("\n")[0].split(",")
    assert ",".join(header) == CURVE_HEADER
    rows = [line.split(",") for line in text.strip().split("\n")[1:]]
    return header, rows


def test_criterion_10_curve_regression():
    t0 = time.monotonic()
    for params, name in CURVES_10:
        text = curve_csv(params, F(1), 99)
        assert text == (GOLDEN / name).read_text(), f"{name} drifted"
        header, rows = _curve_columns(text)
        cap_i, p1_i, flag_i, ts_i = (
            header.index("capacity"),
            header.index("p1"),
            header.index("p1_realizable"),
            header.index("timeshare"),
        )
        for row in rows:
            if row[flag_i] != "1":
                continue
            assert F(row[cap_i]) >= F(row[p1_i]), row
    # the stated p1 >= timeshare ordering does hold for (100,99,99)
    header, rows = _curve_columns(curve_csv(SystemParams(100, 99, 99), F(1), 99))
    p1_i, flag_i, ts_i = (
        header.index("p1"),
        header.index("p1_realizable"),
        header.index("timeshare"),
    )
    for row in rows:
        if row[flag_i] == "1":
            assert F(row[p1_i]) >= F(row[ts_i]), row
    check_runtime(t0, 5.0, "criterion 10")
    record(
        "criterion 10 (golden CSVs byte-identical; capacity >= p1; "
        "p1 >= timeshare on (100,99,99)): PASS"
    )
    record(
        "criterion 10 strict form (p1 >= timeshare also on (100,80,85)): "
        "XFAIL - P1 dips below timesharing there for i <= 22"
    )


@pytest.mark.xfail(
    strict=True,
    reason="P1 lies below the timesharing bound for (100,80,85) at small i; "
    "the construction weakens when n, k, d are far apart",
)
def test_criterion_10_ordering_strict():
    for params, _ in CURVES_10:
        header, rows = _curve_columns(curve_csv(params, F(1), 99))
        cap_i, p1_i, flag_i, ts_i = (
            header.index("capacity"),
            header.index("p1"),
            header.index("p1_realizable"),
            header.index("timeshare"),
        )
        for row in rows:
            if row[flag_i] != "1":
                continue
            assert F(row[cap_i]) >= F(row[p1_i]) >= F(row[ts_i]), (params, row)


# (n0, k0, j): blowup_simple applied j times to base(n0, k0), a code at
# (n, k, d) = (n0 + j, k0 + j, k0 + j) whose index is i = k0; n - k runs
# from 1 to 3 and i from 2 to 10
TOWERS_11 = [
    (3, 2, 2), (3, 2, 4), (6, 5, 3),
    (4, 3, 2), (5, 4, 2), (7, 6, 2), (9, 8, 2), (11, 10, 2),
    (5, 3, 1), (5, 3, 2), (5, 3, 3), (7, 5, 2), (6, 3, 2), (4, 2, 3),
]


def test_criterion_11_blowup_towers_meet_the_paper_headline():
    # towers of the paper's simple variation are exact-repair codes on the
    # P1 curve: each verifies exhaustively, and its file size over the
    # functional-repair capacity at its measured bandwidth is the shifted P1
    # fraction (the close-case fraction when n - k = 1). Repair is
    # symmetric exactly when n - k = 1
    t0 = time.monotonic()
    for n0, k0, j in TOWERS_11:
        code = rs_base(n0, k0)
        for _ in range(j):
            code = blowup_simple(code)
        report = measure_and_compare(code)
        assert report.mode == {"kind": "exhaustive"} and report.ok, code.label
        p, i = code.params, k0
        alpha, gamma, B = report.measured.alpha, report.measured.gamma, report.measured.file_size
        assert (p.n, p.k, p.d) == (n0 + j, k0 + j, k0 + j)
        point = perf_p1(p, alpha, i)
        assert (B, gamma) == (point.file_size, point.gamma), code.label
        fraction = B / functional_capacity(p, alpha, gamma)
        setup = AsymptoticSetup(SystemParams(p.n - p.k + 1, 1, 1), F(i - 1, p.k - 1), p.k - 1)
        assert fraction == asymptotic_fraction(setup)[0], code.label
        if p.n - p.k == 1:
            assert fraction == closecase_fraction(p.n, i), code.label
        assert report.symmetric == (p.n - p.k == 1), code.label
        if (n0, k0, j) == (5, 3, 3):  # the paper's "almost the same performance"
            assert (report.symmetry_max_deviation, gamma) == (60, 630)
    check_runtime(t0, 10.0, "criterion 11")
    record("criterion 11 (blowup_simple towers: B/C = shifted P1 fraction, exact): PASS")


def test_print_summary():
    print()
    print("=" * 72)
    print("ACCEPTANCE SUMMARY")
    for line in RESULTS:
        print("  " + line)
    print("=" * 72)
    assert len(RESULTS) >= 10
