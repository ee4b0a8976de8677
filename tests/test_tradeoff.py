import random
from fractions import Fraction as F

import pytest

from regencode.tradeoff import (
    AsymptoticSetup,
    OperatingPoint,
    RangeError,
    SystemParams,
    as_rational,
    asymptotic_fraction,
    asymptotic_terms,
    closecase_fraction,
    closecase_limit,
    functional_capacity,
    gamma_msr,
    lift_bound,
    max_split_count,
    mbr_point,
    msr_point,
    perf_p1,
    perf_p1_interpolated,
    perf_p2,
    perf_p3,
    perf_p4,
    points_at,
    rounded_index,
    split_params,
    timeshare_bound,
)


def capacity_term_by_term(p, alpha, gamma):
    return sum(min(alpha, F(p.d - j, p.d) * gamma) for j in range(p.k))


def random_params(rnd, n_max=14):
    n = rnd.randint(2, n_max)
    k = rnd.randint(1, n - 1)
    d = rnd.randint(k, n - 1)
    return SystemParams(n, k, d)


def random_fraction(rnd, lo=1, hi=24):
    return F(rnd.randint(lo, hi), rnd.randint(1, 12))


def test_system_params_validation():
    SystemParams(4, 3, 3)
    assert SystemParams(9, 8, 8).epsilon == 1
    assert SystemParams(9, 8, 8).delta == 1
    with pytest.raises(RangeError):
        SystemParams(4, 3, 2)  # d < k
    with pytest.raises(RangeError):
        SystemParams(4, 4, 4)  # d > n-1
    with pytest.raises(RangeError):
        SystemParams(3, 0, 2)


def test_operating_point_validation():
    pt = OperatingPoint(F(1, 3), 1, 1)
    assert pt.normalized().gamma == 3
    with pytest.raises(RangeError):
        OperatingPoint(0, 1, 1)


def test_capacity_closed_form_matches_sum():
    rnd = random.Random(0)
    for _ in range(400):
        p = random_params(rnd)
        alpha, gamma = random_fraction(rnd), random_fraction(rnd)
        assert functional_capacity(p, alpha, gamma) == capacity_term_by_term(
            p, alpha, gamma
        )


def test_capacity_examples():
    p = SystemParams(4, 3, 3)
    assert functional_capacity(p, 1, 2) == F(8, 3)
    assert functional_capacity(p, F(1, 3), 1) == 1
    # at the minimum-storage bandwidth every summand saturates at alpha
    rnd = random.Random(1)
    for _ in range(50):
        p = random_params(rnd)
        alpha = random_fraction(rnd)
        assert functional_capacity(p, alpha, gamma_msr(p, alpha)) == p.k * alpha


def test_msr_point_examples():
    assert msr_point(SystemParams(4, 3, 3), 1) == OperatingPoint(
        F(1, 3), 1, 1, beta=F(1, 3)
    )
    assert msr_point(SystemParams(2, 1, 1), 1) == OperatingPoint(1, 1, 1, beta=1)
    assert msr_point(SystemParams(3, 2, 2), 2) == OperatingPoint(1, 2, 2, beta=1)


def test_mbr_point_examples():
    assert mbr_point(SystemParams(4, 3, 3), 1).alpha == F(1, 2)
    assert mbr_point(SystemParams(4, 3, 3), 1).gamma == F(1, 2)
    assert mbr_point(SystemParams(2, 1, 1), 1) == OperatingPoint(1, 1, 1, beta=1)
    assert mbr_point(SystemParams(4, 3, 3), 2).alpha == 1


def test_timeshare_examples():
    p = SystemParams(3, 2, 2)
    assert timeshare_bound(p, 1, 2) == 2  # MSR endpoint
    assert timeshare_bound(p, 1, 1) == F(3, 2)  # MBR endpoint
    assert timeshare_bound(p, 1, F(6, 5)) == F(8, 5)
    with pytest.raises(RangeError):
        timeshare_bound(p, 1, 3)
    with pytest.raises(RangeError):
        timeshare_bound(p, 1, F(1, 2))
    # k = 1 degenerates to the single point B = alpha
    assert timeshare_bound(SystemParams(3, 1, 1), 5, 5) == 5


def test_perf_p1_corner_points():
    p = SystemParams(4, 3, 3)
    assert perf_p1(p, F(1, 2), 1).file_size == 1
    assert perf_p1(p, F(3, 8), 2) == OperatingPoint(F(3, 8), F(3, 4), 1)
    assert perf_p1(p, F(1, 3), 3) == OperatingPoint(F(1, 3), 1, 1)
    with pytest.raises(RangeError):
        perf_p1(p, 1, 0)
    with pytest.raises(RangeError):
        perf_p1(p, 1, 4)


def test_perf_p1_msr_endpoint():
    rnd = random.Random(2)
    for _ in range(50):
        p = random_params(rnd)
        alpha = random_fraction(rnd)
        pt = perf_p1(p, alpha, p.k)
        assert pt.gamma == gamma_msr(p, alpha)
        assert pt.file_size == p.k * alpha


def test_perf_p1_endpoints_close_family():
    # i = 1 always sits at gamma = alpha; for n = k+1 = d+1 both endpoints
    # reach the minimum-bandwidth and minimum-storage file sizes exactly
    rnd = random.Random(12)
    for _ in range(50):
        p = random_params(rnd)
        alpha = random_fraction(rnd)
        assert perf_p1(p, alpha, 1).gamma == alpha
    for n in range(3, 12):
        p = SystemParams(n, n - 1, n - 1)
        lo = perf_p1(p, 1, 1)
        assert lo.file_size == F(n, 2)
        assert lo.file_size == timeshare_bound(p, 1, 1)  # MBR corner file size
        hi = perf_p1(p, 1, p.k)
        assert hi.file_size == functional_capacity(p, 1, hi.gamma)


def test_perf_p1_interpolated():
    p = SystemParams(4, 3, 3)
    assert perf_p1_interpolated(p, 1, 2) == F(8, 3)
    assert perf_p1_interpolated(p, 1, F(5, 2)) == F(17, 6)
    assert perf_p1_interpolated(p, 1, 1) == 2
    with pytest.raises(RangeError):
        perf_p1_interpolated(p, 1, F(7, 2))


def test_perf_p1_below_capacity():
    rnd = random.Random(3)
    for _ in range(300):
        p = random_params(rnd)
        alpha = random_fraction(rnd)
        i = rnd.randint(1, p.k)
        pt = perf_p1(p, alpha, i)
        assert pt.file_size <= functional_capacity(p, pt.alpha, pt.gamma)


def test_lift_bound():
    assert lift_bound(SystemParams(4, 3, 3), 1, F(8, 3)) == F(32, 9)
    assert lift_bound(SystemParams(5, 4, 4), 0, F(7, 2)) == F(7, 2)
    # three (3,2,2) systems of size 2 concatenate to a (9,8,8) of size 6
    assert lift_bound(SystemParams(9, 8, 8), 6, 2) == 6
    with pytest.raises(RangeError):
        lift_bound(SystemParams(4, 3, 3), 3, 1)


def test_split_params_examples():
    spec = split_params(SystemParams(9, 8, 8), 3)
    assert spec.sizes == (3, 3, 3)
    assert spec.k_parts == (2, 2, 2)
    assert spec.d_parts == (2, 2, 2)
    spec = split_params(SystemParams(7, 5, 6), 1)
    assert spec.sizes == (7,)
    assert spec.k_parts == (5,)
    spec = split_params(SystemParams(100, 96, 98), 2)
    assert spec.sizes == (50, 50)
    assert spec.k_parts == (46, 46)
    assert spec.d_parts == (48, 48)
    spec = split_params(SystemParams(9, 8, 8), 4)  # l = 4 is the maximum here
    assert spec.sizes == (2, 2, 2, 3)
    with pytest.raises(RangeError):
        split_params(SystemParams(9, 8, 8), 5)


def test_every_admitted_split_yields_valid_pieces():
    # split_params checks no piece: l <= n // (n+1-k) leaves every piece at
    # least n+1-k nodes, so 1 <= k_j <= d_j <= s-1 follows from the params
    splits = 0
    for n in range(2, 41):
        for k in range(1, n):
            for d in range(k, n):
                p = SystemParams(n, k, d)
                for l in range(1, max_split_count(p) + 1):
                    spec = split_params(p, l)
                    assert sum(spec.sizes) == n
                    for piece in zip(spec.sizes, spec.k_parts, spec.d_parts):
                        SystemParams(*piece)  # RangeError unless a valid system
                    splits += 1
    assert splits == 15634


@pytest.mark.parametrize(
    "call",
    [
        lambda: functional_capacity(SystemParams(4, 3, 3), 0, 1),
        lambda: functional_capacity(SystemParams(4, 3, 3), 1, F(-1, 2)),
        lambda: msr_point(SystemParams(4, 3, 3), 0),
        lambda: mbr_point(SystemParams(4, 3, 3), -1),
    ],
    ids=["capacity_alpha", "capacity_gamma", "msr", "mbr"],
)
def test_non_positive_sizes_raise_range_error(call):
    with pytest.raises(RangeError):
        call()


def test_perf_p2_examples():
    pt = perf_p2(SystemParams(9, 8, 8), 1, 3)
    assert (pt.gamma, pt.file_size) == (2, 6)
    rnd = random.Random(4)
    for _ in range(50):
        p = random_params(rnd)
        alpha = random_fraction(rnd)
        pt = perf_p2(p, alpha, 1)
        assert pt.gamma == gamma_msr(p, alpha)
        assert pt.file_size == p.k * alpha
    pt = perf_p2(SystemParams(8, 7, 7), 1, 2)
    assert pt == perf_p1(SystemParams(8, 7, 7), 1, 3)


def test_perf_p2_equals_p1_when_l_divides_n():
    rnd = random.Random(5)
    for _ in range(300):
        p = random_params(rnd, n_max=30)
        alpha = random_fraction(rnd)
        for l in range(1, max_split_count(p) + 1):
            if p.n % l:
                continue
            i = p.k - p.n + p.n // l
            assert perf_p2(p, alpha, l) == perf_p1(p, alpha, i)


def test_perf_p3_examples():
    pt = perf_p3(SystemParams(4, 3, 3), 1, 1)
    assert (pt.gamma, pt.file_size) == (F(3, 2), 2)
    assert perf_p3(SystemParams(100, 99, 99), 1, 1).file_size == 98
    with pytest.raises(RangeError):
        perf_p3(SystemParams(6, 5, 5), 1, 3)  # l > (k-1)//2


def test_perf_p4_examples():
    pt = perf_p4(SystemParams(3, 2, 2), 1)
    assert (pt.gamma, pt.file_size) == (F(6, 5), F(8, 5))
    # equals the timesharing line when k = d, strictly below when k < d
    assert timeshare_bound(SystemParams(4, 2, 2), 1, F(6, 5)) == F(8, 5)
    rnd = random.Random(6)
    for _ in range(200):
        p = random_params(rnd, n_max=20)
        pt = perf_p4(p, 1)
        ts = timeshare_bound(SystemParams(p.n + 1, p.k, p.d), 1, pt.gamma)
        if p.k == p.d:
            assert pt.file_size == ts
        elif p.k >= 2:
            assert pt.file_size < ts
        else:
            assert pt.file_size <= ts  # k=1 collapses onto the MBR corner


def test_points_at_keeps_the_best_l_per_gamma():
    best = points_at(SystemParams(8, 7, 7), 1)
    # splits l = 3 and l = 4 both repair with gamma = 1; l = 4 stores more
    assert perf_p2(SystemParams(8, 7, 7), 1, 3).gamma == 1
    assert best["p2"][1] == (4, 4)
    assert best["p3"][3] == (5, 2)
    assert best["p4"] == {}  # d = n - 1
    pt = perf_p4(SystemParams(4, 2, 3), 1)
    assert points_at(SystemParams(5, 2, 3), 1)["p4"] == {pt.gamma: (pt.file_size, None)}


def test_homogeneous_in_alpha():
    rnd = random.Random(8)
    for _ in range(100):
        p = random_params(rnd)
        alpha = random_fraction(rnd)
        c = random_fraction(rnd)
        i = rnd.randint(1, p.k)
        a, b = perf_p1(p, alpha, i), perf_p1(p, c * alpha, i)
        assert (b.gamma, b.file_size) == (c * a.gamma, c * a.file_size)
        for l in range(1, max_split_count(p) + 1):
            a, b = perf_p2(p, alpha, l), perf_p2(p, c * alpha, l)
            assert (b.gamma, b.file_size) == (c * a.gamma, c * a.file_size)
        for l in range(1, (p.k - 1) // 2 + 1):
            a, b = perf_p3(p, alpha, l), perf_p3(p, c * alpha, l)
            assert (b.gamma, b.file_size) == (c * a.gamma, c * a.file_size)
        a, b = perf_p4(p, alpha), perf_p4(p, c * alpha)
        assert (b.gamma, b.file_size) == (c * a.gamma, c * a.file_size)


def test_closecase_examples():
    assert closecase_fraction(4, 2) == 1
    assert closecase_fraction(4, 3) == 1
    assert closecase_fraction(4, 1) == 1
    assert abs(closecase_fraction(10**4, 2) - closecase_limit(2)) <= F(1, 100)
    assert closecase_limit(2) == F(8, 9)
    with pytest.raises(RangeError):
        closecase_fraction(4, 4)
    with pytest.raises(RangeError):
        closecase_fraction(1, 1)


def test_closecase_at_most_one():
    for n in (4, 10, 57):
        for i in range(1, n):
            assert closecase_fraction(n, i) <= 1


def test_asymptotic_setup_validation():
    base = SystemParams(2, 1, 1)
    AsymptoticSetup(base, F(1, 2), 100)
    with pytest.raises(RangeError):
        AsymptoticSetup(base, F(3, 2), 100)
    with pytest.raises(RangeError):
        AsymptoticSetup(base, F(1, 2), -1)


def test_asymptotic_fraction_recompute_bitwise_equal():
    # the reported fraction must equal an independent recomputation from
    # the interpolated curve and the capacity formula
    for base in (SystemParams(2, 1, 1), SystemParams(4, 2, 3), SystemParams(5, 2, 4)):
        for s in (F(1, 4), F(1, 2), F(1)):
            for M in (10, 100, 1000):
                setup = AsymptoticSetup(base, s, M)
                frac = asymptotic_fraction(setup)[0]
                sp = setup.shifted
                i = rounded_index(setup)
                gamma = F(sp.d - sp.k + i, sp.d - sp.k + 1)
                recomputed = perf_p1_interpolated(sp, 1, i) / functional_capacity(
                    sp, 1, gamma
                )
                assert frac == recomputed
                assert frac <= 1


def test_asymptotic_h2_identity():
    # exact identity: |h2/M - s| = (n-k+1+s(k-1))/M
    for base in (SystemParams(2, 1, 1), SystemParams(3, 1, 1), SystemParams(4, 2, 3)):
        for s in (F(1, 4), F(1, 2), F(1)):
            for M in (100, 10**6):
                setup = AsymptoticSetup(base, s, M)
                _, h2, _, _ = asymptotic_terms(setup)
                dev = abs(h2 / M - s)
                assert dev == F(base.n - base.k + 1 + s * (base.k - 1), M)


def test_asymptotic_h4_vanishes():
    for base in (SystemParams(2, 1, 1), SystemParams(4, 2, 3)):
        for s in (F(1, 2), F(1)):
            setup = AsymptoticSetup(base, s, 10**6)
            _, _, _, h4 = asymptotic_terms(setup)
            assert abs(h4 / 10**12) < F(1, 10**4)


def test_asymptotic_msr_endpoint_is_exact():
    # s = 1 sits at the minimum-storage endpoint where P1 meets the capacity
    for base in (SystemParams(2, 1, 1), SystemParams(3, 1, 1), SystemParams(4, 2, 3)):
        for M in (100, 1000):
            frac = asymptotic_fraction(AsymptoticSetup(base, F(1), M))[0]
            assert frac == 1


def test_as_rational_parsing():
    assert as_rational("3/8") == F(3, 8)
    assert as_rational(2) == 2
    with pytest.raises(RangeError):
        as_rational(0.5)
