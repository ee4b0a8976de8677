"""Exact storage/bandwidth tradeoff formulas for regenerating codes.

Everything here is pure Fraction arithmetic: capacity of functional-repair
systems, the MSR/MBR corner points, the timesharing lower bound, the four
construction performance curves P1..P4, and the asymptotic convergence
machinery. No floats anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational as _RationalABC


class RangeError(ValueError):
    """Argument outside the domain an operation is defined on."""


def as_rational(value) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, _RationalABC)):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise RangeError(f"zero denominator: {value!r}") from None
    raise RangeError(f"not an exact rational: {value!r}")


@dataclass(frozen=True)
class SystemParams:
    """Storage system parameters (n, k, d) with 1 <= k <= d <= n-1."""

    n: int
    k: int
    d: int

    def __post_init__(self):
        if not (1 <= self.k <= self.d <= self.n - 1):
            raise RangeError(
                f"need 1 <= k <= d <= n-1, got (n,k,d)=({self.n},{self.k},{self.d})"
            )

    @property
    def epsilon(self) -> int:
        return self.n - self.k

    @property
    def delta(self) -> int:
        return self.n - self.d

    def shifted(self, m: int) -> "SystemParams":
        return SystemParams(self.n + m, self.k + m, self.d + m)


@dataclass(frozen=True)
class OperatingPoint:
    """A point (alpha, gamma, B) on the tradeoff plane, optionally with beta."""

    alpha: Fraction
    gamma: Fraction
    file_size: Fraction
    beta: Fraction | None = None

    def __post_init__(self):
        object.__setattr__(self, "alpha", as_rational(self.alpha))
        object.__setattr__(self, "gamma", as_rational(self.gamma))
        object.__setattr__(self, "file_size", as_rational(self.file_size))
        if self.beta is not None:
            object.__setattr__(self, "beta", as_rational(self.beta))
        if self.alpha <= 0 or self.gamma <= 0 or self.file_size < 0:
            raise RangeError("need alpha > 0, gamma > 0, file_size >= 0")

    def normalized(self) -> "OperatingPoint":
        """Scale so that alpha = 1."""
        a = self.alpha
        return OperatingPoint(
            Fraction(1),
            self.gamma / a,
            self.file_size / a,
            None if self.beta is None else self.beta / a,
        )


@dataclass(frozen=True)
class SplitSpec:
    """Decomposition of an (n,k,d) system into l side-by-side pieces."""

    l: int
    sizes: tuple[int, ...]
    k_parts: tuple[int, ...]
    d_parts: tuple[int, ...]


@dataclass(frozen=True)
class AsymptoticSetup:
    """Base offsets (n,k,d), a bandwidth mix s in (0,1], and a shift M."""

    base: SystemParams
    s: Fraction
    M: int

    def __post_init__(self):
        object.__setattr__(self, "s", as_rational(self.s))
        if not 0 < self.s <= 1:
            raise RangeError(f"s must lie in (0, 1], got {self.s}")
        if self.M < 0:
            raise RangeError("shift M must be >= 0")
        self.base.shifted(self.M)  # validates the shifted parameters

    @property
    def shifted(self) -> SystemParams:
        return self.base.shifted(self.M)


def functional_capacity(p: SystemParams, alpha, gamma) -> Fraction:
    """Capacity of a functional-repair system: sum_{j<k} min(alpha, (d-j)/d * gamma).

    Evaluated in closed form so that large k stays cheap; identical to the
    term-by-term sum.
    """
    alpha, gamma = as_rational(alpha), as_rational(gamma)
    if alpha <= 0 or gamma <= 0:
        raise RangeError("alpha and gamma must be positive")
    k, d = p.k, p.d
    # term j equals alpha iff j <= d*(gamma-alpha)/gamma
    threshold = Fraction(d) * (gamma - alpha) / gamma
    jstar = min(k - 1, math.floor(threshold)) if threshold >= 0 else -1
    total = (jstar + 1) * alpha if jstar >= 0 else Fraction(0)
    a, b = jstar + 1, k - 1
    if a <= b:
        total += Fraction((b - a + 1) * (2 * d - a - b), 2) * gamma / d
    return total


def msr_point(p: SystemParams, B) -> OperatingPoint:
    """Minimum-storage corner: alpha = B/k, gamma = d*B/(k(d-k+1))."""
    B = as_rational(B)
    if B <= 0:
        raise RangeError("file size must be positive")
    alpha = B / p.k
    gamma = Fraction(p.d) * B / (p.k * (p.d - p.k + 1))
    return OperatingPoint(alpha, gamma, B, beta=gamma / p.d)


def mbr_point(p: SystemParams, B) -> OperatingPoint:
    """Minimum-bandwidth corner: alpha = gamma = 2d*B/(k(2d-k+1))."""
    B = as_rational(B)
    if B <= 0:
        raise RangeError("file size must be positive")
    a = Fraction(2 * p.d) * B / (p.k * (2 * p.d - p.k + 1))
    return OperatingPoint(a, a, B, beta=a / p.d)


def gamma_msr(p: SystemParams, alpha) -> Fraction:
    return Fraction(p.d) * as_rational(alpha) / (p.d - p.k + 1)


def timeshare_bound(p: SystemParams, alpha, gamma) -> Fraction:
    """File size achieved by timesharing the MBR and MSR codes, at fixed alpha.

    Linear in gamma between B_MBR = k(2d-k+1)alpha/(2d) at gamma = alpha and
    B_MSR = k*alpha at gamma = d*alpha/(d-k+1).
    """
    alpha, gamma = as_rational(alpha), as_rational(gamma)
    g_msr = gamma_msr(p, alpha)
    if not alpha <= gamma <= g_msr:
        raise RangeError(f"gamma {gamma} outside [{alpha}, {g_msr}]")
    b_msr = p.k * alpha
    if g_msr == alpha:  # k = 1: the segment degenerates to one point
        return b_msr
    b_mbr = Fraction(p.k * (2 * p.d - p.k + 1), 2 * p.d) * alpha
    t = (gamma - alpha) / (g_msr - alpha)
    return b_mbr + t * (b_msr - b_mbr)


def perf_p1(p: SystemParams, alpha, i: int) -> OperatingPoint:
    """Main construction: at gamma = (d-k+i)alpha/(d-k+1) it stores n*i*alpha/(n-k+i)."""
    alpha = as_rational(alpha)
    if not 1 <= i <= p.k:
        raise RangeError(f"i must lie in [1, k], got {i}")
    gamma = Fraction(p.d - p.k + i) * alpha / (p.d - p.k + 1)
    B = Fraction(p.n * i) * alpha / (p.n - p.k + i)
    return OperatingPoint(alpha, gamma, B)


def perf_p1_interpolated(p: SystemParams, alpha, x) -> Fraction:
    """Piecewise-linear interpolation of the P1 file size between integer points."""
    alpha, x = as_rational(alpha), as_rational(x)
    if not 1 <= x <= p.k:
        raise RangeError(f"x must lie in [1, k], got {x}")
    lo = math.floor(x)
    if lo == x:
        return perf_p1(p, alpha, int(x)).file_size
    b_lo = perf_p1(p, alpha, lo).file_size
    b_hi = perf_p1(p, alpha, lo + 1).file_size
    return b_lo + (x - lo) * (b_hi - b_lo)


def p1_index_of_gamma(p: SystemParams, alpha, gamma) -> Fraction:
    """Interpolation index x of bandwidth gamma on the P1 curve.

    Inverts gamma = (d-k+x)*alpha/(d-k+1), the bandwidth of perf_p1 at i = x.
    """
    return as_rational(gamma) * (p.d - p.k + 1) / as_rational(alpha) - (p.d - p.k)


def lift_bound(p: SystemParams, j: int, base_B) -> Fraction:
    """Parameter-shift bound: a file of base_B at (n-j,k-j,d-j) lifts to n/(n-j)*base_B."""
    if not 0 <= j <= p.k - 1:
        raise RangeError(f"j must lie in [0, k-1], got {j}")
    return Fraction(p.n, p.n - j) * as_rational(base_B)


def max_split_count(p: SystemParams) -> int:
    return p.n // (p.n + 1 - p.k)


def split_params(p: SystemParams, l: int) -> SplitSpec:
    """Split n into l-1 pieces of size floor(n/l) plus the remainder piece."""
    if not 1 <= l <= max_split_count(p):
        raise RangeError(f"l must lie in [1, {max_split_count(p)}], got {l}")
    n1 = p.n // l
    sizes = tuple([n1] * (l - 1) + [p.n - (l - 1) * n1])
    k_parts = tuple(s - p.epsilon for s in sizes)
    d_parts = tuple(s - p.delta for s in sizes)
    return SplitSpec(l, sizes, k_parts, d_parts)


def perf_p2(p: SystemParams, alpha, l: int) -> OperatingPoint:
    """Side-by-side construction: gamma = d1*alpha/(d-k+1), B = ((l-1)k1 + kl*d1/dl)*alpha."""
    alpha = as_rational(alpha)
    spec = split_params(p, l)
    k1, d1 = spec.k_parts[0], spec.d_parts[0]
    kl, dl = spec.k_parts[-1], spec.d_parts[-1]
    gamma = Fraction(d1) * alpha / (p.d - p.k + 1)
    B = ((l - 1) * k1 + Fraction(kl * d1, dl)) * alpha
    return OperatingPoint(alpha, gamma, B)


def perf_p3(p: SystemParams, alpha, l: int) -> OperatingPoint:
    """Node-copy construction: B = (k-l)*alpha at the blended bandwidth gamma4."""
    alpha = as_rational(alpha)
    if not 1 <= l <= (p.k - 1) // 2:
        raise RangeError(f"l must lie in [1, {(p.k - 1) // 2}], got {l}")
    copy_frac = Fraction(2 * l * p.d, p.n * (p.n - 1))
    gamma = (copy_frac + (1 - copy_frac) * Fraction(p.d - l, p.d - p.k + 1)) * alpha
    return OperatingPoint(alpha, gamma, (p.k - l) * alpha)


def perf_p4(base: SystemParams, alpha) -> OperatingPoint:
    """File-node construction, normalized to node size alpha.

    The point lives at parameters (n+1, k, d): bandwidth
    (nd+d-k^2+k)alpha/((n+k)(d-k+1)) and file size (n+1)k*alpha/(n+k).
    """
    alpha = as_rational(alpha)
    n, k, d = base.n, base.k, base.d
    gamma = Fraction(n * d + d - k * k + k) * alpha / ((n + k) * (d - k + 1))
    B = Fraction((n + 1) * k) * alpha / (n + k)
    return OperatingPoint(alpha, gamma, B)


def points_at(p: SystemParams, alpha) -> dict[str, dict]:
    """The best P2, P3 and P4 point per bandwidth at node size alpha.

    Maps "p2", "p3" and "p4" to {gamma: (file_size, l)}. Where several split
    or copy counts l reach one gamma, the largest file size wins and ties keep
    the first l. P4 lives at (n-1, k, d), so it needs d <= n-2; its l is None.
    """
    alpha = as_rational(alpha)
    candidates = [("p2", l, perf_p2(p, alpha, l)) for l in range(1, max_split_count(p) + 1)]
    candidates += [("p3", l, perf_p3(p, alpha, l)) for l in range(1, (p.k - 1) // 2 + 1)]
    if p.d <= p.n - 2:
        candidates.append(("p4", None, perf_p4(SystemParams(p.n - 1, p.k, p.d), alpha)))
    best = {"p2": {}, "p3": {}, "p4": {}}
    for name, l, pt in candidates:
        held = best[name].get(pt.gamma)
        if held is None or pt.file_size > held[0]:
            best[name][pt.gamma] = (pt.file_size, l)
    return best


def closecase_fraction(n: int, i: int) -> Fraction:
    """P1/C for the (n, n-1, n-1) family at gamma = i*alpha, exact."""
    if n < 2:
        raise RangeError("need n >= 2")
    if not 1 <= i <= n - 1:
        raise RangeError(f"i must lie in [1, n-1], got {i}")
    T = math.floor(Fraction(n - 1) * (1 - Fraction(1, i)))
    numerator = Fraction(n * i, 1 + i)
    denominator = T + 1 + Fraction(i * (n - T - 1) * (n - T - 2), 2 * (n - 1))
    return numerator / denominator


def closecase_limit(i: int) -> Fraction:
    """Large-n limit of closecase_fraction: 2i^2/(2i^2+i-1)."""
    return Fraction(2 * i * i, 2 * i * i + i - 1)


def _round_half_up(x: Fraction) -> int:
    return math.floor(x + Fraction(1, 2))


def asymptotic_terms(setup: AsymptoticSetup) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """The four auxiliary terms h1..h4 controlling the large-shift behavior."""
    p = setup.base
    sp = setup.shifted
    s = setup.s
    n, k, d = p.n, p.k, p.d
    kM, dM = sp.k, sp.d
    t = Fraction(dM) * s * (kM - 1) / (d - k + 1 + s * (kM - 1))
    h1 = Fraction(2 * sp.n) * (1 + s * (kM - 1)) * dM * (d - k + 1)
    h2 = n - k + 1 + s * (kM - 1)
    h3 = 2 * (t + 1) * dM * (d - k + 1)
    h4 = (kM - t - 1) * (2 * d - k + setup.M - t) * (d - k + 1 + s * (kM - 1))
    return h1, h2, h3, h4


def asymptotic_fraction(
    setup: AsymptoticSetup,
) -> tuple[Fraction, Fraction, Fraction, Fraction, Fraction]:
    """Ratio of the shifted P1 performance to the functional capacity.

    The interpolation index i = 1 + s(k_M - 1) is rounded to the nearest
    integer in [1, k_M], so the ratio compares a realizable code point
    against the capacity at the same bandwidth.

    Returns (fraction, h1, h2, h3, h4).
    """
    sp = setup.shifted
    point = perf_p1(sp, Fraction(1), rounded_index(setup))
    cap = functional_capacity(sp, point.alpha, point.gamma)
    return (point.file_size / cap, *asymptotic_terms(setup))


def rounded_index(setup: AsymptoticSetup) -> int:
    """The integer interpolation index used by asymptotic_fraction."""
    sp = setup.shifted
    return min(max(_round_half_up(1 + setup.s * (sp.k - 1)), 1), sp.k)
