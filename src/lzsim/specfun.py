"""Numerically stable special functions used throughout the package.

Integer-order Bessel functions of the first kind, associated Laguerre
polynomials with overflow-safe scaling, log-space factorial ratios, and the
overlap between a Fock state and a displaced Fock state.  All routines are
pure and keep relative accuracy far below the 1e-10 level required by the
downstream frequency comparisons, except in the immediate neighbourhood of a
zero of the function where accuracy is absolute.  The public routines are
scalar, apart from `displaced_fock_overlap_grid`, which reads every requested
photon number off one Laguerre recurrence and returns, bit for bit, what the
scalar overlap returns cell by cell.

Closed-form large-argument approximations of J_k (stationary-phase form and
two adiabatic-impulse variants) live here as well; they are the analytic
side of the strong-driving frequency analysis.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .errors import require_int, require_real

MAX_BESSEL_ORDER = 10_000
MAX_OVERLAP_INDEX = 1_000_000

_RESCALE = 1e250
_LOG_RESCALE = math.log(_RESCALE)
_QUARTER_PI = 0.25 * math.pi


def bessel_j(k: int, x: float) -> float:
    """Bessel function of the first kind J_k(x), integer k >= 0, real x >= 0.

    Uses the power series where its alternating terms cannot cancel
    catastrophically (x <= 8, or first term ratio (x/2)^2/(k+1) <= 1/2) and
    Miller backward recurrence, normalised through
    J_0(x) + 2*sum_m J_{2m}(x) = 1, everywhere else.  Relative error is well
    below 1e-10 whenever |J_k(x)| > 1e-300; results smaller than that may
    flush to zero.
    """
    k = require_int("k", k, 0, MAX_BESSEL_ORDER)
    x = require_real("x", x, 0.0)
    if x == 0.0:
        return 1.0 if k == 0 else 0.0
    if x <= 8.0 or x * x <= 2.0 * (k + 1):
        return _bessel_series(k, x)
    return _bessel_miller(k, x)


def _bessel_series(k: int, x: float) -> float:
    # Sum in units of the leading term; the leading term itself is applied in
    # log space so large k cannot underflow intermediate terms.
    half = 0.5 * x
    if half == 0.0:  # subnormal x: J_0 = 1 and J_k underflows, to full precision
        return 1.0 if k == 0 else 0.0
    log_lead = k * math.log(half) - math.lgamma(k + 1)
    q = half * half
    term = 1.0
    total = 1.0
    m = 0
    while m < 1000:
        m += 1
        term *= -q / (m * (m + k))
        total += term
        if abs(term) <= 1e-17 * abs(total):
            break
    if total == 0.0:
        return 0.0
    value = log_lead + math.log(abs(total))
    if value < -745.0:
        return math.copysign(0.0, total)
    return math.copysign(math.exp(value), total)


def _bessel_miller(k: int, x: float) -> float:
    # Start far enough above the turning point that the admixed dominant
    # solution decays below 1e-18 before the orders of interest (Airy-regime
    # decay rate ~ exp(-0.94 d^{3/2}/sqrt(x)) for a start offset d).
    top = max(k, int(math.ceil(x)))
    offset = 20 + int(math.ceil(14.0 * max(x, 1.0) ** (1.0 / 3.0)))
    m_start = top + offset
    if m_start % 2:
        m_start += 1

    two_over_x = 2.0 / x
    above = 0.0  # trial J_{m+1}
    cur = 1.0    # trial J_m
    sum_even = cur if m_start >= 2 else 0.0  # m_start is even by construction
    target = 0.0  # trial J_k, rescaled with the rest once recorded

    m = m_start
    while m >= 1:
        nxt = m * two_over_x * cur - above
        above = cur
        cur = nxt
        m -= 1
        if m == k:
            target = cur
        if m >= 2 and (m & 1) == 0:
            sum_even += cur
        if abs(cur) > _RESCALE:
            cur /= _RESCALE
            above /= _RESCALE
            sum_even /= _RESCALE
            target /= _RESCALE

    return target / (2.0 * sum_even + cur)  # cur is now the trial J_0


def bessel_j_asymptotic(k: int, x: float) -> float:
    """Stationary-phase large-argument form sqrt(2/(pi x)) cos(x - (2k+1)pi/4).

    Accurate for x >> k^2; degrades badly once x approaches k.  Rejects x <= 0
    where the prefactor diverges.
    """
    k = require_int("k", k, 0, MAX_BESSEL_ORDER)
    x = require_real("x", x, 0.0, above=True)
    return math.sqrt(2.0 / (math.pi * x)) * math.cos(x - (2 * k + 1) * _QUARTER_PI)


def bessel_j_adiabatic_impulse(k: int, x: float) -> float:
    """Adiabatic-impulse approximation of J_k(x), valid for x > k.

    sqrt(2/(pi s)) cos(s - k arccos(k/x) - pi/4) with s = sqrt(x^2 - k^2);
    keeps the turning-point phase that the plain stationary-phase form drops,
    so it stays accurate almost down to x = k.
    """
    k = require_int("k", k, 0, MAX_BESSEL_ORDER)
    x = require_real("x", x, k, above=True)
    s = math.sqrt(x * x - float(k) * k)
    phase = s - k * math.acos(k / x) - _QUARTER_PI
    return math.sqrt(2.0 / (math.pi * s)) * math.cos(phase)


def bessel_j_adiabatic_impulse_expanded(k: int, x: float) -> float:
    """Large-x expansion of the adiabatic-impulse phase, defined for x > k.

    sqrt(2/(pi s)) cos(x - k pi/2 - pi/4 + k^2/(2x)) with s = sqrt(x^2 - k^2).
    The x > k check only keeps s real; it is not an accuracy promise.  The
    expansion drops a phase whose leading part is k^4/(24 x^3), so the form
    is accurate where that is small: at most 0.1 rad for
    x >= (k^4/2.4)^(1/3), but about 1.1 rad at k = 20, x = 21.
    """
    k = require_int("k", k, 0, MAX_BESSEL_ORDER)
    x = require_real("x", x, k, above=True)
    s = math.sqrt(x * x - float(k) * k)
    phase = x - k * math.pi / 2.0 - _QUARTER_PI + k * k / (2.0 * x)
    return math.sqrt(2.0 / (math.pi * s)) * math.cos(phase)


def assoc_laguerre_scaled(n: int, k: int, x: float) -> tuple[float, float]:
    """L_n^k(x) as (mantissa, log_scale): value = mantissa * exp(log_scale).

    Three-term recurrence
       (m+1) L_{m+1}^k = (2m+k+1-x) L_m^k - (m+k) L_{m-1}^k
    with running rescaling, so no degree up to MAX_OVERLAP_INDEX overflows.
    """
    n = require_int("n", n, 0, MAX_OVERLAP_INDEX)
    k = require_int("k", k)
    x = require_real("x", x, 0.0)
    return _laguerre_scaled_pass((n,), k, x)[0]


def _laguerre_scaled_pass(degrees: Sequence[int], k: int, x: float) -> list[tuple[float, float]]:
    """assoc_laguerre_scaled(n, k, x) for every n in degrees, from one recurrence.

    Degrees may come in any order and repeat; the recurrence runs once, up to
    the largest, and each (mantissa, log_scale) is recorded on reaching its
    degree, so every value is the one a pass up to that degree alone returns.
    Arguments are trusted: callers check them first.
    """
    values = {}
    prev = 1.0               # L_0^k
    cur = 1.0 + k - x        # L_1^k
    log_scale = 0.0
    reached = 1
    for n in sorted(set(degrees)):
        if n == 0:
            values[0] = (1.0, 0.0)
            continue
        for m in range(reached, n):
            prev, cur = cur, ((2 * m + k + 1 - x) * cur - (m + k) * prev) / (m + 1)
            if abs(cur) > _RESCALE or abs(prev) > _RESCALE:
                prev /= _RESCALE
                cur /= _RESCALE
                log_scale += _LOG_RESCALE
        reached = n
        values[n] = (cur, log_scale)
    return [values[n] for n in degrees]


def assoc_laguerre(n: int, k: int, x: float) -> float:
    """Associated Laguerre polynomial L_n^k(x); +/-inf if the value overflows."""
    mantissa, log_scale = assoc_laguerre_scaled(n, k, x)
    if mantissa == 0.0 or log_scale == 0.0:
        return mantissa
    value = math.log(abs(mantissa)) + log_scale
    if value > 709.0:
        return math.copysign(math.inf, mantissa)
    # no underflow: log_scale >= ln(1e250) here and ln|mantissa| >= -744.4
    return math.copysign(math.exp(value), mantissa)


def log_factorial_ratio(n: int, k: int) -> float:
    """(1/2) ln(n!/(n+k)!), evaluated through lgamma so nothing overflows."""
    n = require_int("n", n)
    k = require_int("k", k)
    return 0.5 * (math.lgamma(n + 1) - math.lgamma(n + k + 1))


def require_overlap_index(n: int, k: int) -> None:
    """Raise ValueError when n + k is above MAX_OVERLAP_INDEX."""
    if n + k > MAX_OVERLAP_INDEX:
        raise ValueError(f"n+k={n + k} above supported range {MAX_OVERLAP_INDEX}")


def displaced_fock_overlap(n: int, k: int, d: float) -> float:
    """Overlap <n+k| exp(d (adag - a)) |n> for real displacement d >= 0.

    Evaluates exp(-d^2/2) d^k sqrt(n!/(n+k)!) L_n^k(d^2) with the prefactor in
    log space and the Laguerre factor in scaled form, so the signed value is
    exact in sign and never overflows.  |result| <= 1 always.
    """
    n = require_int("n", n)
    k = require_int("k", k)
    d = require_real("d", d, 0.0)
    require_overlap_index(n, k)
    if d == 0.0:
        return 1.0 if k == 0 else 0.0
    mantissa, log_scale = assoc_laguerre_scaled(n, k, d * d)
    return _overlap_from_laguerre(n, k, d, mantissa, log_scale)


def displaced_fock_overlap_grid(ns: Iterable[int], k: int, d: float) -> list[float]:
    """displaced_fock_overlap(n, k, d) for every n in ns, in the order given.

    One Laguerre recurrence up to max(ns) serves every photon number, so a
    grid costs O(max(ns)) recurrence steps instead of O(sum(ns)).  Every n,
    k and d is checked, n + k against MAX_OVERLAP_INDEX included, before any
    step runs.
    """
    ns = [require_int("n", n) for n in ns]
    k = require_int("k", k)
    d = require_real("d", d, 0.0)
    require_overlap_index(max(ns, default=0), k)
    if d == 0.0:
        return [1.0 if k == 0 else 0.0] * len(ns)
    laguerre = _laguerre_scaled_pass(ns, k, d * d)
    return [
        _overlap_from_laguerre(n, k, d, mantissa, log_scale)
        for n, (mantissa, log_scale) in zip(ns, laguerre)
    ]


def _overlap_from_laguerre(n: int, k: int, d: float, mantissa: float, log_scale: float) -> float:
    """The overlap at d > 0 from the scaled L_n^k(d^2), its prefactor in log space."""
    if mantissa == 0.0:
        return 0.0
    log_mag = (
        -0.5 * d * d
        + k * math.log(d)
        + log_factorial_ratio(n, k)
        + math.log(abs(mantissa))
        + log_scale
    )
    if log_mag < -745.0:
        return math.copysign(0.0, mantissa)
    return math.copysign(math.exp(log_mag), mantissa)
