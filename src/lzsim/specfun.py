"""Numerically stable special functions used throughout the package.

Integer-order Bessel functions of the first kind, associated Laguerre
polynomials with overflow-safe scaling, and the overlap between a Fock state
and a displaced Fock state.  All routines are pure.  Relative error
is below 1e-10, except near a zero of the function, where accuracy is
absolute, and in the overlap at large n and small d, where the Laguerre
recurrence drifts: against mpmath at d = 0.3 it is 1.5e-11 at n = 1e4,
1.1e-9 at 1e5 and 7.9e-9 to 1.5e-8 at 5e5 (k = 0 to 3).  The public
routines take one argument set; the private grid kernels a whole column.
`_overlap_grid` reads every requested photon number off one Laguerre
recurrence, and `_bessel_column` evaluates J_k over a column of x, one
numpy pass per regime, and on request J_{k+1} from the same Miller pass.
Both finish in lane-wise closings, `_close_overlap` and `_close_series`,
which add the log-space terms in numpy in the scalar order and call libm
(`math.log`, `math.lgamma`, `math.exp`) lane by lane.  The scalar overlap
and the scalar Bessel series close through the same routines as one-lane
columns, so grid and scalar agree bit for bit by construction.  The private
`_displaced_fock_column` builds a whole column <j| D(d) |m> from its own
recurrence, with no Laguerre pass.

Closed-form large-argument approximations of J_k (stationary-phase form and
two adiabatic-impulse variants) live here as well; they are the analytic
side of the strong-driving frequency analysis.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import require_int, require_real

MAX_BESSEL_ORDER = 10_000
MAX_OVERLAP_INDEX = 1_000_000

_RESCALE = 1e250
_LOG_RESCALE = math.log(_RESCALE)
_QUARTER_PI = 0.25 * math.pi
# the largest Laguerre argument (x, or d^2 for an overlap): up to it a step on
# a value just under the 1e250 rescale stays finite, above it NaN or inf
_MAX_LAGUERRE_X = 1e58
# below this |d| a displaced Fock column is the number state itself
_MIN_DISPLACEMENT = 1e-50
# lanes of one Bessel regime below which a numpy pass over an x column loses
# to scalar calls (measured break-even 60-80 lanes for both the series and
# Miller regimes, on one CPU); the Miller split prices one numpy step at this
# many scalar steps
_MIN_LANES = 80


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
    if 0.5 * x == 0.0:  # x = 0, or subnormal x: J_0 = 1 and J_k underflows
        return 1.0 if k == 0 else 0.0
    if _series_regime(k, x):
        return float(_series_lanes(k, np.array([x]))[0])
    return _bessel_miller(k, x)[0]


def _series_regime(k: int, x):
    """Whether bessel_j sums the power series at x (a float, or a numpy array of them)."""
    return (x <= 8.0) | (x * x <= 2.0 * (k + 1))


def _bessel_series(k: int, x: float) -> float:
    """The power series of J_k(x), x/2 > 0, summed in units of its leading
    term (x/2)^k / k!; _close_series applies that term in log space, so large
    k cannot underflow intermediate terms."""
    half = 0.5 * x
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
    return total


def _close_series(k: int, half: np.ndarray, totals) -> np.ndarray:
    """J_k at every lane from x/2 and the series sum in units of its leading term.

    Lane by lane k ln(x/2) - ln k! + ln|total|, added left to right as one
    scalar sum would be, then its signed exp; a lane whose log lies below
    -745 is a signed zero, and a zero sum gives +0.0.
    """
    totals = np.asarray(totals, dtype=float)
    value = k * _libm(math.log, half) - math.lgamma(k + 1) + _log_abs(totals)
    return _signed_exp(value, totals)


def _libm(func, values: np.ndarray) -> np.ndarray:
    """func (a math routine) at every lane, libm's own value bit for bit.

    numpy's vector exp and log may differ from libm by an ulp, so the
    closings call math's routines lane by lane.
    """
    return np.fromiter(map(func, values.tolist()), dtype=float, count=values.size)


def _log_abs(values: np.ndarray) -> np.ndarray:
    """ln|v| at every lane, 0.0 where v is 0 (lanes _signed_exp sets to +0.0)."""
    return _libm(math.log, np.abs(np.where(values == 0.0, 1.0, values)))


def _signed_exp(log_mag: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """copysign(exp(log_mag), sign) at every lane: a signed zero where log_mag
    is below -745 (where exp would return a subnormal), +0.0 where sign is 0."""
    zero = sign == 0.0
    mag = _libm(math.exp, np.where(zero | (log_mag < -745.0), -np.inf, log_mag))
    return np.copysign(mag, np.where(zero, 1.0, sign))


def _miller_margin(x: float) -> int:
    """Rows a Miller pass starts above a turning point whose Airy scale is x.

    Far enough that the admixed dominant solution decays below 1e-18 before
    the rows of interest (Airy-regime decay rate ~ exp(-0.94 d^{3/2}/sqrt(x))
    for a start offset d).
    """
    return 20 + int(math.ceil(14.0 * max(x, 1.0) ** (1.0 / 3.0)))


def _miller_start(k: int, x: float) -> int:
    """The even order at which the Miller pass for J_k(x) starts."""
    start = max(k, int(math.ceil(x))) + _miller_margin(x)
    return start + (start & 1)


def _bessel_miller(k: int, x: float) -> tuple[float, float]:
    """(J_k(x), J_{k+1}(x)) from one Miller pass: J_{k+1} is the trial value
    the pass holds on reaching order k, normalised by the same sum."""
    two_over_x = 2.0 / x
    above = 0.0  # trial J_{m+1}
    cur = 1.0    # trial J_m
    sum_even = 1.0  # the start order is even and at least 20, so it counts
    target = 0.0  # trial J_k, rescaled with the rest once recorded
    upper = 0.0  # trial J_{k+1}, likewise

    m = _miller_start(k, x)
    while m >= 1:
        nxt = m * two_over_x * cur - above
        above = cur
        cur = nxt
        m -= 1
        if m == k:
            target = cur
            upper = above
        if m >= 2 and (m & 1) == 0:
            sum_even += cur
        if abs(cur) > _RESCALE:
            cur /= _RESCALE
            above /= _RESCALE
            sum_even /= _RESCALE
            target /= _RESCALE
            upper /= _RESCALE

    norm = 2.0 * sum_even + cur  # cur is now the trial J_0
    return target / norm, upper / norm


def _bessel_column(k: int, xs, pair: bool = False) -> np.ndarray:
    """bessel_j(k, x) for every x in a 1-d xs, as an array equal to it bit for bit.

    Each lane takes the regime bessel_j takes.  The series lanes run the
    scalar's term recurrence as one numpy pass, each lane frozen at the step
    where the scalar loop breaks, and are finished by _close_series, as the
    scalar is.  The Miller lanes run one backward pass from the largest
    start order down, each lane switched on at its own start, so every lane
    sees the steps the scalar pass takes.  A regime with too few lanes for a
    numpy pass to win calls the scalar routine lane by lane.  With pair, the
    result is the rows (J_k, J_{k+1}): Miller lanes take J_{k+1} from the
    same pass, series lanes from the series at order k + 1, and row 0 is
    still bessel_j bit for bit.  Arguments are trusted: callers check them
    first.
    """
    xs = np.array(xs, dtype=float)
    out = np.empty((1 + pair, xs.size))
    zero = 0.5 * xs == 0.0  # x = 0, or subnormal x: J_0 = 1 and J_k underflows
    out[:, zero] = 0.0
    out[0, zero] = 1.0 if k == 0 else 0.0
    with np.errstate(over="ignore"):  # x * x may overflow to inf, as in the scalar rule
        series = ~zero & _series_regime(k, xs)
    miller = ~(zero | series)
    if series.any():  # a closing costs about 10 us even with no lanes to close
        for row in range(1 + pair):
            out[row, series] = _series_lanes(k + row, xs[series])
    out[:, miller] = _miller_lanes(k, xs[miller])[: 1 + pair]
    return out if pair else out[0]


def _series_lanes(k: int, xs: np.ndarray) -> np.ndarray:
    """bessel_j(k, x) at every x in xs, all in the series regime with x/2 > 0.

    A column of at least _MIN_LANES sums its series as one numpy pass, each
    lane frozen at the step where the scalar loop breaks; a shorter one calls
    _bessel_series lane by lane.  Either way _close_series finishes them.
    """
    half = 0.5 * xs
    if xs.size < _MIN_LANES:
        return _close_series(k, half, [_bessel_series(k, x) for x in xs.tolist()])
    neg_q = -(half * half)
    totals = np.empty_like(xs)
    lanes = np.arange(xs.size)  # the lanes still summing
    term = np.ones_like(xs)
    total = np.ones_like(xs)
    for m in range(1, 1001):
        term *= neg_q / (m * (m + k))
        total += term
        done = np.abs(term) <= 1e-17 * np.abs(total)
        if done.any():
            totals[lanes[done]] = total[done]
            keep = ~done
            lanes, term, total, neg_q = lanes[keep], term[keep], total[keep], neg_q[keep]
            if not lanes.size:
                break
    totals[lanes] = total  # lanes that ran all 1000 terms, as the scalar loop does
    return _close_series(k, half, totals)


def _miller_lanes(k: int, xs: np.ndarray) -> np.ndarray:
    """_bessel_miller(k, x) at every x in xs, as the rows (J_k, J_{k+1}).

    Lanes are sorted by start order, largest first, so the live lanes of each
    step are a prefix.  The lanes with the highest starts go to the scalar
    routine while that lowers the estimated cost: a scalar lane costs its
    start order in steps, the numpy pass _MIN_LANES steps per row it runs.
    """
    starts = [_miller_start(k, x) for x in xs.tolist()]
    order = np.argsort(starts, kind="stable")[::-1]
    starts = np.array(starts)[order]
    cost = np.cumsum(np.append(0, starts)) + _MIN_LANES * np.append(starts, 0)
    split = int(np.argmin(cost))
    values = np.empty((2, xs.size))
    for lane, x in zip(order[:split].tolist(), xs[order[:split]].tolist()):
        values[:, lane] = _bessel_miller(k, x)
    if split == xs.size:
        return values
    lanes, starts = order[split:], starts[split:].tolist()
    two_over_x = 2.0 / xs[lanes]
    above = np.empty(lanes.size)     # trial J_{m+1}
    cur = np.empty(lanes.size)       # trial J_m
    sum_even = np.ones(lanes.size)   # each start order is even and at least 20
    target = np.zeros(lanes.size)    # trial J_k
    upper = np.zeros(lanes.size)     # trial J_{k+1}
    live = 0
    for m in range(starts[0], 0, -1):
        if live < lanes.size and starts[live] == m:  # lanes whose pass starts here
            first = live
            while live < lanes.size and starts[live] == m:
                live += 1
            above[first:live], cur[first:live] = 0.0, 1.0
        above[:live] = m * two_over_x[:live] * cur[:live] - above[:live]
        above, cur = cur, above
        m -= 1
        if m == k:
            target[:live] = cur[:live]
            upper[:live] = above[:live]
        if m >= 2 and (m & 1) == 0:
            sum_even[:live] += cur[:live]
        big = np.abs(cur[:live]) > _RESCALE
        if big.any():
            for trial in (cur, above, sum_even, target, upper):
                trial[:live][big] /= _RESCALE
    norm = 2.0 * sum_even + cur
    values[:, lanes] = target / norm, upper / norm
    return values


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
    with running rescaling, so no degree overflows.  Raises ValueError when
    n + k is above MAX_OVERLAP_INDEX or x above 1e58.
    """
    n = require_int("n", n)
    k = require_int("k", k)
    require_overlap_index(n, k)
    x = require_real("x", x, 0.0, _MAX_LAGUERRE_X)
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


def require_overlap_index(n: int, k: int) -> None:
    """Raise ValueError when n + k is above MAX_OVERLAP_INDEX."""
    if n + k > MAX_OVERLAP_INDEX:
        raise ValueError(f"n+k above supported range {MAX_OVERLAP_INDEX}, got n+k={n + k}")


def _require_displacement(d: float) -> tuple[float, float]:
    """d and d^2, checked: d finite and >= 0, d^2 at most _MAX_LAGUERRE_X."""
    d = require_real("d", d, 0.0)
    return d, require_real("d^2", d * d, 0.0, _MAX_LAGUERRE_X)


def displaced_fock_overlap(n: int, k: int, d: float) -> float:
    """Overlap <n+k| exp(d (adag - a)) |n> for real displacement d >= 0.

    Evaluates exp(-d^2/2) d^k sqrt(n!/(n+k)!) L_n^k(d^2) with the prefactor in
    log space and the Laguerre factor in scaled form, so the signed value is
    exact in sign and never overflows.  |result| <= 1 always.  Raises
    ValueError when d^2 is above 1e58.
    """
    n = require_int("n", n)
    k = require_int("k", k)
    d, x = _require_displacement(d)
    require_overlap_index(n, k)
    if d == 0.0:
        return 1.0 if k == 0 else 0.0
    return float(_close_overlap([n], k, d, [assoc_laguerre_scaled(n, k, x)])[0])


def _overlap_grid(ns: Sequence[int], k: int, d: float) -> np.ndarray:
    """displaced_fock_overlap(n, k, d) for every n in ns, in the order given.

    One Laguerre recurrence up to max(ns) serves every photon number, so a
    grid costs O(max(ns)) recurrence steps instead of O(sum(ns)).  ns and k
    are trusted: every n and k must be an int >= 0 with max(ns) + k <=
    MAX_OVERLAP_INDEX, as each caller checks.  d is checked here, as the
    scalar checks it, before any step.
    """
    d, x = _require_displacement(d)
    if d == 0.0:
        return np.full(len(ns), 1.0 if k == 0 else 0.0)
    return _close_overlap(ns, k, d, _laguerre_scaled_pass(ns, k, x))


def _close_overlap(ns: Sequence[int], k: int, d: float, laguerre) -> np.ndarray:
    """The overlap at d > 0 for every n in ns, from its scaled L_n^k(d^2).

    Lane by lane the log-space prefactor
        -d^2/2 + k ln d + (ln n! - ln (n+k)!)/2 + ln|mantissa| + log_scale,
    added left to right as one scalar sum would be, then its signed exp; a
    lane whose log lies below -745 is a signed zero, and a zero mantissa
    gives +0.0.
    """
    mantissa, log_scale = np.array(laguerre, dtype=float).reshape(-1, 2).T
    ns = np.array(ns, dtype=float)  # n + k + 1 stays exact in float: both are at most 1e6
    log_mag = (
        (-0.5 * d * d + k * math.log(d))
        + 0.5 * (_libm(math.lgamma, ns + 1.0) - _libm(math.lgamma, ns + (k + 1.0)))
        + _log_abs(mantissa)
        + log_scale
    )
    return _signed_exp(log_mag, mantissa)


def _displaced_fock_column(m: int, d: float, n_min: int, n_max: int) -> np.ndarray:
    """Amplitudes <j| exp(d (adag - a)) |m> for j = n_min..n_max, any real d.

    exp(d (adag - a))|m> is the eigenvector of (adag - d)(a - d) with
    eigenvalue m (Cahill & Glauber, Phys. Rev. 177, 1857 (1969)), so its
    amplitudes c_j obey
        sqrt(j+1) c_{j+1} = ((j + d^2 - m)/d) c_j - sqrt(j) c_{j-1}.
    The column is that recurrence run once over its rows, in two halves that
    meet at p = max(m, floor((sqrt(m) - |d|)^2)): row m, or the lower of the
    turning points (sqrt(m) -/+ |d|)^2 when m lies below it.  Each half runs
    in the direction in which the column grows:
      * upward from the exact seed c_{-1} = 0, c_0 = 1 to row p + 1;
      * downward, Miller-style, to row p - 1 from above the upper turning
        point by _miller_margin of it plus 10|d| (the Poisson tail of a
        small m).
    Both passes rescale at 1e250.  The halves are matched at whichever of
    rows p - 1, p, p + 1 holds the largest amplitude (so never at a node of
    the column), and the column is scaled to unit norm over its rows
    0..top, the Miller start; rows above it are 0.  The sign comes from row
    0, exp(-d^2/2) (-d)^m / sqrt(m!): (-1)^m for d > 0, + for d < 0.  A
    column costs O((sqrt(m) + |d|)^2) steps, and for |d| < 1e-50, where no
    entry off row m reaches 1e-47, it is |m> itself.  Raises ValueError
    when the Miller start lies above MAX_OVERLAP_INDEX.
    """
    col = np.zeros(n_max - n_min + 1)
    if abs(d) < _MIN_DISPLACEMENT:
        if n_min <= m <= n_max:
            col[m - n_min] = 1.0
        return col
    shift = d * d - m
    upper = (math.sqrt(m) + abs(d)) ** 2
    meet = max(m, int((math.sqrt(m) - abs(d)) ** 2))
    top = math.ceil(upper) + _miller_margin(upper) + math.ceil(10.0 * abs(d))
    if top > MAX_OVERLAP_INDEX:
        raise ValueError(
            f"displaced Fock column (m={m}, d={d}) starts its recurrence at row {top}, "
            f"above supported range {MAX_OVERLAP_INDEX}"
        )
    root = np.sqrt(np.arange(top + 2.0)).tolist()

    # each value with the number of rescales its pass had made on reaching it
    up, up_counts = [1.0], [0]  # rows 0..meet+1
    prev, cur, count = 0.0, 1.0, 0
    for j in range(meet + 1):
        prev, cur = cur, ((j + shift) / d * cur - root[j] * prev) / root[j + 1]
        if abs(cur) > _RESCALE:
            prev /= _RESCALE
            cur /= _RESCALE
            count += 1
        up.append(cur)
        up_counts.append(count)
    down, down_counts = [1.0], [0]  # rows top, top-1, ..., max(meet-1, 0)
    prev, cur, count = 0.0, 1.0, 0
    for j in range(top, max(meet - 1, 0), -1):
        prev, cur = cur, ((j + shift) / d * cur - root[j + 1] * prev) / root[j]
        if abs(cur) > _RESCALE:
            prev /= _RESCALE
            cur /= _RESCALE
            count += 1
        down.append(cur)
        down_counts.append(count)

    def log_size(row):  # ln|c_row| up to a constant, from the upward pass
        return math.log(abs(up[row])) + up_counts[row] * _LOG_RESCALE if up[row] else -math.inf

    r = max((row for row in (meet - 1, meet, meet + 1) if row >= 0), key=log_size)
    low = _scaled_to(np.array(up[: r + 1]), np.array(up_counts[: r + 1]), r)
    rising = slice(top - r, None, -1)  # the downward pass's rows r..top, ascending
    high = _scaled_to(np.array(down[rising]), np.array(down_counts[rising]), 0)
    full = np.concatenate((low[:-1], high))
    # low[0] carries the sign of up[r]; row 0 must carry that of (-d)^m
    sign = math.copysign(1.0, up[r]) * (-1.0 if d > 0.0 and m % 2 else 1.0)
    full *= sign / np.linalg.norm(full)
    rows = full[n_min : n_max + 1]  # the window's rows up to top
    col[: rows.size] = rows
    return col


def _scaled_to(raw: np.ndarray, counts: np.ndarray, at: int) -> np.ndarray:
    """One recurrence pass scaled so that its entry `at` equals 1.

    raw[i] stands for raw[i] * 1e250^counts[i]; entries far below the scale
    of raw[at] flush to 0.
    """
    return (raw / raw[at]) * np.exp((counts - counts[at]) * _LOG_RESCALE)
