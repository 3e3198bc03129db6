"""Rabi frequencies of the driven qubit: analytic routes and exact spectra.

Two analytic expressions are compared throughout:
  * semiclassical strong-driving frequency  gap * J_k(a)   for a classical
    drive of amplitude a on the k-photon resonance (bias = k), and
  * the quantized-field counterpart         gap * <n+k| exp(2c (adag-a)) |n>
    from the displaced-oscillator doublet coupled by the tunnel term.
Both are signed; magnitudes are a presentation choice left to callers.

The field amplitude felt by the qubit for n photons is a = 4 c sqrt(n); the
small empirical offset s in a_eff = 4 c sqrt(n + s) is fitted here as a
root of the least-squares gradient.  The two routes correspond only for
large n and at the shifted amplitude: unshifted, J_k(4 c sqrt(n)) vanishes
at n = 0 for k >= 1 while the overlap does not, and an O(c (k+1)/sqrt(n))
argument offset remains that relative errors magnify near Bessel zeros.

The assumption-free reference for the quantized route is exact_splitting,
the eigenvalue gap of the doublet itself (the generalised-RWA doublet of
Irish, PRL 99, 173601 (2007)), found by inverse iteration seeded with the
two displaced columns on a banded Fock window around them: no dense
diagonalisation, O(window) work per doublet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import FitDegenerateError, PairIdentificationError, require_int, require_real
from .models import Branch, CavityCoupling, QubitSpec, _hamiltonian_entries, grwa_state
from .specfun import (
    MAX_BESSEL_ORDER,
    _bessel_column,
    _overlap_grid,
    _require_displacement,
    bessel_j,
    displaced_fock_overlap,
    require_overlap_index,
)

_EPS = 2.0 ** -52  # float64 machine epsilon
# the doublet weight exact_splitting's window may leave out on either side
_WINDOW_TAIL = 1e-16
# inverse iterations exact_splitting may take: doublets split by much less
# than the level spacing converge in 1-4, and 16 reach its bound from a
# residual of 1 at a contraction of 1/3 a step
_SPLIT_ITERATIONS = 16


def rabi_freq_semiclassical(qubit: QubitSpec, amplitude: float, k: int) -> float:
    """Strong-driving k-resonance Rabi frequency gap * J_k(amplitude), signed."""
    amplitude = require_real("amplitude", amplitude, 0.0)
    return qubit.gap * bessel_j(k, amplitude)


def rabi_freq_quantum(qubit: QubitSpec, coupling: float, n: int, k: int) -> float:
    """Quantized-field k-resonance Rabi frequency, signed.

    gap * exp(-2c^2) (2c)^k sqrt(n!/(n+k)!) L_n^k(4c^2); the sign of the
    Laguerre factor is kept.
    """
    coupling = require_real("coupling", coupling, 0.0)
    return qubit.gap * displaced_fock_overlap(n, k, 2.0 * coupling)


def equivalent_amplitude(coupling: float, n: float, shift: float = 0.0) -> float:
    """Effective classical amplitude 4 c sqrt(n + shift); all finite, c and n + shift >= 0."""
    coupling = require_real("coupling", coupling, 0.0)
    n = require_real("n", n)
    shift = require_real("shift", shift)
    radicand = require_real("n + shift", n + shift, 0.0)
    return 4.0 * coupling * math.sqrt(radicand)


def exact_splitting(qubit: QubitSpec, cavity: CavityCoupling, n: int, k: int) -> float:
    """Eigenvalue gap of the displaced-oscillator doublet ((up, n+k), (down, n)).

    Builds the doublet's two displaced Fock columns on the caller's cavity
    (grwa_state, so its TruncationError and ResourceLimitError guard them)
    and finds the doublet of the joint Hamiltonian on the resonance
    bias = k over a Fock window around them.  The window runs from the
    first to the last row outside which the summed squared tails of both
    columns stay below 1e-16, widened on each side by half its width (at
    least one row) and clipped to the cavity.  On it, with up and down
    interleaved level by level, H is banded with width 2; the window's
    middle level is subtracted from its diagonal, so that rounding scales
    with the window's width rather than with n.

    The two columns cut to the window seed a subspace inverse iteration at
    the fixed shift sigma, the mean of their 2x2 Ritz values: H - sigma is
    factored once by a banded LU with partial pivoting (_band_lu), and each
    step solves for both vectors, orthonormalises them and projects H onto
    them (Rayleigh-Ritz).  It stops once the Ritz residual
    ||H Q - Q T||_F is at most sqrt(eps levels): each Ritz value is then
    within eps levels / delta of its eigenvalue, delta being the distance
    to the rest of the spectrum, about 1.  The splitting is the eigenvalue
    gap hypot(t11 - t22, 2 t12) of the final projection T.  Each step
    contracts the residual by about half the splitting over the distance to
    the next levels, so a doublet split by a fair part of the level spacing
    (about 1/2 or more) is not isolated and fails to converge in 16 steps.
    That, or two Ritz vectors that capture on average less than 0.8 of the
    columns' squared overlap, raises PairIdentificationError, whose message
    names the inputs, the window, and the figure and threshold that failed.
    The work is O(window) per doublet.
    """
    n = require_int("n", n)
    k = require_int("k", k)
    _require_resonance(qubit, k)
    if n + k > cavity.n_max:
        raise ValueError(f"n+k={n + k} exceeds n_max={cavity.n_max}")
    pair_a = grwa_state(Branch.UP, n + k, cavity).branch(Branch.UP).real
    pair_b = grwa_state(Branch.DOWN, n, cavity).branch(Branch.DOWN).real
    weight = pair_a * pair_a + pair_b * pair_b
    lo = int(np.searchsorted(np.cumsum(weight), _WINDOW_TAIL))
    hi = weight.size - 1 - int(np.searchsorted(np.cumsum(weight[::-1]), _WINDOW_TAIL))
    half = (hi - lo + 2) // 2
    lo, hi = max(0, lo - half), min(weight.size - 1, hi + half)
    window = CavityCoupling(cavity.coupling, cavity.n_min + hi, cavity.n_min + lo)
    up, down, tunnel, ladder = _hamiltonian_entries(qubit, window)
    middle = float(window.n_min + window.levels // 2)
    diag = np.column_stack((up - middle, down - middle)).reshape(-1)
    off1 = np.zeros(diag.size - 1)
    off1[0::2] = tunnel
    off2 = np.column_stack((-ladder, ladder)).reshape(-1)

    def apply(x: np.ndarray) -> np.ndarray:
        """H x for x of shape (dim, 2), from the three bands."""
        hx = diag[:, None] * x
        hx[:-1] += off1[:, None] * x[1:]
        hx[1:] += off1[:, None] * x[:-1]
        hx[:-2] += off2[:, None] * x[2:]
        hx[2:] += off2[:, None] * x[:-2]
        return hx

    seeds = np.zeros((diag.size, 2))
    seeds[0::2, 0] = pair_a[lo : hi + 1]
    seeds[1::2, 1] = pair_b[lo : hi + 1]
    proj = seeds.T @ apply(seeds)
    factors = _band_lu(diag - 0.5 * (proj[0, 0] + proj[1, 1]), off1, off2)
    bound = math.sqrt(_EPS * window.levels)
    basis = seeds
    for _ in range(_SPLIT_ITERATIONS):
        basis = np.linalg.qr(_band_solve(factors, basis))[0]
        h_basis = apply(basis)
        proj = basis.T @ h_basis
        proj = 0.5 * (proj + proj.T)
        residual = float(np.linalg.norm(h_basis - basis @ proj))
        if residual <= bound:
            break
    where = (
        f"doublet (n={n}, k={k}) at gap={qubit.gap}, bias={qubit.bias}, "
        f"coupling={cavity.coupling} on the window n_min={window.n_min}, n_max={window.n_max}"
    )
    if not residual <= bound:  # a NaN residual fails too
        raise PairIdentificationError(
            f"{where}: Ritz residual {residual:.3g} still above {bound:.3g} after "
            f"{_SPLIT_ITERATIONS} inverse iterations; the doublet is not isolated"
        )
    # the mean weight of the two Ritz vectors, which rotating the basis keeps
    captured = 0.5 * float(np.sum((seeds.T @ basis) ** 2))
    if captured < 0.8:
        raise PairIdentificationError(
            f"{where}: captured weight {captured:.3g} < 0.8; "
            "the displaced-oscillator labels are not faithful here"
        )
    return math.hypot(proj[0, 0] - proj[1, 1], 2.0 * proj[0, 1])


def _band_lu(diag: np.ndarray, off1: np.ndarray, off2: np.ndarray):
    """LU with partial pivoting of the symmetric matrix A with main diagonal
    diag and first and second off-diagonals off1 and off2.

    Plain Python over per-row tuples: column j picks its pivot among the
    three rows that can reach it, so U has upper bandwidth 4.  Returns
    (steps, upper): per column j, the pivot's place among those rows and
    the multipliers of the two others, and U's row j at columns j..j+4.
    A pivot of exactly 0 is replaced by eps times A's largest entry, as
    LAPACK's dstein does, so every factor is finite and nonzero.
    """
    tiny = _EPS * max(float(np.max(np.abs(band))) for band in (diag, off1, off2))
    o1 = [0.0, *off1.tolist(), 0.0]  # o1[r] = A[r, r-1]
    o2 = [0.0, 0.0, *off2.tolist(), 0.0, 0.0]  # o2[r] = A[r, r-2]
    # A's row r at columns r-2..r+2, then three rows past the last, which never pivot
    rows = [*zip(o2, o1, diag.tolist(), o1[1:], o2[2:]), *[(0.0,) * 5] * 3]
    # the candidate rows of column 0, at columns 0..4
    a, b, c = (*rows[0][2:], 0.0, 0.0), (*rows[1][1:], 0.0), rows[2]
    steps, upper = [], []
    for row in rows[3:]:
        p, pick = a[0], 0
        if abs(b[0]) > abs(p):
            p, pick = b[0], 1
        if abs(c[0]) > abs(p):
            p, pick = c[0], 2
        if pick == 1:
            a, b = b, a
        elif pick == 2:
            a, c = c, a
        if p == 0.0:
            p = tiny
        lb, lc = b[0] / p, c[0] / p
        _, u1, u2, u3, u4 = a
        steps.append((pick, lb, lc))
        upper.append((p, u1, u2, u3, u4))
        a = (b[1] - lb * u1, b[2] - lb * u2, b[3] - lb * u3, b[4] - lb * u4, 0.0)
        b = (c[1] - lc * u1, c[2] - lc * u2, c[3] - lc * u3, c[4] - lc * u4, 0.0)
        c = row
    return steps, upper


def _band_solve(factors, rhs: np.ndarray) -> np.ndarray:
    """A^-1 rhs for both columns of rhs (shape (dim, 2)) in one sweep, from
    _band_lu's factors of A."""
    steps, upper = factors
    size = len(upper)
    # zeros past the last row: the right-hand sides of the rows that never
    # pivot, and the solution entries U's last rows reach
    x = rhs[:, 0].tolist() + [0.0] * 4
    y = rhs[:, 1].tolist() + [0.0] * 4
    xa, xb, xc, ya, yb, yc = x[0], x[1], x[2], y[0], y[1], y[2]
    for j, (pick, lb, lc) in enumerate(steps):
        if pick == 1:
            xa, xb, ya, yb = xb, xa, yb, ya
        elif pick == 2:
            xa, xc, ya, yc = xc, xa, yc, ya
        x[j], y[j] = xa, ya
        xa, xb, xc = xb - lb * xa, xc - lc * xa, x[j + 3]
        ya, yb, yc = yb - lb * ya, yc - lc * ya, y[j + 3]
    for j in range(size - 1, -1, -1):
        p, u1, u2, u3, u4 = upper[j]
        x[j] = (x[j] - u1 * x[j + 1] - u2 * x[j + 2] - u3 * x[j + 3] - u4 * x[j + 4]) / p
        y[j] = (y[j] - u1 * y[j + 1] - u2 * y[j + 2] - u3 * y[j + 3] - u4 * y[j + 4]) / p
    return np.column_stack((x[:size], y[:size]))


@dataclass(frozen=True)
class ComparisonRow:
    """One photon-number point of the semiclassical/quantum comparison."""

    n: int
    omega_s: float
    omega_q: float
    a_eff: float


def _require_resonance(qubit: QubitSpec, k: int) -> None:
    """Refuse bias != k; rounding first makes a k past float range a ValueError."""
    if round(qubit.bias) != k or abs(qubit.bias - k) > 1e-9:
        raise ValueError(f"resonance requires bias = k, got bias={qubit.bias}, k={k}")


def _checked_cells(ns, ks, top: float, shift: float = 0.0) -> tuple[list[int], list[int]]:
    """Every n and k as an int >= 0, once each cell of a grid over them at
    couplings x <= top passes: n + k <= MAX_OVERLAP_INDEX, k <= MAX_BESSEL_ORDER,
    n + shift >= 0, a finite Bessel argument 4 x sqrt(n + shift), a valid 2 x."""
    ns = [require_int("n", n) for n in ns]
    ks = [require_int("k", k) for k in ks]
    require_overlap_index(max(ns, default=0), max(ks, default=0))
    require_int("k", max(ks, default=0), 0, MAX_BESSEL_ORDER)
    require_real("n + shift", min(ns, default=0) + shift, 0.0)
    require_real("4 x sqrt(n)", 4.0 * top * math.sqrt(max(ns, default=0) + shift), 0.0)
    _require_displacement(2.0 * top)
    return ns, ks


def _photon_grid(n_values: Iterable[int], k: int, coupling: float, shift: float = 0.0) -> list[int]:
    """The distinct photon numbers in ascending order, every cell checked."""
    ns = sorted(set(_checked_cells(n_values, [k], coupling, shift)[0]))
    if not ns:
        raise ValueError("empty photon-number grid")
    return ns


def comparison_grid(
    qubit: QubitSpec,
    coupling: float,
    k: int,
    n_values: Iterable[int],
    shift: float = 0.0,
) -> list[ComparisonRow]:
    """Both frequency routes over a photon-number grid, ascending in n.

    Runs on the k-photon resonance (bias = k enforced).  Each row holds what
    rabi_freq_semiclassical and rabi_freq_quantum return for its n, bit for
    bit: the quantum column is one Laguerre pass over the whole grid, the
    semiclassical one a _bessel_column, and every cell is checked first.
    """
    k = require_int("k", k)
    coupling = require_real("coupling", coupling, 0.0)
    shift = require_real("shift", shift)
    _require_resonance(qubit, k)
    ns = _photon_grid(n_values, k, coupling, shift)
    # equivalent_amplitude's IEEE operations, lane by lane
    a_eff = 4.0 * coupling * np.sqrt(np.array(ns, dtype=float) + shift)
    omega_s = (qubit.gap * _bessel_column(k, a_eff)).tolist()
    omega_q = (qubit.gap * _overlap_grid(ns, k, 2.0 * coupling)).tolist()
    return [ComparisonRow(*row) for row in zip(ns, omega_s, omega_q, a_eff.tolist())]


def agreement_onset(
    rows: Sequence[ComparisonRow],
    gap: float,
    rel_tol: float = 0.1,
) -> int | None:
    """Smallest n after which the two routes agree for every larger grid point.

    Agreement at a point means |omega_s - omega_q| <= rel_tol * scale with
    scale = max(|omega_s|, |omega_q|, gap/8).  Both frequencies are bounded
    by the gap, so a fixed fraction of it marks the level below which a
    point reads as zero on a shared axis; the floor keeps near-coincident
    zero crossings (where both values vanish and pointwise ratios blow up)
    from breaking an otherwise sustained agreement.  Returns None when even
    the last point disagrees.
    """
    gap = require_real("gap", gap, 0.0)
    rel_tol = require_real("rel_tol", rel_tol, 0.0)
    onset = None
    for row in rows:
        scale = max(abs(row.omega_s), abs(row.omega_q), 0.125 * gap)
        if abs(row.omega_s - row.omega_q) <= rel_tol * scale:
            if onset is None:
                onset = row.n
        else:
            onset = None
    return onset


@dataclass(frozen=True)
class ShiftFitResult:
    """Fitted photon-number offset and the rms frequency residual at the fit."""

    offset: float
    residual: float


def fit_amplitude_shift(
    qubit: QubitSpec,
    coupling: float,
    k: int,
    n_values: Iterable[int],
) -> ShiftFitResult:
    """Least-squares offset s in a_eff = 4 c sqrt(n + s), as a root of the gradient.

    Minimises f(s) = sum_n [omega_s(a_eff(n, s)) - omega_q(n)]^2 for s in
    [lo, hi] = [-2, k/2 + 2] (lo raised to -min(n) so the radicand stays
    nonnegative) on the k-photon resonance (bias = k enforced), every cell
    checked before any work.  Each evaluation is one pair _bessel_column
    (J_k and J_{k+1} from one pass) giving f and the gradient sum
        g(s) = sum_n [omega_s - omega_q] dJ_k(a_n)/ds,
        dJ_k/ds = ((k/a) J_k(a) - J_{k+1}(a)) 8 c^2 / a   (DLMF 10.6.2),
    with its one-sided limit at a = 0: -4c^2 at k = 0, +inf at k = 1, 2c^2
    at k = 2 and 0 above.  f and g are evaluated at five probes spanning
    [lo, hi].  The candidates are a root of g, by Brent's zeroin to 1e-14,
    in each probe interval where g goes from <= 0 to >= 0, lo if g(lo) > 0
    and hi if g(hi) < 0; one always exists, and the fit is the candidate
    with the lowest f.  Where f has several minima the fit is therefore a
    local minimum, the lowest one the probes bracket, not necessarily the
    global one.  A fit takes about 12 evaluations.  Raises
    FitDegenerateError when f is flat over the probes.
    """
    k = require_int("k", k)
    coupling = require_real("coupling", coupling, 0.0, above=True)
    _require_resonance(qubit, k)
    ns = _photon_grid(n_values, k, coupling)
    n_floats = np.array(ns, dtype=float)
    # rabi_freq_quantum at each n, from one Laguerre pass
    targets = qubit.gap * np.array(_overlap_grid(ns, k, 2.0 * coupling))
    evaluated = {}

    def gradient(s: float) -> float:
        """g(s), with f(s) recorded in evaluated[s]."""
        evaluated[s], g = _shift_objective(s, k, coupling, qubit.gap, n_floats, targets)
        return g

    lo = max(-2.0, -float(ns[0]))
    hi = 0.5 * k + 2.0
    probes = [lo + f * (hi - lo) for f in (0.0, 0.25, 0.5, 0.75, 1.0)]
    grads = [gradient(s) for s in probes]
    values = [evaluated[s] for s in probes]
    if max(values) - min(values) < 1e-15:
        raise FitDegenerateError(
            f"shift objective varies by < 1e-15 over [{lo}, {hi}]; nothing to fit"
        )

    candidates = [probes[0]] if grads[0] > 0.0 else []
    if grads[-1] < 0.0:
        candidates.append(probes[-1])
    for a, b, ga, gb in zip(probes, probes[1:], grads, grads[1:]):
        if ga <= 0.0 <= gb:
            candidates.append(_zeroin(gradient, a, b, ga, gb, 1e-14))
    best = min(candidates, key=evaluated.__getitem__)
    return ShiftFitResult(offset=best, residual=math.sqrt(evaluated[best] / len(ns)))


def _shift_objective(
    s: float, k: int, coupling: float, gap: float, n_floats: np.ndarray, targets: np.ndarray
) -> tuple[float, float]:
    """fit_amplitude_shift's f(s) and g(s), from one pair _bessel_column.

    g is never NaN: a lane with a = 0 (n + s = 0) takes the one-sided limit
    of dJ_k/ds, so g may be -inf there (k = 1), with the sign of the limit.
    """
    roots = np.sqrt(n_floats + s)
    a = 4.0 * coupling * roots
    j, j_next = _bessel_column(k, a, pair=True)
    diffs = gap * j - targets
    total = 0.0
    for diff in diffs.tolist():
        total += diff * diff
    c2 = coupling * coupling
    zero = a == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        slopes = (k * j / a - j_next) * (2.0 * coupling / roots)
        slopes[zero] = (-4.0 * c2, math.inf, 2.0 * c2)[k] if k <= 2 else 0.0
        terms = diffs * slopes
    if k == 1:  # 0 * inf where omega_q(n) = 0: the term tends to gap J_1 dJ_1/ds
        terms[zero & (diffs == 0.0)] = 2.0 * gap * c2
    return total, float(terms.sum())


def _zeroin(func, a: float, b: float, fa: float, fb: float, tol: float) -> float:
    """A zero of func in [a, b], where fa = func(a) and fb = func(b) differ in
    sign or one is 0, to within 4 eps |x| + tol: Brent's zeroin (Brent,
    Algorithms for Minimization without Derivatives, 1973, ch. 4), inverse
    quadratic or secant steps safeguarded by bisection.  An infinite fa or
    fb only makes the first step a bisection."""
    c, fc = a, fa
    d = e = b - a
    while True:
        if (fb > 0.0 and fc > 0.0) or (fb < 0.0 and fc < 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * _EPS * abs(b) + 0.5 * tol
        m = 0.5 * (c - b)
        if abs(m) <= tol1 or fb == 0.0:
            return b
        if abs(e) < tol1 or abs(fa) <= abs(fb):
            d = e = m  # bisection
        else:
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * m * s, 1.0 - s
            else:  # inverse quadratic interpolation
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            # written as an acceptance so that a NaN step is refused
            if 2.0 * p < 3.0 * m * q - abs(tol1 * q) and p < abs(0.5 * e * q):
                e, d = d, p / q
            else:
                d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol1 else math.copysign(tol1, m)
        fb = func(b)


def predicted_shift(coupling: float, k: int) -> float:
    """Empirical offset formula k/2 + 1/2 - c^2/3 for the equivalent amplitude."""
    coupling = require_real("coupling", coupling, 0.0)
    k = require_int("k", k)
    return 0.5 * k + 0.5 - coupling * coupling / 3.0


def bessel_laguerre_identity_error(x: float, n: int, k: int) -> float:
    """Relative gap between J_k(4 x sqrt(n)) and its displaced-overlap twin.

    |J_k(4 x sqrt(n)) - exp(-2x^2)(2x)^k sqrt(n!/(n+k)!) L_n^k(4x^2)| divided
    by max(|J_k|, 1e-3); the floor keeps Bessel zeros from dominating sweeps.

    The identity is deliberately unshifted, so it fails structurally in two
    places: at n = 0 for k >= 1 the Bessel side is exactly 0 while the
    overlap is not, and for n >= 1 the argument carries an O(x (k+1)/sqrt(n))
    offset that the 1e-3 floor still magnifies near Bessel zeros.  The
    correspondence holds for large n at 4 x sqrt(n + predicted_shift(x, k)).
    """
    x = require_real("x", x, 0.0)
    n = require_int("n", n)
    # the overlap first: its index and displacement bounds refuse before the O(x) Bessel pass
    overlap = displaced_fock_overlap(n, k, 2.0 * x)
    lhs = bessel_j(k, 4.0 * x * math.sqrt(n))
    return abs(lhs - overlap) / max(abs(lhs), 1e-3)


def bessel_laguerre_identity_error_grid(
    xs: Iterable[float], ns: Iterable[int], ks: Iterable[int]
) -> np.ndarray:
    """bessel_laguerre_identity_error at every (x, n, k) of a product grid.

    Returns the float array errors of shape (len(xs), len(ns), len(ks)), where
    errors[i, j, l] is the error at (xs[i], ns[j], ks[l]); values may come in
    any order and repeat.  One Laguerre pass per distinct (x, k) serves every
    n, the Bessel side of that column is one _bessel_column, and each error
    equals the scalar function's bit for bit.  Every x, n and k is checked,
    and every cell by _checked_cells, before any recurrence or Bessel call.
    """
    xs = [require_real("x", x, 0.0) for x in xs]
    ns, ks = _checked_cells(ns, ks, max(xs, default=0.0))
    roots = np.sqrt(np.array(ns, dtype=float))
    errors = np.empty((len(xs), len(ns), len(ks)))
    for plane, x in zip(errors, xs):
        args = 4.0 * x * roots
        columns = {}
        for k in dict.fromkeys(ks):
            lhs = _bessel_column(k, args)
            rhs = _overlap_grid(ns, k, 2.0 * x)
            # the scalar function's IEEE operations, lane by lane
            columns[k] = np.abs(lhs - rhs) / np.maximum(np.abs(lhs), 1e-3)
        plane[...] = np.array([columns[k] for k in ks]).T
    return errors


def figure_photon_grid() -> list[int]:
    """Standard photon-number axis: dense to 10, step 5 to 100, step 25 to 1000."""
    grid = set(range(0, 11))
    grid.update(range(10, 101, 5))
    grid.update(range(100, 1001, 25))
    return sorted(grid)
