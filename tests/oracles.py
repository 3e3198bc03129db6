"""Independent reference values for the test suite.

Everything here is computed with mpmath at 50 significant digits or with
scipy's dense linear algebra, deliberately avoiding the package's own
algorithms so that agreement is evidence rather than tautology.
"""

import math

import mpmath as mp
import numpy as np

mp.mp.dps = 50


def bessel_ref(k: int, x: float) -> float:
    return float(mp.besselj(k, mp.mpf(x)))


def _laguerre_mp(n: int, k: int, x) -> mp.mpf:
    # three-term recurrence with extra headroom; mp.laguerre's hypergeometric
    # summation fails to converge for n ~ 1000 at moderate x
    with mp.workdps(mp.mp.dps + 60):
        xm = mp.mpf(x)
        prev = mp.mpf(1)
        if n == 0:
            return +prev
        cur = 1 + k - xm
        for m in range(1, n):
            prev, cur = cur, ((2 * m + 1 + k - xm) * cur - (m + k) * prev) / (m + 1)
        return +cur


def laguerre_ref(n: int, k: int, x: float) -> float:
    return float(_laguerre_mp(n, k, x))


def phase_ref(energy: float, t0: float, dt: float, j: int) -> complex:
    """exp(-i E (t0 + j dt)) at 40 digits, taking E, t0 and dt as exact."""
    with mp.workdps(40):
        return complex(mp.expj(-mp.mpf(energy) * (mp.mpf(t0) + j * mp.mpf(dt))))


def _overlap_mp(n: int, k: int, d: float) -> mp.mpf:
    if d == 0.0:
        return mp.mpf(1 if k == 0 else 0)
    dd = mp.mpf(d)
    lag = _laguerre_mp(n, k, dd * dd)
    if lag == 0:
        return mp.mpf(0)
    log_mag = (
        -0.5 * dd * dd
        + k * mp.log(dd)
        + 0.5 * (mp.loggamma(n + 1) - mp.loggamma(n + k + 1))
        + mp.log(abs(lag))
    )
    return mp.sign(lag) * mp.exp(log_mag)


def overlap_ref(n: int, k: int, d: float) -> float:
    """<n+k| exp(d (adag - a)) |n> through the closed form, at 50 digits."""
    return float(_overlap_mp(n, k, d))


def overlap_matrix_ref(n: int, k: int, d: float, dim: int = 60) -> float:
    """Same overlap through expm of the displacement generator, no closed form."""
    from scipy.linalg import expm

    lower = np.diag(np.sqrt(np.arange(1.0, dim)), 1)  # annihilation operator
    disp = expm(d * (lower.T - lower))
    return float(disp[n + k, n])


def identity_error_ref(x: float, n: int, k: int) -> float:
    """|J_k(4x sqrt(n)) - overlap(n,k,2x)| / max(|J_k|, 1e-3), all at 50 digits."""
    lhs = mp.besselj(k, 4 * mp.mpf(x) * mp.sqrt(n))
    rhs = mp.mpf(overlap_ref(n, k, 2.0 * x))
    return float(abs(lhs - rhs) / max(abs(lhs), mp.mpf("1e-3")))


def asymptotic_ref(k: int, x: float) -> float:
    xx = mp.mpf(x)
    return float(mp.sqrt(2 / (mp.pi * xx)) * mp.cos(xx - (2 * k + 1) * mp.pi / 4))


def adiabatic_ref(k: int, x: float) -> float:
    xx = mp.mpf(x)
    s = mp.sqrt(xx * xx - k * k)
    return float(mp.sqrt(2 / (mp.pi * s)) * mp.cos(s - k * mp.acos(k / xx) - mp.pi / 4))


def adiabatic_expanded_ref(k: int, x: float) -> float:
    xx = mp.mpf(x)
    s = mp.sqrt(xx * xx - k * k)
    phase = xx - k * mp.pi / 2 - mp.pi / 4 + mp.mpf(k) ** 2 / (2 * xx)
    return float(mp.sqrt(2 / (mp.pi * s)) * mp.cos(phase))


def fit_offset_ref(gap: float, coupling: float, k: int, n_values) -> tuple[float, float]:
    """Least-squares amplitude shift via scipy's bounded scalar minimizer.

    The objective is rebuilt from scipy.special primitives so neither the
    model evaluation nor the optimizer is shared with the implementation.
    Returns (offset, rms residual).
    """
    from scipy.optimize import minimize_scalar
    from scipy.special import eval_genlaguerre, jv

    ns = sorted({int(n) for n in n_values})

    def omega_q(n: int) -> float:
        c2 = coupling * coupling
        amp = (
            math.exp(-2.0 * c2)
            * (2.0 * coupling) ** k
            * math.exp(0.5 * (math.lgamma(n + 1) - math.lgamma(n + k + 1)))
            * eval_genlaguerre(n, k, 4.0 * c2)
        )
        return gap * amp

    targets = [omega_q(n) for n in ns]

    def objective(s: float) -> float:
        total = 0.0
        for n, target in zip(ns, targets):
            a_eff = 4.0 * coupling * math.sqrt(n + s)
            total += (gap * jv(k, a_eff) - target) ** 2
        return total

    lo = max(-2.0, -float(ns[0]))
    hi = 0.5 * k + 2.0
    res = minimize_scalar(objective, bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-12})
    return float(res.x), math.sqrt(float(res.fun) / len(ns))


def fit_offset_root_ref(gap: float, coupling: float, k: int, n_values, seed: float) -> float:
    """The amplitude shift as a root of the least-squares gradient, at 40 digits.

    g(s) = sum_n (gap J_k(a_n) - omega_q(n)) J_k'(a_n) 2c / sqrt(n + s) with
    a_n = 4c sqrt(n + s), every J_k and J_k' from mpmath.besselj and every
    omega_q from the 50-digit closed-form overlap; solved by the secant
    method started at seed, so it finds the root next to a fit.
    """
    ns = sorted({int(n) for n in n_values})
    with mp.workdps(40):
        g_mp, c = mp.mpf(gap), mp.mpf(coupling)
        targets = [g_mp * _overlap_mp(n, k, 2.0 * coupling) for n in ns]

        def grad(s):
            total = mp.mpf(0)
            for n, target in zip(ns, targets):
                root = mp.sqrt(n + s)
                a = 4 * c * root
                total += (g_mp * mp.besselj(k, a) - target) * mp.besselj(k, a, derivative=1) * 2 * c / root
            return total

        s0, s1 = mp.mpf(seed), mp.mpf(seed) + mp.mpf("1e-7")
        g0, g1 = grad(s0), grad(s1)
        for _ in range(40):
            if g1 == g0 or abs(s1 - s0) < mp.mpf("1e-30"):
                break
            s0, s1 = s1, s1 - g1 * (s1 - s0) / (g1 - g0)
            g0, g1 = g1, grad(s1)
        return float(s1)


def _solve_banded(rows, rhs, width):
    """x with A x = rhs, A given as one {column: value} dict per row and zero
    beyond `width` of its diagonal; Gaussian elimination with partial
    pivoting, which widens the upper band to 2 width."""
    rows, rhs = [dict(row) for row in rows], list(rhs)
    size = len(rows)
    for j in range(size):
        below = range(j, min(size, j + width + 1))
        pivot = max(below, key=lambda i: abs(rows[i].get(j, 0)))
        rows[j], rows[pivot] = rows[pivot], rows[j]
        rhs[j], rhs[pivot] = rhs[pivot], rhs[j]
        for i in below[1:]:
            factor = rows[i].pop(j, 0) / rows[j][j]
            if factor:
                for col, value in rows[j].items():
                    if col > j:
                        rows[i][col] = rows[i].get(col, 0) - factor * value
                rhs[i] -= factor * rhs[j]
    x = [mp.mpf(0)] * size
    for i in reversed(range(size)):
        tail = mp.fsum(value * x[col] for col, value in rows[i].items() if col > i)
        x[i] = (rhs[i] - tail) / rows[i][i]
    return x


def splitting_ref(
    gap: float, bias: float, coupling: float, n: int, k: int, reach: int = 80
) -> float:
    """Eigenvalue gap of the doublet ((up, n+k), (down, n)) at 40 digits.

    The qubit-oscillator Hamiltonian is built on the levels within `reach`
    of the doublet, with up and down interleaved level by level so that it
    is banded with width 2, and gap, bias and coupling taken as exact.  Both
    doublet members have the displaced-oscillator energy n + k/2 - c^2 at
    gap 0, the next eigenvalues lie about 1 away, so numpy's two eigenvalues
    nearest it seed a fixed-shift inverse iteration with a banded LU; each
    eigenvalue is the Rayleigh quotient of the converged vector.
    """
    lo, hi = max(0, n - reach), n + k + reach
    levels = hi - lo + 1
    with mp.workdps(40):
        g, b, c = mp.mpf(gap), mp.mpf(bias), mp.mpf(coupling)
        rows = [{} for _ in range(2 * levels)]
        for i in range(levels):
            m = lo + i
            up, down = 2 * i, 2 * i + 1
            rows[up][up], rows[down][down] = m - b / 2, m + b / 2
            rows[up][down] = rows[down][up] = -g / 2
            if i + 1 < levels:
                ladder = c * mp.sqrt(m + 1)
                rows[up][up + 2] = rows[up + 2][up] = -ladder
                rows[down][down + 2] = rows[down + 2][down] = ladder
        dense = np.zeros((2 * levels, 2 * levels))
        for i, row in enumerate(rows):
            for j, value in row.items():
                dense[i, j] = float(value)
        centre = n + 0.5 * k - coupling * coupling
        seeds = sorted(np.linalg.eigvalsh(dense), key=lambda e: abs(e - centre))[:2]
        energies = []
        for seed in seeds:
            sigma = mp.mpf(seed)
            shifted = [
                {j: v - sigma if i == j else v for j, v in row.items()}
                for i, row in enumerate(rows)
            ]
            x = [mp.mpf(1) + mp.mpf(i) / len(rows) for i in range(len(rows))]
            for _ in range(8):
                x = _solve_banded(shifted, x, 2)
                scale = mp.sqrt(mp.fsum(v * v for v in x))
                x = [v / scale for v in x]
            hx = [mp.fsum(value * x[j] for j, value in row.items()) for row in shifted]
            energies.append(sigma + mp.fsum(u * v for u, v in zip(x, hx)))
        return float(abs(energies[0] - energies[1]))
