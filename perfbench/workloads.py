"""The benchmark's workloads: seeded inputs, the timed job, and its check.

The seed varies physical parameters only, never a grid size, a span or a
matrix dimension, so a job does the same computed work on every seed.  Each
run makes POOL job inputs up front and cycles through them.  Checks run
outside the timed region and compare against references computed here,
independently of the program (mpmath at 60 digits, closed forms, exact
initial values); their tolerances admit rounding-level changes in the
program.  perfbench/README.md gives the reasons for each workload and the
layer-to-metric predictions.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

import lzsim.cli
import lzsim.dynamics
import lzsim.models
import lzsim.spectra

POOL = 64
TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    draw: Callable      # random.Random -> job parameters
    job: Callable       # (parameters, artifact path) -> result
    check: Callable     # (parameters, result) -> list of problems, empty if correct

    def make_inputs(self, seed: int) -> list:
        rng = random.Random(f"{self.name}:{seed}")
        return [self.draw(rng) for _ in range(POOL)]


def read_csv(path):
    """Header and numeric rows of a CSV artifact; '#' metadata lines skipped."""
    with open(path, encoding="utf-8") as handle:
        lines = [line for line in handle.read().splitlines() if not line.startswith("#")]
    return tuple(lines[0].split(",")), np.loadtxt(lines[1:], delimiter=",", ndmin=2)


def _mpmath():
    # imported on first check, after the timed set-up
    import mpmath
    return mpmath


def ref_overlap(n: int, k: int, d: float):
    """<n+k| exp(d (adag - a)) |n> as an mpmath number at 60 digits."""
    mp = _mpmath()
    with mp.workdps(60):
        x = mp.mpf(d) ** 2
        prev, cur = mp.mpf(1), 1 + k - x
        lag = prev if n == 0 else cur
        for m in range(1, n):
            prev, cur = cur, ((2 * m + 1 + k - x) * cur - (m + k) * prev) / (m + 1)
            lag = cur
        return (mp.exp(-x / 2) * mp.mpf(d) ** k
                * mp.sqrt(mp.factorial(n) / mp.factorial(n + k)) * lag)


def ref_bessel(k: int, x: float):
    mp = _mpmath()
    with mp.workdps(60):
        return mp.besselj(k, mp.mpf(x))


def _overlap_float(n: int, k: int, d: float) -> float:
    """Plain-float overlap, good to a few digits; used only to steer inputs."""
    x = d * d
    prev, cur = 1.0, 1.0 + k - x
    lag = prev if n == 0 else cur
    for m in range(1, n):
        prev, cur = cur, ((2 * m + 1 + k - x) * cur - (m + k) * prev) / (m + 1)
        lag = cur
    log_pre = -0.5 * x + k * math.log(d) + 0.5 * (math.lgamma(n + 1) - math.lgamma(n + k + 1))
    return math.exp(log_pre) * lag


def _trace_problems(params, result, header, samples, span, freq_tol):
    """Shared checks of an analysed population trace."""
    if result["rc"] != 0:
        return [f"lzsim exited with code {result['rc']}"]
    data = result["data"]
    if result["header"] != header or data.shape != (samples, len(header)):
        return [f"artifact has header {result['header']} and shape {data.shape}"]
    problems = []
    drift = float(np.max(np.abs(data[:, 0] - np.linspace(0.0, span, samples))))
    if drift > 1e-9 * span:
        problems.append(f"sample times off the grid by {drift:.3g}")
    p = data[:, 1]
    if not (np.all(np.isfinite(p)) and p.min() >= 0.0 and p.max() <= 1.0):
        problems.append(f"populations leave [0, 1]: [{p.min():.3g}, {p.max():.3g}]")
    if abs(p[0] - 1.0) > 1e-9:
        problems.append(f"p_down(0) = {p[0]!r}; the qubit starts down")
    reference = abs(params["gap"] * float(ref_bessel(2, params["amplitude"])))
    miss = abs(result["freq"] - reference)
    if not miss <= freq_tol(reference):
        problems.append(f"dominant frequency {result['freq']:.6g} vs gap*|J_2(a)| "
                        f"{reference:.6g}: off by {miss:.3g} > {freq_tol(reference):.3g}")
    decay = result.get("decay")
    if decay is not None and not (decay.tau > 0.0 and 0.0 <= decay.quality <= 1.0):
        problems.append(f"invalid decay estimate {decay}")
    return problems


def _analysed_trace(argv, out, decay):
    """Run `lzsim evolve`, read the artifact, estimate frequency (and decay)."""
    rc = lzsim.cli.main(argv + ["--out", out])
    if rc != 0:
        return {"rc": rc}
    header, data = read_csv(out)
    trace = lzsim.dynamics.PopulationTrace(data[:, 0], data[:, 1])
    result = {"rc": rc, "header": header, "data": data,
              "freq": lzsim.dynamics.dominant_frequency(trace)}
    if decay:
        result["decay"] = lzsim.dynamics.estimate_decay_time(trace)
    return result


# classical-trace ----------------------------------------------------------
# 200 drive periods at 16 samples per period: about 20 Rabi periods at the
# reference point (gap 0.4, amplitude 10).  The amplitude stays within 0.5
# of the J_2 extremum at 9.97, where gap*J_2(a) is the semiclassical Rabi
# frequency to better than 1.2% (measured); farther out the leading-order
# formula itself drifts past the 2% acceptance tolerance.
# estimate_decay_time is not run here: on this undamped trace it raises
# FitDegenerateError ("only 1 usable envelope points; trace too short")
# whenever the flat envelope peaks in the last half-periods, a program
# defect that failed 1 of 260 jobs measured (gap 0.433491252151831,
# amplitude 9.873665924199525, phase 2.1582021402623273 reproduces it).
CLASSICAL_SPAN = 200 * TWO_PI
CLASSICAL_SAMPLES = 200 * 16 + 1


def _classical_draw(rng):
    return {"gap": rng.uniform(0.35, 0.45), "amplitude": rng.uniform(9.5, 10.5),
            "phase": rng.uniform(0.0, TWO_PI)}


def _classical_job(params, out):
    return _analysed_trace([
        "evolve", "picture=semiclassical", f"gap={params['gap']!r}", "bias=2",
        f"amplitude={params['amplitude']!r}", f"phase={params['phase']!r}",
        f"t-end={CLASSICAL_SPAN!r}", f"samples={CLASSICAL_SAMPLES}",
    ], out, decay=False)


def _classical_check(params, result):
    return _trace_problems(params, result, ("t", "p_down"), CLASSICAL_SAMPLES,
                           CLASSICAL_SPAN, lambda ref: 0.02 * ref)


# quantum-trace ------------------------------------------------------------
# The README's high-occupation run: coherent mean 1000, 185 time units,
# 2000 samples, n-max from the program's own rule.  185 time units hold only
# 1.4 to 3.6 Rabi periods, so the spectral line is located to about one
# frequency bin (2 pi / 185); the frequency check allows the larger of 2%
# and one bin.  The exact start value <x>(0) = sqrt(1000) is checked
# tightly, as is p_down(0) = 1 in both traces.
QUANTUM_MEAN = 1000.0
QUANTUM_SPAN = 185.0
QUANTUM_SAMPLES = 2000


def _quantum_draw(rng):
    amplitude = rng.uniform(9.0, 11.0)
    return {"gap": rng.uniform(0.35, 0.45), "amplitude": amplitude,
            "coupling": amplitude / (4.0 * math.sqrt(QUANTUM_MEAN))}


def _quantum_job(params, out):
    return _analysed_trace([
        "evolve", "picture=quantum", f"gap={params['gap']!r}", "bias=2",
        f"coupling={params['coupling']!r}", "initial=coherent",
        f"mean={QUANTUM_MEAN!r}", "quadrature=true",
        f"t-end={QUANTUM_SPAN!r}", f"samples={QUANTUM_SAMPLES}",
    ], out, decay=True)


def _quantum_check(params, result):
    problems = _trace_problems(
        params, result, ("t", "p_down", "x_mean"), QUANTUM_SAMPLES, QUANTUM_SPAN,
        lambda ref: max(0.02 * ref, TWO_PI / QUANTUM_SPAN))
    if problems:
        return problems
    x = result["data"][:, 2]
    alpha = math.sqrt(QUANTUM_MEAN)
    if not np.all(np.isfinite(x)) or abs(x[0] - alpha) > 1e-9 * alpha:
        problems.append(f"<x>(0) = {x[0]!r}, expected sqrt(1000) = {alpha!r}")
    return problems


# identity-sweep -----------------------------------------------------------
# The README sweep: n over 0:1000 and k over 0:5 at three seed-chosen x,
# 18,018 cells.  A seed-chosen sample of cells is recomputed at 60 digits.
IDENTITY_N = 1000
IDENTITY_K = 5
IDENTITY_SAMPLED = 8
IDENTITY_TOL = 1e-8  # measured worst 9e-11 over 150 random cells


def _identity_draw(rng):
    return {
        "x": sorted(rng.uniform(0.01, 0.1) for _ in range(3)),
        "cells": [(rng.randrange(3), rng.randrange(IDENTITY_N + 1),
                   rng.randrange(IDENTITY_K + 1)) for _ in range(IDENTITY_SAMPLED)],
    }


def _identity_job(params, out):
    rc = lzsim.cli.main([
        "identity-sweep", "x=" + ",".join(repr(x) for x in params["x"]),
        f"n=0:{IDENTITY_N}:1", f"k=0:{IDENTITY_K}:1", "--out", out,
    ])
    return {"rc": rc, "path": out}


def _identity_reference(x: float, n: int, k: int) -> float:
    mp = _mpmath()
    with mp.workdps(60):
        lhs = ref_bessel(k, 4 * mp.mpf(x) * mp.sqrt(n))
        rhs = ref_overlap(n, k, 2.0 * x)
        return float(abs(lhs - rhs) / max(abs(lhs), mp.mpf("1e-3")))


def _identity_check(params, result):
    if result["rc"] != 0:
        return [f"lzsim exited with code {result['rc']}"]
    header, data = read_csv(result["path"])
    expected = np.array([(x, n, k) for x in params["x"] for n in range(IDENTITY_N + 1)
                         for k in range(IDENTITY_K + 1)])
    if header != ("x", "n", "k", "error") or data.shape != (expected.shape[0], 4):
        return [f"artifact has header {header} and shape {data.shape}"]
    problems = []
    if not np.array_equal(data[:, :3], expected):
        problems.append("artifact cells are not the requested (x, n, k) grid")
    if not (np.all(np.isfinite(data[:, 3])) and data[:, 3].min() >= 0.0):
        problems.append("identity errors must be finite and nonnegative")
    for xi, n, k in params["cells"]:
        x = params["x"][xi]
        got = data[(xi * (IDENTITY_N + 1) + n) * (IDENTITY_K + 1) + k, 3]
        want = _identity_reference(x, n, k)
        if not abs(got - want) <= IDENTITY_TOL * max(1.0, want):
            problems.append(f"error at (x={x!r}, n={n}, k={k}) is {got!r}, "
                            f"60-digit reference {want!r}")
    return problems


# rabi-routes --------------------------------------------------------------
# One seed-chosen coupling on the four resonances k = 0, 1, 2, 5 (the cells
# of test_07): both analytic routes over the figure photon grid, the onset
# of agreement, the fitted amplitude shift over n = 100:1000:25, and the
# exact doublet splitting at n = 300.  n_max comes from adequate_n_max at the
# top of the coupling range, so the dense dimension (1014) does not vary
# with the seed.  Couplings whose n = 300 overlap lies within 1e-3 of a zero
# are redrawn: there the second-order level shifts, not the overlap, set the
# splitting, and the 2% comparison has no meaning.
ROUTES_GAP = 0.01
ROUTES_K = (0, 1, 2, 5)
ROUTES_COUPLING = (0.1, 1.0)
ROUTES_FIT_N = range(100, 1001, 25)
ROUTES_SPLIT_N = 300
ROUTES_SAMPLED = 3
ROUTES_TOL = 1e-9  # measured worst 1e-11 over 120 random rows


def _routes_draw(rng):
    while True:
        coupling = rng.uniform(*ROUTES_COUPLING)
        if all(abs(_overlap_float(ROUTES_SPLIT_N, k, 2.0 * coupling)) >= 1e-3 for k in ROUTES_K):
            break
    size = len(lzsim.spectra.figure_photon_grid())
    return {"coupling": coupling,
            "rows": [sorted(rng.sample(range(size), ROUTES_SAMPLED)) for _ in ROUTES_K]}


def _routes_job(params, out):
    coupling = params["coupling"]
    grid = lzsim.spectra.figure_photon_grid()
    cavity = lzsim.models.CavityCoupling(
        coupling, lzsim.models.adequate_n_max(ROUTES_SPLIT_N, ROUTES_COUPLING[1]))
    cells = []
    for k in ROUTES_K:
        qubit = lzsim.models.QubitSpec(ROUTES_GAP, float(k))
        rows = lzsim.spectra.comparison_grid(qubit, coupling, k, grid)
        cells.append({
            "rows": rows,
            "onset": lzsim.spectra.agreement_onset(rows, ROUTES_GAP),
            "fit": lzsim.spectra.fit_amplitude_shift(qubit, coupling, k, ROUTES_FIT_N),
            "split": lzsim.spectra.exact_splitting(qubit, cavity, ROUTES_SPLIT_N, k),
        })
    return {"grid": grid, "cells": cells}


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= ROUTES_TOL * max(abs(want), 1e-3 * ROUTES_GAP)


def _routes_check(params, result):
    c = params["coupling"]
    grid = result["grid"]
    problems = []
    for k, picks, cell in zip(ROUTES_K, params["rows"], result["cells"]):
        rows = cell["rows"]
        if [row.n for row in rows] != grid:
            problems.append(f"k={k}: comparison rows do not follow the photon grid")
            continue
        for i in picks:
            row = rows[i]
            a_eff = 4.0 * c * math.sqrt(row.n)
            omega_s = ROUTES_GAP * float(ref_bessel(k, a_eff))
            omega_q = ROUTES_GAP * float(ref_overlap(row.n, k, 2.0 * c))
            if not (abs(row.a_eff - a_eff) <= 1e-14 * a_eff and _close(row.omega_s, omega_s)
                    and _close(row.omega_q, omega_q)):
                problems.append(f"k={k}, n={row.n}: row ({row.a_eff!r}, {row.omega_s!r}, "
                                f"{row.omega_q!r}) vs reference ({a_eff!r}, {omega_s!r}, {omega_q!r})")
        if cell["onset"] is not None and cell["onset"] not in grid:
            problems.append(f"k={k}: agreement onset {cell['onset']} is not a grid point")
        fit = cell["fit"]
        predicted = 0.5 * k + 0.5 - c * c / 3.0   # the empirical offset law of test_07
        if not (abs(fit.offset - predicted) <= 0.1 and math.isfinite(fit.residual)):
            problems.append(f"k={k}: fitted offset {fit.offset!r} vs predicted {predicted!r}")
        target = abs(ROUTES_GAP * float(ref_overlap(ROUTES_SPLIT_N, k, 2.0 * c)))
        if not abs(cell["split"] - target) <= 0.02 * target:   # test_02's bound
            problems.append(f"k={k}: exact splitting {cell['split']!r} vs |omega_q(300)| {target!r}")
    return problems


WORKLOADS = {w.name: w for w in (
    Workload(
        "classical-trace",
        "CF4 stepping in propagate_semiclassical does nearly all the work; no eigh, "
        "almost no special functions",
        _classical_draw, _classical_job, _classical_check),
    Workload(
        "quantum-trace",
        "dense eigh at dim 2678 plus trace synthesis, the largest memory footprint; "
        "where a Fock window or mode pruning acts",
        _quantum_draw, _quantum_job, _quantum_check),
    Workload(
        "identity-sweep",
        "18,018 scalar Laguerre/Bessel cells, where grid kernels act; the only "
        "workload with visible output serialisation",
        _identity_draw, _identity_job, _identity_check),
    Workload(
        "rabi-routes",
        "scattered large-argument bessel_j, a mid-size eigh for overlaps, grwa_state "
        "and exact_splitting: shared layers used differently",
        _routes_draw, _routes_job, _routes_check),
)}


# The README's example run of each subcommand, timed once per traced run.
SUBCOMMANDS = (
    ("rabi-freq", ["coupling=0.1", "k=2", "n=figure", "gap=0.01"], "csv"),
    ("evolve", ["picture=semiclassical", "gap=0.4", "bias=2", "amplitude=10",
                "t-end=185", "samples=2000"], "json"),
    ("fit-shift", ["coupling=1.0", "k=2", "n=100:1000:25", "gap=0.01"], "csv"),
    ("bessel-approx", ["k=0,2,5", "x=1:30:0.25"], "csv"),
    ("identity-sweep", ["x=0.01,0.05,0.1", "n=0:1000:1", "k=0:5:1"], "csv"),
)


def artifact_problems(path, fmt) -> list:
    """Whether an artifact parses into a non-empty rectangular table."""
    try:
        if fmt == "json":
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
            header, rows = payload["header"], payload["rows"]
            ok = rows and all(len(row) == len(header) for row in rows)
        else:
            header, data = read_csv(path)
            ok = data.shape[0] > 0 and data.shape[1] == len(header)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"artifact {path} does not parse: {exc}"]
    return [] if ok else [f"artifact {path} does not hold a {fmt} table"]
