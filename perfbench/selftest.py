"""Tests of the benchmark itself; they are not part of the tier-1 suite.

    python3 -m pytest -q perfbench/selftest.py

About a minute on 2 CPUs: one traced job per workload on each of two seeds,
and three short runs of run.py.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import lzsim.spectra
import tracer
import workloads

WORK_COUNTS = (".calls", ".substeps", ".dim", ".mode_samples", ".degree_sum")


def traced_job(workload, params, out):
    layers = tracer.Tracer()
    layers.install()
    try:
        layers.active = True
        result = workload.job(params, out)
    finally:
        layers.active = False
        layers.uninstall()
    return result, dict(layers.counts)


@pytest.fixture(scope="module")
def jobs(tmp_path_factory):
    """One traced job per workload on each of two seeds: (params, result, counts)."""
    out = tmp_path_factory.mktemp("artifacts")
    done = {}
    for name, workload in workloads.WORKLOADS.items():
        for seed in (1, 2):
            params = workload.make_inputs(seed)[0]
            done[name, seed] = (params, *traced_job(workload, params, str(out / f"{name}-{seed}")))
    return done


def test_declared_workloads_are_the_runnable_ones():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    workload = workloads.WORKLOADS[name]
    first = workload.make_inputs(5)
    assert len(first) == workloads.POOL
    assert first == workload.make_inputs(5)
    assert first != workload.make_inputs(6)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_two_seeds_do_identical_work_and_pass(jobs, name):
    counts = {}
    for seed in (1, 2):
        params, result, seen = jobs[name, seed]
        assert workloads.WORKLOADS[name].check(params, result) == []
        counts[seed] = {k: v for k, v in seen.items() if k.endswith(WORK_COUNTS)}
    assert counts[1] == counts[2]
    assert any(counts[1].values())


def _perturbed(name, params, result):
    """Copies of a correct result, each wrong in one way the check must see."""
    if name in ("classical-trace", "quantum-trace"):
        off_start = result["data"].copy()
        off_start[0, 1] -= 0.5
        yield {**result, "data": off_start}
        yield {**result, "freq": result["freq"] + 1.5 * workloads.TWO_PI / 185.0}
    if name == "quantum-trace":
        off_x = result["data"].copy()
        off_x[0, 2] *= 1.0 + 1e-6
        yield {**result, "data": off_x}
    if name == "identity-sweep":
        xi, n, k = params["cells"][0]
        header, data = workloads.read_csv(result["path"])
        data[(xi * (workloads.IDENTITY_N + 1) + n) * (workloads.IDENTITY_K + 1) + k, 3] += 1e-6
        path = result["path"] + ".perturbed"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(",".join(header) + "\n")
            np.savetxt(handle, data, delimiter=",", fmt="%.17g")
        yield {**result, "path": path}
        yield {**result, "rc": 3}
    if name == "rabi-routes":
        cells = result["cells"]
        yield {**result, "cells": [{**cells[0], "split": 1.05 * cells[0]["split"]}, *cells[1:]]}
        rows = list(cells[1]["rows"])
        i = params["rows"][1][0]
        rows[i] = lzsim.spectra.ComparisonRow(
            rows[i].n, rows[i].omega_s, rows[i].omega_q * (1.0 + 1e-6), rows[i].a_eff)
        yield {**result, "cells": [cells[0], {**cells[1], "rows": rows}, *cells[2:]]}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_perturbed_output_fails_its_check(jobs, name):
    params, result, _ = jobs[name, 1]
    check = workloads.WORKLOADS[name].check
    wrong = list(_perturbed(name, params, result))
    assert wrong
    for bad in wrong:
        assert check(params, bad), "a wrong output passed the check"


def test_missing_layer_is_reported_absent():
    layers = tracer.Tracer(tracer.LAYERS + (
        ("output", "sweep_map_removed", "output.sweep_map_removed"),
        ("dynamics", "GoneEvolution.traces", "dynamics.GoneEvolution.traces"),
    ))
    original = lzsim.spectra.bessel_j
    layers.install()
    try:
        layers.active = True
        lzsim.spectra.bessel_laguerre_identity_error(0.05, 10, 2)
    finally:
        layers.active = False
        layers.uninstall()
    assert layers.absent == ["output.sweep_map_removed", "dynamics.GoneEvolution.traces"]
    assert layers.counts["output.sweep_map_removed.calls"] == 0
    assert layers.counts["specfun.bessel_j.calls"] == 1
    assert layers.counts["specfun.assoc_laguerre_scaled.degree_sum"] == 10
    assert lzsim.spectra.bessel_j is original


def _run(cwd, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rabi-routes", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_run_reports_every_declared_metric(trace, key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = _run(ROOT, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in spec[key]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
