import csv
import io
import json
import math

import pytest

from lzsim import QubitSpec, comparison_grid
from lzsim.cli import main
from lzsim.config import (
    ConfigError,
    RunConfig,
    parse_bool,
    parse_float,
    parse_float_list,
    parse_int,
    parse_int_list,
    read_config_file,
    resolve,
)
from lzsim.output import OutputTable, write_table


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    meta = {}
    body = []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            meta[key] = value
        elif line:
            body.append(line)
    rows = list(csv.reader(io.StringIO("\n".join(body))))
    return meta, rows[0], rows[1:]


# ------------------------------------------------------------- value parsing


def test_parse_bool():
    for word in ("true", "YES", "on", "1"):
        assert parse_bool(word) is True
    for word in ("false", "No", "off", "0"):
        assert parse_bool(word) is False
    with pytest.raises(ValueError):
        parse_bool("maybe")


def test_parse_float():
    assert parse_float(" 1e3 ") == 1000.0
    for bad in ("abc", "inf", "nan"):
        with pytest.raises(ValueError):
            parse_float(bad)


def test_parse_int():
    assert parse_int("5") == 5
    assert parse_int("5.0") == 5
    with pytest.raises(ValueError):
        parse_int("5.5")


def test_parse_float_list():
    assert parse_float_list("0.5") == [0.5]
    assert parse_float_list("0.1, 1, 3") == [0.1, 1.0, 3.0]
    assert parse_float_list("0:1:0.25") == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert parse_float_list("0:0.3:0.1") == pytest.approx([0.0, 0.1, 0.2, 0.3])
    assert parse_float_list("2:2:0.5") == [2.0]
    with pytest.raises(ValueError):
        parse_float_list("1:0:0.5")  # stop below start
    with pytest.raises(ValueError):
        parse_float_list("0:1:0")  # step must be positive
    with pytest.raises(ValueError):
        parse_float_list("0:1")  # malformed range
    assert len(parse_float_list("0:1000000:1")) == 1_000_001  # the longest range
    for runaway in ("0:1e300:1e-300", "0:1e12:1", "0:1000001:1"):
        with pytest.raises(ValueError, match="has more than 1000001 values"):
            parse_float_list(runaway)  # refused before any list is built


def test_parse_int_list():
    assert parse_int_list("7") == [7]
    assert parse_int_list("1,2,3") == [1, 2, 3]
    assert parse_int_list("0:10:5") == [0, 5, 10]
    assert parse_int_list("0:10:3") == [0, 3, 6, 9]
    with pytest.raises(ValueError):
        parse_int_list("0:10:2.5")


def test_read_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# a comment\n"
        "gap = 0.01\n"
        "\n"
        "k = 1   # trailing comment\n"
        "k = 2\n"
    )
    raw = read_config_file(str(cfg))
    assert raw == {"gap": "0.01", "k": "2"}  # later duplicate wins

    bad = tmp_path / "bad.cfg"
    bad.write_text("gap 0.01\n")
    with pytest.raises(ConfigError) as err:
        read_config_file(str(bad))
    assert f"{bad}:1" in str(err.value)


def test_run_config_echo():
    cfg = RunConfig(
        command="demo",
        parameters={"b": 2.5, "a": True, "list": [1.0, 2.0], "skip": None},
    )
    echoed = cfg.echo()
    assert list(echoed) == ["command", "a", "b", "list"]  # None values dropped
    assert echoed["command"] == "demo"
    assert echoed["a"] == "true"
    assert echoed["b"] == "2.5"
    assert echoed["list"] == "1,2"


# -------------------------------------------------------------- resolution


def test_resolve_rabi_freq_defaults():
    cfg = resolve("rabi-freq", {"coupling": "0.1", "k": "0", "n": "0,5"})
    assert cfg.parameters["gap"] == 0.01
    assert cfg.parameters["shift"] == 0.0
    assert cfg.parameters["n"] == [0, 5]


def test_resolve_rabi_freq_figure_keyword():
    cfg = resolve("rabi-freq", {"coupling": "0.1", "k": "0", "n": "figure"})
    assert cfg.parameters["n"] == "figure"


def test_resolve_collects_every_problem():
    with pytest.raises(ConfigError) as err:
        resolve("rabi-freq", {"k": "-1", "n": "0", "mystery": "1"})
    text = [p for p in err.value.problems]
    assert len(text) == 3  # missing coupling, bad k, unknown key
    assert all(p.startswith("rabi-freq: ") for p in text)
    assert any("coupling" in p for p in text)
    assert any("mystery" in p for p in text)


def test_resolve_evolve_pictures():
    base = {"gap": "0.4", "bias": "2", "t-end": "10", "samples": "11"}
    semi = resolve("evolve", dict(base, picture="semiclassical", amplitude="10"))
    assert semi.parameters["steps-per-period"] == 4096
    assert semi.parameters["phase"] == 0.0

    quant = resolve(
        "evolve",
        dict(base, picture="quantum", coupling="0.25", initial="coherent", mean="100"),
    )
    assert quant.parameters["n-max"] is None
    assert quant.parameters["quadrature"] is False

    with pytest.raises(ConfigError) as err:
        resolve("evolve", dict(base, picture="semiclassical", coupling="0.25"))
    assert any("coupling" in p for p in err.value.problems)  # quantum-only key

    # an invalid picture reports once, not as a cascade of unknown keys
    with pytest.raises(ConfigError) as err:
        resolve("evolve", dict(base, picture="classical", amplitude="10"))
    assert len(err.value.problems) == 1


def test_resolve_fock_needs_index():
    base = {
        "gap": "0.4", "bias": "2", "t-end": "10", "samples": "11",
        "picture": "quantum", "coupling": "0.25", "initial": "fock",
    }
    with pytest.raises(ConfigError) as err:
        resolve("evolve", dict(base))
    assert any("'m'" in p for p in err.value.problems)
    cfg = resolve("evolve", dict(base, m="100"))
    assert cfg.parameters["m"] == 100


def test_resolve_screens_signs():
    with pytest.raises(ConfigError):
        resolve("bessel-approx", {"k": "0", "x": "-1"})
    with pytest.raises(ConfigError):
        resolve("identity-sweep", {"x": "0.1", "n": "-3", "k": "0"})
    with pytest.raises(ConfigError):
        resolve("fit-shift", {"coupling": "0", "k": "0", "n": "1"})


# ------------------------------------------------------------------ output


def test_output_table_arity_check():
    with pytest.raises(ValueError) as err:
        OutputTable(("a", "b"), [(1.0, 2.0), (3.0,)], {})
    assert "row 1 has 1 fields, header has 2" in str(err.value)


def test_write_csv_and_json_round_trip(tmp_path):
    table = OutputTable(
        ("x", "y"),
        [(0.1, math.nan), (2.0, -3.5)],
        {"command": "demo", "note": "hi"},
    )
    csv_path = tmp_path / "t.csv"
    write_table(table, str(csv_path), "csv")
    meta, header, rows = parse_csv(csv_path.read_text())
    assert meta == {"command": "demo", "note": "hi"}
    assert header == ["x", "y"]
    assert rows[0][1] == "nan"
    assert float(rows[1][0]) == 2.0

    json_path = tmp_path / "t.json"
    write_table(table, str(json_path), "json")
    doc = json.loads(json_path.read_text())
    assert doc["header"] == ["x", "y"]
    assert doc["rows"][0][1] is None  # non-finite cells become null
    assert doc["rows"][1] == [2.0, -3.5]
    assert doc["metadata"]["note"] == "hi"


# ----------------------------------------------------------- CLI end-to-end


def test_rabi_freq_stdout(capsys):
    code, out, err = run_cli(
        capsys, "rabi-freq", "coupling=0.1", "k=0", "n=0,4", "gap=0.01"
    )
    assert code == 0 and err == ""
    meta, header, rows = parse_csv(out)
    assert meta["command"] == "rabi-freq"
    assert "workers" not in meta
    assert "wall-time-s" in meta
    assert header == ["n", "omega_s", "omega_q", "a_eff"]
    ref = comparison_grid(QubitSpec(0.01, 0.0), 0.1, 0, [0, 4])
    for row, expect in zip(rows, ref):
        assert float(row[0]) == expect.n
        assert float(row[1]) == expect.omega_s  # 17 digits round-trip exactly
        assert float(row[2]) == expect.omega_q
        assert float(row[3]) == expect.a_eff


def test_rabi_freq_figure_grid(capsys):
    code, out, _ = run_cli(capsys, "rabi-freq", "coupling=0.1", "k=1", "n=figure")
    assert code == 0
    meta, _, rows = parse_csv(out)
    assert meta["n"] == "figure"
    assert len(rows) == 65


def test_rabi_freq_shift_guard(capsys):
    code, _, err = run_cli(
        capsys, "rabi-freq", "coupling=0.1", "k=0", "n=0,4", "shift=-1"
    )
    assert code == 2
    assert "shift" in err


def test_evolve_semiclassical_to_file(tmp_path, capsys):
    out_path = tmp_path / "trace.csv"
    code, out, err = run_cli(
        capsys, "evolve", "picture=semiclassical", "gap=0.3", "bias=0",
        "amplitude=0", "t-end=20", "samples=41", "--out", str(out_path),
    )
    assert code == 0 and out == "" and err == ""
    meta, header, rows = parse_csv(out_path.read_text())
    assert header == ["t", "p_down"]
    assert meta["command"] == "evolve"
    assert meta["out"] == str(out_path)
    assert float(rows[0][0]) == 0.0 and float(rows[-1][0]) == 20.0
    # undriven: p_down(t) = cos^2(gap t / 2)
    for t_text, p_text in rows:
        assert float(p_text) == pytest.approx(
            math.cos(0.15 * float(t_text)) ** 2, abs=1e-9
        )


def test_evolve_quantum_json_with_quadrature(capsys):
    code, out, err = run_cli(
        capsys, "evolve", "picture=quantum", "gap=0.0", "bias=0.8",
        "coupling=0.5", "initial=coherent", "mean=4", "quadrature=true",
        "t-end=12.5", "samples=26", "--format", "json",
    )
    assert code == 0, err
    doc = json.loads(out)
    assert doc["header"] == ["t", "p_down", "x_mean"]
    assert doc["metadata"]["picture"] == "quantum"
    assert int(doc["metadata"]["n-max"]) > 4  # derived cutoff is echoed
    # decoupled sigma_z: population pinned at 1; quadrature swings around -c
    assert all(row[1] == pytest.approx(1.0, abs=1e-9) for row in doc["rows"])
    assert min(row[2] for row in doc["rows"]) < 0.0


def test_evolve_explicit_n_max_echoed(capsys):
    code, out, _ = run_cli(
        capsys, "evolve", "picture=quantum", "gap=0.1", "bias=0",
        "coupling=0.1", "initial=fock", "m=3", "n-max=25",
        "t-end=5", "samples=6",
    )
    assert code == 0
    meta, _, _ = parse_csv(out)
    assert meta["n-max"] == "25"


def test_evolve_numerical_failure_names_parameters(capsys):
    code, out, err = run_cli(
        capsys, "evolve", "picture=quantum", "gap=0.4", "bias=2",
        "coupling=0.1", "initial=fock", "m=50", "n-max=50",
        "t-end=10", "samples=11",
    )
    assert code == 3 and out == ""
    assert err.startswith("lzsim: numerical failure:")
    assert "initial=fock" in err and "n-max=50" in err


def test_evolve_window_metadata(capsys):
    # mean 400 at c = 0.01: window floor(180) - 1 .. ceil(620) + 1
    code, out, _ = run_cli(
        capsys, "evolve", "picture=quantum", "gap=0.4", "bias=2",
        "coupling=0.01", "initial=coherent", "mean=400", "t-end=2", "samples=3",
    )
    assert code == 0
    meta, _, rows = parse_csv(out)
    assert (meta["n-min"], meta["n-max"]) == ("179", "621")
    assert float(rows[0][1]) == pytest.approx(1.0, abs=1e-12)
    # n-min stays below an explicit n-max, whatever the rule gives
    code, out, err = run_cli(
        capsys, "evolve", "picture=quantum", "gap=0.4", "bias=2",
        "coupling=0.01", "initial=coherent", "mean=400", "n-max=150",
        "t-end=2", "samples=3",
    )
    assert code == 3 and "n-min=149, n-max=150" in err


def test_library_input_error_is_a_config_error(capsys):
    # the key checks cannot see that m lies above an explicit n-max; the
    # library's ValueError still ends as exit 2, naming the argument
    code, out, err = run_cli(
        capsys, "evolve", "picture=quantum", "gap=0.4", "bias=2", "coupling=0.25",
        "initial=fock", "m=50", "n-max=10", "t-end=1", "samples=3",
    )
    assert code == 2 and out == ""
    assert err == "lzsim: config error: evolve: m must be an integer in [0, 10], got m=50\n"


def test_evolve_refuses_a_diagonalisation_beyond_memory(capsys, monkeypatch):
    # mean 1e6 needs a window of dimension 40,094: about 64 GB for eigh.
    # The guard must fire before the evolution or the coherent state
    # allocates anything.  The memory reading is capped at 32 GiB so that
    # a host with more would still refuse rather than start the run.
    import tracemalloc

    import lzsim.models

    real = lzsim.models._physical_memory()
    cap = 32 * 2**30
    monkeypatch.setattr(
        lzsim.models, "_physical_memory", lambda: cap if real is None else min(real, cap)
    )
    tracemalloc.start()
    try:
        code, out, err = run_cli(
            capsys, "evolve", "picture=quantum", "gap=0.4", "bias=2",
            "coupling=0.25", "initial=coherent", "mean=1e6", "t-end=10", "samples=11",
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and out == ""
    assert err.startswith("lzsim: numerical failure:")
    assert "dimension 40094" in err and "bytes of physical memory" in err
    assert peak < 16 * 2**20


def test_missing_keys_reported_one_line_each(capsys):
    code, _, err = run_cli(capsys, "evolve", "picture=semiclassical")
    assert code == 2
    lines = [l for l in err.splitlines() if l]
    assert len(lines) >= 4  # gap, bias, t-end, samples, amplitude
    assert all(l.startswith("lzsim: config error: evolve: ") for l in lines)


def test_malformed_override(capsys):
    code, _, err = run_cli(capsys, "rabi-freq", "coupling")
    assert code == 2
    assert "key=value" in err


def test_non_numeric_value(capsys):
    code, out, err = run_cli(capsys, "rabi-freq", "coupling=0.1", "k=0", "n=0", "gap=abc")
    assert code == 2 and out == ""
    assert err == "lzsim: config error: rabi-freq: key 'gap': expected a number, got 'abc'\n"


def test_runaway_range(capsys):
    code, out, err = run_cli(capsys, "identity-sweep", "x=0.1", "n=0:1e12:1", "k=0")
    assert code == 2 and out == ""
    assert "key 'n': range '0:1e12:1' has more than 1000001 values" in err


def test_identity_sweep_refuses_its_last_column_before_any_work(capsys, monkeypatch):
    # k = 0 is in range up to n = 10**6, k = 1 is not: the whole grid is
    # checked before the first Laguerre pass or Bessel call
    def no_work(*args):
        raise AssertionError(f"work started before the index check: {args[:2]}")

    monkeypatch.setattr("lzsim.specfun._laguerre_scaled_pass", no_work)
    monkeypatch.setattr("lzsim.spectra.bessel_j", no_work)
    code, out, err = run_cli(capsys, "identity-sweep", "x=0.1", "n=0:1000000:1", "k=0:1:1")
    assert code == 2 and out == ""
    assert "n+k=1000001 above supported range 1000000" in err


def test_config_file_with_unknown_format(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("coupling = 0.1\nk = 0\nn = 0\nformat = xml\n")
    code, out, err = run_cli(capsys, "rabi-freq", "--config", str(cfg))
    assert code == 2 and out == ""
    assert err == "lzsim: config error: format must be csv or json, got 'xml'\n"


def test_config_file_with_overrides(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("coupling = 0.1\nk = 0\nn = 0,4\ngap = 0.01\n")
    code, out, _ = run_cli(
        capsys, "rabi-freq", "k=2", "--config", str(cfg)
    )
    assert code == 0
    meta, _, _ = parse_csv(out)
    assert meta["k"] == "2"  # override beats the file entry


def test_flags_shadow_file_output_keys(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    file_target = tmp_path / "from_file.json"
    cfg.write_text(
        f"coupling = 0.1\nk = 0\nn = 0\nout = {file_target}\nformat = json\n"
    )
    flag_target = tmp_path / "from_flag.csv"
    code, out, err = run_cli(
        capsys, "rabi-freq", "--config", str(cfg),
        "--out", str(flag_target), "--format", "csv",
    )
    assert code == 0, err
    assert not file_target.exists()
    meta, _, _ = parse_csv(flag_target.read_text())
    assert meta["format"] == "csv"
    assert meta["out"] == str(flag_target)


def test_file_output_keys_used_without_flags(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    target = tmp_path / "artifact.json"
    cfg.write_text(f"coupling = 0.1\nk = 0\nn = 0\nout = {target}\nformat = json\n")
    code, out, _ = run_cli(capsys, "rabi-freq", "--config", str(cfg))
    assert code == 0 and out == ""
    doc = json.loads(target.read_text())
    assert doc["metadata"]["format"] == "json"


def test_identity_sweep_values(capsys):
    code, out, _ = run_cli(
        capsys, "identity-sweep", "x=0.1", "n=100", "k=0,1", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["header"] == ["x", "n", "k", "error"]
    from lzsim import bessel_laguerre_identity_error

    for row in doc["rows"]:
        assert row[3] == pytest.approx(
            bessel_laguerre_identity_error(row[0], int(row[1]), int(row[2])), rel=1e-15
        )


def test_bessel_approx_sentinels(capsys):
    code, out, _ = run_cli(
        capsys, "bessel-approx", "k=2", "x=1,4", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    below, above = doc["rows"]
    assert below[1] == 1.0
    assert below[4] is None and below[5] is None  # x <= k: no turning point
    assert below[7] is None and below[8] is None
    assert above[4] is not None


def test_fit_shift_run(capsys):
    code, out, _ = run_cli(
        capsys, "fit-shift", "coupling=0.1", "k=0,1", "n=100:1000:100",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["header"] == ["coupling", "k", "offset", "residual", "predicted"]
    assert len(doc["rows"]) == 2
    for row in doc["rows"]:
        assert abs(row[2] - row[4]) < 0.1  # fit lands near the prediction


def test_fit_shift_marks_a_flat_cell(capsys):
    # at gap 1e-12 the objective is flat: the cell holds NaN, the run succeeds
    code, out, _ = run_cli(capsys, "fit-shift", "coupling=0.1", "k=0", "n=100", "gap=1e-12")
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header == ["coupling", "k", "offset", "residual", "predicted"]
    (row,) = rows
    assert math.isnan(float(row[2])) and math.isnan(float(row[3]))
    assert float(row[4]) == pytest.approx(0.5 - 0.01 / 3.0, rel=1e-14)


def test_deterministic_artifacts(tmp_path, capsys):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        code, _, _ = run_cli(
            capsys, "rabi-freq", "coupling=0.1", "k=0", "n=0:50:5",
            "--out", str(path),
        )
        assert code == 0

    def stripped(path):
        return [
            line for line in path.read_text().splitlines()
            if not (line.startswith("# wall-time-s") or line.startswith("# out"))
        ]

    assert stripped(paths[0]) == stripped(paths[1])


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["--version"])
    assert stop.value.code == 0
    from lzsim import __version__

    assert __version__ in capsys.readouterr().out


def test_resolve_invalid_initial_drops_its_dependents():
    raw = {
        "gap": "0.4", "bias": "2", "t-end": "10", "samples": "11",
        "picture": "quantum", "coupling": "0.25", "initial": "bogus",
        "mean": "100", "m": "3",
    }
    with pytest.raises(ConfigError) as err:
        resolve("evolve", raw)
    assert err.value.problems == [
        "evolve: key 'initial': expected one of coherent/fock, got bogus"
    ]


# every key resolve accepts, by command
ACCEPTED_KEYS = {
    "rabi-freq": {"coupling", "k", "n", "gap", "shift"},
    "evolve": {
        "picture", "gap", "bias", "t-end", "samples", "amplitude", "phase",
        "steps-per-period", "coupling", "initial", "mean", "m", "n-max", "quadrature",
    },
    "fit-shift": {"coupling", "k", "n", "gap"},
    "bessel-approx": {"k", "x"},
    "identity-sweep": {"x", "n", "k"},
}


@pytest.mark.parametrize("command", sorted(ACCEPTED_KEYS))
def test_help_lists_every_key(capsys, command):
    with pytest.raises(SystemExit) as stop:
        main([command, "--help"])
    assert stop.value.code == 0
    text = capsys.readouterr().out
    # the key lines run from "keys:" to the next blank line
    block = text[text.index("\nkeys: ") + 1:].split("\n\n")[0]
    listed = set()
    for line in block.splitlines():
        for item in line.partition(": ")[2].split(", "):
            listed.add(item.strip("[]").partition("=")[0])
    assert listed == ACCEPTED_KEYS[command]


def _one_config_error(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("lzsim: config error: ")
    return err


def test_missing_config_file_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "absent.cfg"
    err = _one_config_error(capsys, "rabi-freq", "--config", str(path))
    assert err == f"lzsim: config error: cannot read {path}: No such file or directory\n"


def test_config_path_that_is_a_directory_is_a_config_error(tmp_path, capsys):
    err = _one_config_error(capsys, "rabi-freq", "--config", str(tmp_path))
    assert err == f"lzsim: config error: cannot read {tmp_path}: Is a directory\n"


def test_config_file_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(b"coupling = 0.1\nk = 0 # \xe9\nn = 0\n")
    err = _one_config_error(capsys, "rabi-freq", "--config", str(path))
    assert err.startswith(f"lzsim: config error: cannot read {path}: 'utf-8' codec")


def test_unwritable_out_path_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "no-such-dir" / "x.csv"
    err = _one_config_error(
        capsys, "rabi-freq", "coupling=0.1", "k=0", "n=0", "--out", str(path)
    )
    assert err == f"lzsim: config error: cannot write {path}: No such file or directory\n"
    assert not path.parent.exists()
