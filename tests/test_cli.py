import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fbmwalk.cli
from fbmwalk.cli import _CSV_CHUNK, _parse_path_lines, _read_path_csv, _write_path_csv, main
from fbmwalk.validate import Check


def run(argv):
    return main([str(a) for a in argv])


# ---------------------------------------------------------------- generate


def test_generate_csv_schema(tmp_path):
    out = tmp_path / "p.csv"
    code = run(["generate", "--hurst", 0.7, "--steps", 256, "--paths", 8, "--seed", 1, "--out", out])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,value"
    assert lines[1] == "0,0.0"
    assert len(lines) == 258  # header + N + 1 points
    meta = json.loads((tmp_path / "p.csv.meta.json").read_text())
    assert meta["hurst"] == 0.7
    assert meta["steps"] == 256
    assert meta["paths"] == 8
    assert meta["seed"] == 1
    assert meta["mode"] == "paper"
    assert meta["stream_version"] == 8
    assert "resample_total" in meta and "wall_time_s" in meta


def test_generate_reproducible_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert run(["generate", "--hurst", 0.7, "--steps", 128, "--paths", 6, "--seed", 5, "--out", out]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_generate_worker_invariant_bytes(tmp_path):
    outs = []
    for w in (1, 2, 8):
        out = tmp_path / f"w{w}.csv"
        assert run(
            ["generate", "--hurst", 0.7, "--steps", 128, "--paths", 10, "--seed", 3, "--workers", w, "--out", out]
        ) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_generate_walk_telemetry_worker_invariant(tmp_path):
    # flip counts and the spread of p and keep are fixed by (config, seed); timings are not
    sidecars = []
    for w in (1, 2):
        out = tmp_path / f"w{w}.csv"
        assert run(
            ["generate", "--hurst", 0.7, "--steps", 300, "--paths", 70, "--seed", 4, "--workers", w, "--out", out]
        ) == 0
        sidecars.append(json.loads((tmp_path / f"w{w}.csv.meta.json").read_text()))
    fields = ("flips_total", "flips_per_path", "p", "keep")
    assert [{k: s[k] for k in fields} for s in sidecars] == [{k: sidecars[0][k] for k in fields}] * 2
    assert sidecars[0]["flips_total"] > 0
    assert set(sidecars[0]["p"]) == {"min", "median", "max"}
    assert all(s["params_s"] > 0 and s["walk_s"] > 0 for s in sidecars)


def test_generate_enriquez_near_one_hurst(tmp_path):
    # at H = 0.999 most drawn persistences round to 1, where the walk never flips
    out = tmp_path / "e.csv"
    argv = ["generate", "--hurst", 0.999, "--mode", "enriquez", "--steps", 4096, "--paths", 64, "--out", out]
    assert run(argv) == 0
    values = [float(line.split(",")[1]) for line in out.read_text().splitlines()[1:]]
    assert len(values) == 4097 and all(math.isfinite(v) for v in values)
    meta = json.loads((tmp_path / "e.csv.meta.json").read_text())
    assert meta["keep"]["max"] == 1.0 and meta["flips_per_path"]["min"] == 0


def test_generate_gaussian_oracle_schema(tmp_path):
    out = tmp_path / "g.csv"
    assert run(["generate", "--hurst", 0.85, "--steps", 512, "--mode", "gaussian-oracle", "--seed", 2, "--out", out]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,value"
    assert lines[1] == "0,0.0"
    assert len(lines) == 514
    meta = json.loads((tmp_path / "g.csv.meta.json").read_text())
    assert meta["stream_version"] == 8


def test_generate_oracle_sidecar_omits_walk_options(tmp_path):
    # the oracle aggregates no walks: its sidecar records no walk count
    out = tmp_path / "g.csv"
    argv = ["generate", "--hurst", 0.7, "--steps", 64, "--mode", "gaussian-oracle", "--out", out]
    assert run([*argv, "--paths", 7]) == 0
    meta = json.loads((tmp_path / "g.csv.meta.json").read_text())
    assert "paths" not in meta


def test_generate_json_format(tmp_path):
    out = tmp_path / "p.json"
    assert run(["generate", "--hurst", 0.7, "--steps", 64, "--paths", 4, "--seed", 1, "--out", out, "--format", "json"]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["t"]) == 65 and len(doc["value"]) == 65
    assert doc["value"][0] == 0.0


def test_generate_sidecar_records_write_time(tmp_path):
    for fmt in ("csv", "json"):
        out = tmp_path / f"p.{fmt}"
        argv = ["generate", "--hurst", 0.7, "--steps", 64, "--paths", 4, "--out", out, "--format", fmt]
        assert run(argv) == 0
        meta = json.loads((tmp_path / f"p.{fmt}.meta.json").read_text())
        assert meta["write_s"] >= 0.0, fmt


def test_generate_raw_levels_flag(tmp_path):
    out = tmp_path / "raw.csv"
    assert run(["generate", "--hurst", 0.7, "--steps", 32, "--paths", 4, "--seed", 1, "--out", out, "--raw-levels"]) == 0
    first_rows = [l.split(",")[0] for l in out.read_text().splitlines()[1:5]]
    assert first_rows == ["0", "1", "2", "3"]


def test_chunked_csv_writer_matches_row_format(tmp_path):
    # the rows the writer made before it wrote in chunks, one f-string per row
    n = 2 * _CSV_CHUNK + 7
    rng = np.random.default_rng(4)
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    values[[0, 1, _CSV_CHUNK - 1, _CSV_CHUNK, n - 1]] = [-0.0, 5e-324, 1e16, -1e16, 0.1]
    times = np.arange(n, dtype=np.float64) / (n - 1)
    rows = "".join(f"{t:.12g},{float(v)!r}\n" for t, v in zip(times, values))
    out = tmp_path / "chunked.csv"
    _write_path_csv(str(out), times, values)
    assert out.read_text() == "t,value\n" + rows


def test_generate_out_is_a_directory(tmp_path, capsys):
    assert run(["generate", "--hurst", 0.7, "--steps", 64, "--paths", 4, "--out", tmp_path]) == 2
    assert "error: config:" in capsys.readouterr().err


def test_generate_config_errors(tmp_path):
    out = tmp_path / "x.csv"
    assert run(["generate", "--hurst", 0.49, "--steps", 64, "--paths", 4, "--out", out]) == 2
    assert run(["generate", "--hurst", 0.7, "--steps", 1, "--paths", 4, "--out", out]) == 2
    assert run(["generate", "--hurst", 0.7, "--steps", 0, "--mode", "gaussian-oracle", "--out", out]) == 2
    for mode in ("paper", "gaussian-oracle"):
        for workers in (0, -3):
            argv = ["--mode", mode, "--paths", 4, "--workers", workers]
            assert run(["generate", "--hurst", 0.7, "--steps", 64, *argv, "--out", out]) == 2
        assert run(["generate", "--hurst", 0.7, "--steps", 64, "--mode", mode, "--paths", 0, "--out", out]) == 2
    assert not out.exists()


def test_oracle_runs_at_paper_scale(tmp_path):
    out = tmp_path / "o.csv"
    argv = ["generate", "--hurst", 0.7, "--steps", 100_000, "--mode", "gaussian-oracle", "--out", out]
    assert run(argv) == 0
    values = np.loadtxt(out, delimiter=",", skiprows=1)
    assert values.shape == (100_001, 2)
    assert np.all(np.isfinite(values))


def test_oracle_negative_eigenvalue_is_a_numeric_error(tmp_path, capsys):
    # at H this close to 1 the embedding's smallest eigenvalue rounds below zero
    out = tmp_path / "o.csv"
    argv = ["generate", "--hurst", 0.999999999, "--steps", 1 << 20, "--mode", "gaussian-oracle", "--out", out]
    assert run(argv) == 3
    assert "error: numeric: fGn circulant embedding" in capsys.readouterr().err
    assert not out.exists()


def test_oracle_factors_once_through_module_global(tmp_path, monkeypatch):
    # the benchmark's layer trace times the factor by wrapping this global
    import fbmwalk.gaussian

    calls = []
    factor = fbmwalk.gaussian.fgn_cholesky_factor

    def counted(*args, **kwargs):
        calls.append(args)
        return factor(*args, **kwargs)

    monkeypatch.setattr(fbmwalk.gaussian, "fgn_cholesky_factor", counted)
    out = tmp_path / "o.csv"
    assert run(["generate", "--hurst", 0.7, "--steps", 64, "--mode", "gaussian-oracle", "--out", out]) == 0
    assert len(calls) == 1


# ---------------------------------------------------------------- estimate


def test_estimate_roundtrip_text(tmp_path, capsys):
    out = tmp_path / "p.csv"
    run(["generate", "--hurst", 0.7, "--steps", 512, "--paths", 16, "--seed", 4, "--out", out])
    capsys.readouterr()
    assert run(["estimate", "--input", out]) == 0
    text = capsys.readouterr().out
    assert "h_dsod" in text and "h_aggvar" in text and "acf[ 1]" in text


def test_estimate_json(tmp_path, capsys):
    out = tmp_path / "p.csv"
    run(["generate", "--hurst", 0.7, "--steps", 512, "--paths", 16, "--seed", 4, "--out", out])
    capsys.readouterr()
    assert run(["estimate", "--input", out, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) >= {"h_dsod", "h_aggvar", "acf", "n_used"}
    assert len(doc["acf"]) == 10


def test_estimate_oracle_path_near_h(tmp_path, capsys):
    out = tmp_path / "g.csv"
    run(["generate", "--hurst", 0.85, "--steps", 4096, "--mode", "gaussian-oracle", "--seed", 6, "--out", out])
    capsys.readouterr()
    assert run(["estimate", "--input", out, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["h_dsod"] - 0.85) <= 0.1  # single realisation, wide bound


def test_estimate_short_file_is_numeric_error(tmp_path):
    f = tmp_path / "short.csv"
    f.write_text("t,value\n" + "\n".join(f"{i},{i}.0" for i in range(10)) + "\n")
    assert run(["estimate", "--input", f]) == 3


def test_estimate_parse_error_with_line(tmp_path, capsys):
    f = tmp_path / "bad.csv"
    for bad in ("not-a-number", "nan", "inf", "-inf"):
        f.write_text(f"t,value\n0,0.0\n1,{bad}\n")
        assert run(["estimate", "--input", f]) == 2, bad
        err = capsys.readouterr().err
        assert "bad.csv:3" in err, bad


def test_estimate_missing_file(tmp_path):
    assert run(["estimate", "--input", tmp_path / "absent.csv"]) == 2


def test_estimate_input_is_a_directory(tmp_path, capsys):
    assert run(["estimate", "--input", tmp_path]) == 2
    assert "error: config:" in capsys.readouterr().err


def test_estimate_wrong_header(tmp_path, capsys):
    f = tmp_path / "header.csv"
    f.write_text("time,level\n0,0.0\n")
    assert run(["estimate", "--input", f]) == 2
    assert f"{f}:1: expected header" in capsys.readouterr().err


def test_estimate_zero_lags(tmp_path, capsys):
    out = tmp_path / "p.csv"
    run(["generate", "--hurst", 0.7, "--steps", 512, "--paths", 16, "--seed", 4, "--out", out])
    capsys.readouterr()
    assert run(["estimate", "--input", out, "--lags", 0]) == 2
    assert "max_lag must be >= 1" in capsys.readouterr().err


def test_csv_roundtrip_never_errors(tmp_path):
    for n in (256, 513, 1000):
        out = tmp_path / f"r{n}.csv"
        assert run(["generate", "--hurst", 0.6, "--steps", n, "--paths", 4, "--seed", n, "--out", out]) == 0
        assert run(["estimate", "--input", out]) == 0


# ---------------------------------------------------------------- CSV reader


def _outcome(read, path):
    """A reader's values as int64 bit patterns, or its error message."""
    try:
        return read(str(path)).view(np.int64).tolist()
    except ValueError as exc:
        return str(exc)


def test_reader_values_bit_identical_to_float(tmp_path):
    rng = np.random.default_rng(11)
    bits = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max, 300_000, dtype=np.int64, endpoint=True)
    values = bits.view(np.float64)
    values = values[np.isfinite(values)]
    edge = [0.0, -0.0, 5e-324, -5e-324, np.finfo(np.float64).max, -np.finfo(np.float64).max]
    values = np.concatenate((edge, values, rng.standard_normal(1000)))
    f = tmp_path / "bits.csv"
    f.write_text("t,value\n" + "".join(f"{k},{float(v)!r}\n" for k, v in enumerate(values)))
    read = _read_path_csv(str(f))
    assert read.dtype == np.float64 and read.shape == values.shape
    assert np.array_equal(read.view(np.int64), values.view(np.int64))


# (body after the header line, the line parser's values or its error at that path)
_READER_CASES = {
    "three fields every row": ("0,0.0,1\n1,1.5,2\n", ":2: expected two comma-separated fields"),
    "one-field row": ("0,0.0\n1\n", ":3: expected two comma-separated fields"),
    "header only": ("", []),
    "blank lines": ("0,0.0\n\n  \n1,1.5\n\n", [0.0, 1.5]),
    "padded whitespace": (" 0 , 0.5 \n\t1,\t-1.5\t\n", [0.5, -1.5]),
    "crlf": ("0,0.0\r\n1,2.5\r\n", [0.0, 2.5]),
    "hash in a field": ("0,0.0\n1,1.5 # x\n", ":3: unparsable value '1.5 # x'"),
    "underscore digits": ("0,1_0\n", [10.0]),
    "non-numeric t": ("x,1.5\n1,2.5\n", [1.5, 2.5]),
    "trailing comma": ("0,1.5,\n", ":2: expected two comma-separated fields"),
    "separator ahead of value": ("0,\x1c1.5\n", ":2: unparsable value '\\x1c1.5'"),
    "infinite t": ("inf,1.5\n", [1.5]),
    "nan value": ("0,0.0\n1,nan\n", ":3: non-finite value 'nan'"),
}


@pytest.mark.parametrize("case", list(_READER_CASES))
def test_reader_matches_line_parser(tmp_path, case):
    body, expected = _READER_CASES[case]
    f = tmp_path / "case.csv"
    newline = "\r\n" if case == "crlf" else "\n"
    f.write_bytes(f"t,value{newline}{body}".encode())
    if isinstance(expected, list):
        expected = np.array(expected, dtype=np.float64).view(np.int64).tolist()
    else:
        expected = f"{f}{expected}"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _outcome(_read_path_csv, f) == _outcome(_parse_path_lines, f) == expected


def test_reader_reads_a_generated_file_without_the_line_parser(tmp_path, monkeypatch):
    out = tmp_path / "p.csv"
    assert run(["generate", "--hurst", 0.7, "--steps", 512, "--paths", 8, "--seed", 2, "--out", out]) == 0
    expected = _parse_path_lines(str(out))

    def refuse(path):
        raise AssertionError("fell back to the line parser")

    monkeypatch.setattr(fbmwalk.cli, "_parse_path_lines", refuse)
    assert np.array_equal(_read_path_csv(str(out)), expected)


_ROW_PIECES = ["0", "1.5", "-2e-3", "nan", "inf", "1_0", "x", ",", ",", " ", "\t", "\n", "\n", "\r", "#",
               "\x0c", "\x1c", "\x1f", "\xa0", "\x85", "\u2028", "\x00", "+", ".", "e", "5e-324", "1e999",
               "\udcff"]  # the last is written as the undecodable byte 0xff


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.sampled_from(_ROW_PIECES), max_size=16))
def test_reader_agrees_with_line_parser_on_any_body(tmp_path, pieces):
    f = tmp_path / "any.csv"
    f.write_bytes(("t,value\n" + "".join(pieces)).encode("utf-8", "surrogateescape"))
    assert _outcome(_read_path_csv, f) == _outcome(_parse_path_lines, f)


def test_reader_undecodable_byte_past_the_first_chunk(tmp_path):
    # decoded inside loadtxt, not by the header read: the line parser's error all the same
    f = tmp_path / "late.csv"
    f.write_bytes(b"t,value\n" + b"".join(b"%d,%d.5\n" % (k, k) for k in range(20_000)) + b"1,\xff\n")
    assert "can't decode byte 0xff" in _outcome(_parse_path_lines, f)
    assert _outcome(_read_path_csv, f) == _outcome(_parse_path_lines, f)


# ---------------------------------------------------------------- validate / spread


def test_validate_passes_and_reports(tmp_path, capsys):
    code = run(["validate", "--hurst", 0.7, "--seed", 2, "--steps", 512, "--paths", 48, "--runs", 120])
    text = capsys.readouterr().out
    assert code == 0, text
    assert "feasibility_threshold" in text
    assert "0.1299" in text  # u_max for H=0.7
    assert "paper_chain_lag_law" in text
    assert "density_mass_deficit" in text


def test_validate_json_format(capsys):
    code = run(["validate", "--hurst", 0.75, "--mode", "enriquez", "--seed", 3, "--steps", 256, "--paths", 32, "--runs", 80, "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    names = {c["name"] for c in doc}
    assert "aggregate_acf_enriquez" in names
    agg = next(c for c in doc if c["name"] == "aggregate_acf_enriquez")
    assert agg["hard"] is True and agg["passed"] is True


@pytest.mark.parametrize("steps", [4, 16])
def test_validate_too_few_steps_for_the_aggregate_acf(steps, capsys):
    # 5 ACF lags need 50 increments; fewer is a numeric error, not a check
    # that passes on the lags it could compute, nor a shape mismatch
    code = run(["validate", "--hurst", 0.7, "--steps", steps, "--paths", 2, "--runs", 3])
    captured = capsys.readouterr()
    assert code == 3
    assert "need at least 50 samples" in captured.err
    assert "aggregate_acf" not in captured.out


def test_validate_hard_failure_exits_4(monkeypatch, capsys):
    failed = Check("stub_property", passed=False, hard=True)
    monkeypatch.setattr(fbmwalk.cli, "run_validation", lambda *args, **kwargs: [failed])
    assert run(["validate", "--hurst", 0.7]) == 4
    captured = capsys.readouterr()
    assert "[FAIL] stub_property" in captured.out
    assert "validation: failed: stub_property" in captured.err


def test_validate_config_error():
    assert run(["validate", "--hurst", 0.49, "--seed", 1]) == 2


@pytest.mark.parametrize(
    "argv",
    [("validate", "--runs", 1), ("validate", "--runs", 0), ("spread", "--replicates", 0), ("spread", "--replicates", -2)],
    ids=lambda a: " ".join(map(str, a)),
)
def test_refuse_bad_replicate_counts(argv, capsys):
    # refused before any work: a normality check needs two runs, a spread one replicate
    command, *option = argv
    assert run([command, "--hurst", 0.7, "--steps", 64, "--paths", 4, *option]) == 2
    assert "must be >=" in capsys.readouterr().err


def test_validate_spread_refuse_oracle_mode(capsys):
    # the oracle has no walk to validate, and no command has the retired
    # matched mode; argparse rejects the choice (exit 2)
    invalid = [
        ("validate", "gaussian-oracle"),
        ("spread", "gaussian-oracle"),
        ("generate", "matched"),
        ("validate", "matched"),
        ("spread", "matched"),
    ]
    for command, mode in invalid:
        with pytest.raises(SystemExit) as exc:
            run([command, "--hurst", 0.7, "--mode", mode])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
    # options a command would ignore, and the retired ones, are not offered at all
    ignored = [
        ("validate", "--workers", -3),
        ("spread", "--workers", 2),
        ("validate", "--shared-p"),
        ("validate", "--infeasible", "error"),
        ("spread", "--shared-p"),
        ("spread", "--infeasible", "resample"),
        ("generate", "--out", "unused.csv", "--infeasible", "resample"),
        ("generate", "--out", "unused.csv", "--shared-p"),
    ]
    for command, *option in ignored:
        with pytest.raises(SystemExit) as exc:
            run([command, "--hurst", 0.7, *option])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_spread_report(tmp_path):
    out = tmp_path / "spread.json"
    code = run(
        ["spread", "--hurst", 0.7, "--steps", 256, "--paths", 16, "--replicates", 6, "--seed", 1, "--out", out]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["replicates"] == 6
    assert len(doc["estimates"]) == 6
    assert doc["min"] <= doc["mean"] <= doc["max"]
    assert sum(doc["histogram_counts"]) == 6


def test_spread_report_to_stdout(capsys):
    argv = ["spread", "--hurst", 0.7, "--steps", 256, "--paths", 4, "--replicates", 2, "--seed", 1]
    assert run(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["replicates"] == 2


def test_spread_out_is_a_directory(tmp_path, capsys):
    argv = ["spread", "--hurst", 0.7, "--steps", 256, "--paths", 4, "--replicates", 2, "--out", tmp_path]
    assert run(argv) == 2
    assert "error: config:" in capsys.readouterr().err
