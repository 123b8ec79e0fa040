"""Command-line interface: file ingestion, output formats, error codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import condinfer
from condinfer.cli import load_estimates, main
from condinfer.testing import save_bootstrap_draws


def write(path, text):
    path.write_text(text, encoding="utf-8")


@pytest.fixture
def single_effect(tmp_path):
    est = tmp_path / "est.csv"
    cov = tmp_path / "cov.csv"
    write(est, "id,estimate\nearnings,2.0\n")
    write(cov, "1.0\n")
    return est, cov


@pytest.fixture
def three_effects(tmp_path):
    est = tmp_path / "est3.csv"
    cov = tmp_path / "cov3.csv"
    write(est, "id,estimate\na,3.1\nb,0.2\nc,-2.8\n")
    write(cov, "1.0,0.3,0.1\n0.3,1.0,0.2\n0.1,0.2,1.0\n")
    return est, cov


def test_import_loads_no_scipy():
    # SciPy is a test dependency only: the program and its command line
    # must start without it
    src = Path(condinfer.__file__).resolve().parents[1]
    code = (
        "import sys, condinfer, condinfer.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.strip() == "[]"


def test_load_estimates_shapes(three_effects):
    est, cov = three_effects
    loaded = load_estimates(str(est), str(cov))
    assert loaded.m == 3
    assert loaded.labels == ["a", "b", "c"]


def test_load_estimates_dimension_mismatch(tmp_path, single_effect):
    est, _ = single_effect
    cov2 = tmp_path / "cov2.csv"
    write(cov2, "1.0,0.0\n0.0,1.0\n")
    with pytest.raises(ValueError, match="dimension mismatch"):
        load_estimates(str(est), str(cov2))


def test_load_estimates_bad_header(tmp_path):
    est = tmp_path / "bad.csv"
    write(est, "name,value\nx,1\n")
    cov = tmp_path / "c.csv"
    write(cov, "1.0\n")
    with pytest.raises(ValueError, match="expected header"):
        load_estimates(str(est), str(cov))


def test_load_estimates_bad_value_has_line_number(tmp_path):
    est = tmp_path / "bad2.csv"
    write(est, "id,estimate\nx,1.0\ny,oops\n")
    cov = tmp_path / "c.csv"
    write(cov, "1.0\n")
    with pytest.raises(ValueError, match=":3:"):
        load_estimates(str(est), str(cov))


def test_load_estimates_correlation_out_of_range(tmp_path):
    est = tmp_path / "e.csv"
    write(est, "id,estimate\nx,1.0\ny,1.0\n")
    cov = tmp_path / "c.csv"
    write(cov, "1.0,1.1\n1.1,1.0\n")
    with pytest.raises(ValueError):
        load_estimates(str(est), str(cov))


def test_infer_shrinks_univariate(single_effect, capsys):
    est, cov = single_effect
    rc = main(
        [
            "infer",
            "--estimates", str(est),
            "--cov", str(cov),
            "--procedure", "holm",
            "--sided", "two",
            "--level", "0.1",
            "--alpha", "0.1",
            "--event", "equal",
            "--format", "json",
        ]
    )
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema_version"] == "1"
    (result,) = doc["results"]
    assert result["estimate_ub"] < 2.0
    assert result["naive_estimate"] == 2.0


def test_select_no_significant_effects(tmp_path, capsys):
    est = tmp_path / "e.csv"
    cov = tmp_path / "c.csv"
    write(est, "id,estimate\na,0.0\nb,0.0\n")
    write(cov, "1.0,0.0\n0.0,1.0\n")
    rc = main(["select", "--estimates", str(est), "--cov", str(cov)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "no significant effects" in out
    # table output carries the resolved configuration too
    assert "# config" in out and '"procedure": "holm"' in out


def test_select_reports_steps(three_effects, capsys):
    est, cov = three_effects
    rc = main(["select", "--estimates", str(est), "--cov", str(cov), "--format", "json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    ids = [row["id"] for row in doc["significant"]]
    assert ids == ["a", "c"]
    thresholds = [row["threshold"] for row in doc["significant"]]
    assert thresholds == sorted(thresholds, reverse=True)


def test_json_round_trip_full_precision(three_effects, tmp_path, capsys):
    est, cov = three_effects
    out = tmp_path / "result.json"
    rc = main(
        [
            "infer",
            "--estimates", str(est),
            "--cov", str(cov),
            "--format", "json",
            "--output", str(out),
        ]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    again = json.loads(json.dumps(doc))
    for a, b in zip(doc["results"], again["results"]):
        assert a["estimate_ub"] == b["estimate_ub"]
        assert a["ci_lo"] == b["ci_lo"]
        assert a["support"] == b["support"]
    # infinities survive the Python JSON round trip
    assert doc["results"][0]["support"][0][0] == -math.inf or math.isfinite(
        doc["results"][0]["support"][0][0]
    )


def test_simulate_outputs_are_byte_identical(tmp_path):
    args = [
        "simulate",
        "--design", "normal",
        "--n", "300",
        "--reps", "50",
        "--seed", "1",
        "--format", "json",
    ]
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(args + ["--output", str(out1)]) == 0
    assert main(args + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_csv_row(tmp_path, capsys):
    csv_path = tmp_path / "rows.csv"
    args = [
        "simulate", "--design", "normal", "--n", "120", "--reps", "40",
        "--seed", "3", "--csv", str(csv_path),
    ]
    assert main(args) == 0
    assert main(args) == 0
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 3  # header + two appended rows
    assert lines[1] == lines[2]


def test_error_codes(tmp_path, capsys, single_effect):
    est, cov = single_effect
    rc = main(["infer", "--estimates", str(tmp_path / "missing.csv"), "--cov", str(cov)])
    assert rc == 1
    assert "error code=E_IO" in capsys.readouterr().err

    bad_cov = tmp_path / "bad_cov.csv"
    write(bad_cov, "1.0,0.0\n0.0,1.0\n")
    rc = main(["infer", "--estimates", str(est), "--cov", str(bad_cov)])
    assert rc == 1
    assert "error code=E_INVALID" in capsys.readouterr().err

    assert main(["simulate", "--reps", "5", "--alpha", "1.5"]) == 1
    assert "error code=E_INVALID" in capsys.readouterr().err

    assert main(["infer", "--estimates", str(est), "--cov", str(cov), "--workers", "0"]) == 1
    assert "error code=E_INVALID" in capsys.readouterr().err


def test_bootstrap_procedure_requires_draws(single_effect, capsys):
    est, cov = single_effect
    rc = main(["select", "--estimates", str(est), "--cov", str(cov), "--procedure", "bootstrap"])
    assert rc == 1
    assert "bootstrap-draws" in capsys.readouterr().err


def test_bootstrap_procedure_via_file(tmp_path, capsys, single_effect):
    est, cov = single_effect
    draws = tmp_path / "draws.csv"
    rng = np.random.default_rng(0)
    save_bootstrap_draws(draws, rng.standard_normal((99, 1)))
    rc = main(
        [
            "select",
            "--estimates", str(est),
            "--cov", str(cov),
            "--procedure", "bootstrap",
            "--bootstrap-draws", str(draws),
            "--format", "json",
        ]
    )
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["procedure_kind"] == "step_down"


def test_fixed_step_up_table(tmp_path, capsys):
    est = tmp_path / "e.csv"
    cov = tmp_path / "c.csv"
    write(est, "id,estimate\na,1.3\nb,1.5\n")
    write(cov, "1.0,0.0\n0.0,1.0\n")
    rc = main(
        [
            "select",
            "--estimates", str(est),
            "--cov", str(cov),
            "--procedure", "fixed",
            "--fixed-table", "1.2816,1.6449",
            "--step", "step_up",
            "--sided", "one",
            "--format", "json",
        ]
    )
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert sorted(row["id"] for row in doc["significant"]) == ["a", "b"]
