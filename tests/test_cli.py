import csv
import json
import math

import pytest

from slzeros import sweep
from slzeros.cli import main, parse_angle, parse_q_argument

PI = math.pi


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_angle_forms():
    assert parse_angle("pi") == PI
    assert parse_angle("pi/2") == PI / 2
    assert parse_angle("3pi/4") == 3 * PI / 4
    assert parse_angle("0.75pi") == 0.75 * PI
    assert parse_angle("1.25") == 1.25
    assert parse_angle("0") == 0.0


def test_parse_q_shorthands(tmp_path):
    assert parse_q_argument("zero").kind == "zero"
    assert parse_q_argument("constant:5").params == (5.0,)
    assert parse_q_argument("cos2x").params == (1.0, 2.0)
    assert parse_q_argument("step:10:1:2").params == (10.0, 1.0, 2.0)
    assert parse_q_argument("x^-0.5").params == (1.0, -0.5)
    spec = tmp_path / "q.json"
    spec.write_text('{"kind": "cosine", "a": 2.0, "f": 3.0}')
    assert parse_q_argument(f"@{spec}").params == (2.0, 3.0)


def test_eigen_json_roundtrip(capsys, tmp_path):
    out_file = tmp_path / "eigen.json"
    code, _, _ = run_cli(["eigen", "--q", "zero", "--alpha", "pi", "--beta", "0",
                          "--n-range", "0..3", "--cells", "512",
                          "--out", str(out_file)], capsys)
    assert code == 0
    payload = json.loads(out_file.read_text())
    mus = [row["mu"] for row in payload["rows"]]
    for mu, want in zip(mus, (1, 4, 9, 16)):
        assert mu == pytest.approx(want, rel=1e-9)
    # bit-for-bit round trip through JSON
    again = json.loads(json.dumps(payload))
    assert [r["mu"] for r in again["rows"]] == mus


def test_eigen_csv_roundtrip(capsys, tmp_path):
    out_file = tmp_path / "eigen.csv"
    code, _, _ = run_cli(["eigen", "--q", "constant:5", "--alpha", "pi", "--beta", "0",
                          "--n-range", "0..1", "--cells", "512", "--format", "csv",
                          "--out", str(out_file)], capsys)
    assert code == 0
    rows = list(csv.DictReader(out_file.read_text().splitlines()))
    assert float(rows[0]["mu"]) == pytest.approx(6.0, rel=1e-15)
    assert float(rows[1]["mu"]) == pytest.approx(9.0, rel=1e-15)


def test_eigen_rejects_divergent_potential(capsys):
    code, _, err = run_cli(["eigen", "--q", '{"kind":"power","a":1,"p":-1}',
                            "--alpha", "pi", "--beta", "0", "--n", "0"], capsys)
    assert code == 2
    assert "NonIntegrableExponent" in err


def test_zeros_command(capsys):
    code, out, _ = run_cli(["zeros", "--q", "zero", "--alpha", "pi", "--beta", "0",
                            "--n", "2", "--cells", "512"], capsys)
    assert code == 0
    rows = json.loads(out)["rows"]
    xs = [r["x"] for r in rows]
    assert xs == pytest.approx([k * PI / 3 for k in range(4)], abs=1e-9)


def test_velocities_command(capsys):
    code, out, _ = run_cli(["velocities", "--q", "zero", "--alpha", "pi", "--beta", "0",
                            "--n", "1", "--side", "left", "--cells", "512"], capsys)
    assert code == 0
    rows = json.loads(out)["rows"]
    assert all(r["velocity"] <= 0.0 for r in rows)
    assert rows[0]["velocity"] == 0.0  # pinned at x = 0


def test_evf_command_grid(capsys):
    code, out, _ = run_cli(["evf", "--q", "zero", "--gamma", "pi,2pi",
                            "--delta=-pi,0", "--cells", "512"], capsys)
    assert code == 0
    rows = json.loads(out)["rows"]
    table = {(round(r["gamma"], 6), round(r["delta"], 6)): r["mu"] for r in rows}
    assert table[(round(PI, 6), round(-PI, 6))] == pytest.approx(4.0, rel=1e-9)
    assert table[(round(PI, 6), 0.0)] == pytest.approx(1.0, rel=1e-9)


def test_sweep_command_writes_files(capsys, tmp_path):
    outdir = tmp_path / "sweep"
    code, out, _ = run_cli(["sweep", "--q", "zero", "--n", "1", "--vary", "beta",
                            "--alpha", "pi", "--grid", "12", "--cells", "512",
                            "--out", str(outdir)], capsys)
    assert code == 0
    path_rows = list(csv.DictReader((outdir / "path.csv").read_text().splitlines()))
    assert float(path_rows[0]["mu"]) == pytest.approx(4.0, rel=1e-9)
    events = list(csv.DictReader((outdir / "events.csv").read_text().splitlines()))
    assert events[0]["event"] == "exited_at_right"
    zero_files = sorted(outdir.glob("zero_*.csv"))
    assert len(zero_files) == 3


def test_sweep_grid_too_small(capsys, tmp_path):
    code, _, err = run_cli(["sweep", "--q", "zero", "--n", "1", "--vary", "beta",
                            "--alpha", "pi", "--grid", "4",
                            "--out", str(tmp_path / "x")], capsys)
    assert code == 2
    assert "8" in err


def test_sweep_grid_of_one(capsys, tmp_path):
    code, _, err = run_cli(["sweep", "--q", "zero", "--n", "1", "--vary", "beta",
                            "--alpha", "pi", "--grid", "1",
                            "--out", str(tmp_path / "x")], capsys)
    assert code == 2
    assert "DomainMismatch" in err


def test_sweep_requires_out(capsys, monkeypatch):
    def fail(plan):
        raise AssertionError("sweep ran before --out was checked")

    monkeypatch.setattr(sweep, "run_sweep", fail)
    code, _, err = run_cli(["sweep", "--q", "zero", "--n", "1", "--vary", "beta",
                            "--alpha", "pi", "--grid", "12"], capsys)
    assert code == 2
    assert "--out" in err


def test_solver_fault_maps_to_exit_3(capsys):
    code, _, err = run_cli(["eigen", "--q", "zero", "--alpha", "1e-9", "--beta", "0",
                            "--n", "0", "--cells", "64"], capsys)
    assert code == 3
    assert "BracketFailure" in err


def test_verify_battery(capsys):
    code, out, _ = run_cli(["verify", "--battery", "seam", "--q", "zero",
                            "--cells", "512"], capsys)
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_schema_listing(capsys):
    code, out, _ = run_cli(["--schema"], capsys)
    assert code == 0
    assert "eigen: n,mu,interior_zero_count,c_n" in out
    assert "sweep:events.csv: event,zero_id,angle_lo,angle_hi" in out


def test_env_cells_override(capsys, monkeypatch):
    monkeypatch.setenv("SL_CELLS", "128")
    code, out, _ = run_cli(["eigen", "--q", "zero", "--alpha", "pi", "--beta", "0",
                            "--n", "0"], capsys)
    assert code == 0
    assert json.loads(out)["rows"][0]["mu"] == pytest.approx(1.0, rel=1e-9)
