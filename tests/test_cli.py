import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from trimag.cli import main

GOLDEN = Path(__file__).parent / "golden"
FIGURE_FILES = {
    "fig2": ["fig2_surfaces.csv", "fig2_ep2_lines.csv", "fig2_ep3.csv",
             "fig2_manifold_vs_g.csv", "fig2_manifold_vs_delta.csv"],
    "fig3c": ["fig3c_response.csv", "fig3c_fits.csv"],
    "fig3d": ["fig3d_gep3.csv"],
    "fig3f": ["fig3f_gcpa.csv"],
    "fig4": ["fig4_factors.csv"],
}


def run_cli(args):
    return main(list(args))


class TestEp3Command:
    def test_reference_output(self, capsys):
        assert run_cli(["ep3", "--gamma-mhz", "3"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["g_ep3_mhz"] == pytest.approx(3.4641, abs=1e-4)
        assert payload["delta_ep3_mhz"] == pytest.approx(1.7321, abs=1e-4)

    def test_other_damping(self, capsys):
        assert run_cli(["ep3", "--gamma-mhz", "5"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["g_ep3_mhz"] == pytest.approx(5.7735, abs=1e-4)
        assert payload["delta_ep3_mhz"] == pytest.approx(2.8868, abs=1e-4)

    def test_zero_damping_usage_error(self, capsys):
        assert run_cli(["ep3", "--gamma-mhz", "0"]) == 2


class TestReportCommand:
    def test_experimental_floor_report(self, capsys):
        assert run_cli(["report", "--delta-b-mhz", "0.025"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["delta_omega_mhz"] == pytest.approx(0.6695, abs=1e-3)
        assert payload["g_ep3"] == pytest.approx(26.777, abs=0.01)
        assert payload["g_syn_db_per_mhz"] == pytest.approx(
            payload["g_cpa_db_per_mhz"] * payload["g_ep3"], rel=1e-9)

    def test_model_floor_is_larger(self, capsys):
        assert run_cli(["report", "--delta-b-mhz", "0.025"]) == 0
        shallow = json.loads(capsys.readouterr().out)
        assert run_cli(["report", "--delta-b-mhz", "0.025",
                        "--floor-db", "-120"]) == 0
        deep = json.loads(capsys.readouterr().out)
        assert deep["g_cpa_db_per_mhz"] > shallow["g_cpa_db_per_mhz"]

    def test_nonpositive_perturbation(self, capsys):
        assert run_cli(["report", "--delta-b-mhz", "-1"]) == 2

    def test_floor_clamped_dip_exits_three(self, capsys):
        assert run_cli(["report", "--delta-b-mhz", "1e-9"]) == 3
        assert "-91.5 dB floor" in capsys.readouterr().err

    def test_branch_loss_exits_three(self, capsys):
        # a perturbation far beyond gamma breaks continuation tracking
        assert run_cli(["report", "--delta-b-mhz", "100"]) == 3
        assert "numerical failure" in capsys.readouterr().err


class TestSpectrumCommand:
    def test_csv_schema(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        assert run_cli(["spectrum", "--g-mhz", "4.59", "--points", "51",
                        "--span-mhz", "8", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "omega_mhz,s_tot_linear,s_tot_db"
        assert len(lines) == 52

    def test_perturbed_dip_to_stderr(self, capsys):
        assert run_cli(["spectrum", "--g-mhz", "3.4641016151377544",
                        "--delta-b-mhz", "0.025", "--floor-db", "-91.5",
                        "--points", "401", "--span-mhz", "4", "--dip"]) == 0
        err = capsys.readouterr().err
        assert "dip:" in err


class TestSweepCommand:
    def test_manifold_eigenvalue_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_cli(["sweep", "--axis", "g", "--start-mhz", "0",
                        "--stop-mhz", "8", "--points", "17",
                        "--quantity", "eigenvalues", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        header = lines[0].split(",")
        assert header[0] == "g_mhz"
        rows = [line.split(",") for line in lines[1:]]
        below = [r for r in rows if float(r[0]) < 3.0]
        assert below and all(r[1] == "nan" for r in below)
        last = rows[-1]
        assert float(last[0]) == 8.0
        split = np.sqrt(3 * 8.0 ** 2 - 4 * 3.0 ** 2)
        assert float(last[3]) == pytest.approx(split, rel=1e-9)

    def test_dip_sweep_tracks_eigenshift(self, tmp_path):
        out = tmp_path / "dip.json"
        assert run_cli(["sweep", "--axis", "delta_b", "--start-mhz", "0.005",
                        "--stop-mhz", "0.025", "--points", "3",
                        "--quantity", "dip", "--format", "json",
                        "--out", str(out)]) == 0
        rows = json.loads(out.read_text())
        assert [r["delta_b_mhz"] for r in rows] == [0.005, 0.015, 0.025]
        for row in rows:
            assert row["dip_mhz"] == pytest.approx(row["delta_omega_mhz"],
                                                   abs=0.01)

    def test_validation_errors_exit_two(self, tmp_path, capsys):
        assert run_cli(["sweep", "--axis", "g", "--start-mhz", "5",
                        "--stop-mhz", "5", "--points", "5"]) == 2
        assert "range" in capsys.readouterr().err
        assert run_cli(["sweep", "--axis", "g", "--start-mhz", "0",
                        "--stop-mhz", "8", "--points", "1"]) == 2
        assert "points" in capsys.readouterr().err

    def test_config_file_with_flag_override(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "sweep": {"axis": "delta", "start_mhz": -2.0, "stop_mhz": 2.0,
                      "points": 5},
            "quantity": "eigenvalues",
        }))
        out = tmp_path / "out.csv"
        assert run_cli(["sweep", "--config", str(config), "--points", "9",
                        "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 10  # flags win over the config point count
        assert lines[0].startswith("delta_mhz")

    def test_unreadable_config_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli(["sweep", "--config", str(bad)]) == 2

    @pytest.mark.parametrize("payload", [
        {"system": 5},
        [1, 2],
        {"floor_db": "x"},
        {"system": {"delta_mhz": "abc"}, "quantity": "dip",
         "sweep": {"axis": "delta_b", "start_mhz": 0.01, "stop_mhz": 0.02,
                   "points": 2}},
        {"output": {"path": 5}},
    ], ids=["section_not_object", "top_level_list", "floor_db_not_float",
            "delta_mhz_not_float", "output_path_not_string"])
    def test_malformed_config_exits_two(self, tmp_path, capsys, payload):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert run_cli(["sweep", "--config", str(bad)]) == 2
        assert "error: config" in capsys.readouterr().err


class TestSweepGoldens:
    """The delta_b sweeps, byte for byte as the per-point code wrote them."""

    SWEEP = ["sweep", "--axis", "delta_b"]

    @pytest.mark.parametrize("name,args", [
        ("dip_ep3.csv", ["--start-mhz", "0.005", "--stop-mhz", "0.05",
                         "--points", "10", "--quantity", "dip"]),
        ("dip_g459.csv", ["--start-mhz", "-0.05", "--stop-mhz", "0.05",
                          "--points", "21", "--quantity", "dip",
                          "--g-mhz", "4.59"]),
        ("sensitivity_ep3.csv", ["--start-mhz", "0.0025", "--stop-mhz", "0.05",
                                 "--points", "20", "--quantity", "sensitivity"]),
    ])
    def test_matches_golden(self, tmp_path, name, args):
        out = tmp_path / name
        assert run_cli([*self.SWEEP, *args, "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / "sweep" / name).read_bytes()

    @pytest.mark.parametrize("floor", [[], ["--floor-db", "-91.5"]])
    def test_floor_clamped_sensitivity_exits_three(self, capsys, floor):
        assert run_cli([*self.SWEEP, "--start-mhz", "1e-9", "--stop-mhz",
                        "2e-9", "--points", "2", "--quantity", "sensitivity",
                        *floor]) == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err and "delta_b = 1e-09 MHz" in err
        assert f"the {floor[-1] if floor else '-120'} dB floor" in err

    @pytest.mark.parametrize("g_mhz", ["3.2", "4.59"])
    def test_sensitivity_off_the_degeneracy_exits_two(self, capsys, g_mhz):
        assert run_cli([*self.SWEEP, "--start-mhz", "0.01", "--stop-mhz",
                        "0.02", "--points", "3", "--quantity", "sensitivity",
                        "--g-mhz", g_mhz]) == 2
        err = capsys.readouterr().err
        assert "g = 3.4641016 MHz at gamma = 3 MHz" in err
        assert "--quantity dip" in err


class TestReproduceGoldens:
    @pytest.mark.parametrize("figure", sorted(FIGURE_FILES))
    def test_matches_checked_in_golden(self, figure, tmp_path, capsys):
        assert run_cli(["reproduce", figure, "--outdir", str(tmp_path)]) == 0
        for name in FIGURE_FILES[figure]:
            produced = (tmp_path / name).read_bytes()
            expected = (GOLDEN / name).read_bytes()
            assert produced == expected, f"{name} deviates from golden"

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit) as err:
            run_cli(["reproduce", "fig9"])
        assert err.value.code == 2

    def test_runs_are_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(["reproduce", "fig3f", "--outdir", str(a)]) == 0
        assert run_cli(["reproduce", "fig3f", "--outdir", str(b)]) == 0
        assert (a / "fig3f_gcpa.csv").read_bytes() == \
            (b / "fig3f_gcpa.csv").read_bytes()


class TestEntryPoint:
    def test_module_invocation(self):
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src") + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [sys.executable, "-m", "trimag", "ep3", "--gamma-mhz", "3"],
            capture_output=True, text=True, cwd=root, env=env)
        assert result.returncode == 0
        assert "3.4641" in result.stdout
