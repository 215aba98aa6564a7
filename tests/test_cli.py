import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from trimag.cli import main
from trimag.figures import FIGURES

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
        assert out.splitlines()[0] == (
            "third-order degeneracy at gamma = 3 MHz: "
            "g = 3.4641 MHz, delta = 1.7321 MHz")
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

    def test_matches_golden(self, tmp_path, capsys):
        # the README example, byte for byte as the per-row writer wrote it
        out = tmp_path / "spectrum_g459.csv"
        assert run_cli(["spectrum", "--g-mhz", "4.59", "--delta-b-mhz", "0.025",
                        "--floor-db", "-91.5", "--dip", "--out", str(out)]) == 0
        golden = GOLDEN / "spectrum" / "spectrum_g459.csv"
        assert out.read_bytes() == golden.read_bytes()
        assert capsys.readouterr().err == "dip: 0.005640 MHz at -91.500 dB\n"

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


class TestCliContract:
    """Bad numbers and unwritable outputs exit 2 with an error line."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("flag,argv", [
        ("--span-mhz", ["spectrum", "--g-mhz", "4.59", "--span-mhz", "nan"]),
        ("--span-mhz", ["spectrum", "--g-mhz", "4.59", "--span-mhz", "inf"]),
        ("--points", ["spectrum", "--g-mhz", "4.59", "--points", "-3"]),
        ("--floor-db", ["spectrum", "--g-mhz", "4.59", "--floor-db", "inf",
                        "--dip"]),
        ("--floor-db", ["report", "--delta-b-mhz", "0.025", "--floor-db",
                        "nan"]),
        ("--delta-b-mhz", ["report", "--delta-b-mhz", "inf"]),
    ], ids=["span_nan", "span_inf", "points_negative", "spectrum_floor_inf",
            "report_floor_nan", "report_delta_b_inf"])
    def test_bad_number_exits_two_naming_the_flag(self, tmp_path, capsys,
                                                  flag, argv):
        out = tmp_path / "out.txt"
        assert run_cli([*argv, "--out", str(out)]) == 2
        assert f"error: {flag} must be" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("delta_b,code,message", [
        ("1e-25", 3, "numerical failure: tracked shift at delta_b = 1e-25 MHz "
                     "is not positive"),
        ("1e-300", 3, "numerical failure: tracked shift at delta_b = 1e-300 "
                      "MHz is not positive"),
        ("0", 2, "error: --delta-b-mhz must be > 0"),
        ("-1e-25", 2, "error: --delta-b-mhz must be > 0"),
    ], ids=["tiny", "tinier", "zero", "negative"])
    def test_report_below_the_resolvable_shift(self, tmp_path, capsys,
                                               delta_b, code, message):
        # a positive field change too small for the tracked shift to stay
        # positive is a numerical limit; a non-positive one is bad input
        out = tmp_path / "report.json"
        assert run_cli(["report", f"--delta-b-mhz={delta_b}",
                        "--out", str(out)]) == code
        captured = capsys.readouterr()
        assert captured.err.startswith(message)
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv,message", [
        (["report", "--delta-b-mhz", "-1e-3"],
         "error: --delta-b-mhz must be > 0"),
        (["report", "--delta-b-mhz", "-inf"],
         "error: --delta-b-mhz must be finite, got -inf"),
        (["sweep", "--start-mhz", "-1e-25", "--stop-mhz", "-2e-25"],
         "error: config: sweep range must be finite with stop > start"),
    ], ids=["report_exponent", "report_minus_inf", "sweep_exponent"])
    def test_negative_number_as_its_own_word_reaches_the_command(
            self, tmp_path, capsys, argv, message):
        # argparse reads -1e-3 as a flag; the command's own check answers
        out = tmp_path / "out.txt"
        assert run_cli([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(message)
        assert "usage:" not in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_negative_number_as_its_own_word_is_the_attached_value(
            self, capsys):
        argv = ["spectrum", "--g-mhz", "4.59", "--points", "5", "--dip"]
        assert run_cli([*argv, "--delta-b-mhz", "-1e-3"]) == 0
        separate = capsys.readouterr()
        assert run_cli([*argv, "--delta-b-mhz=-1e-3"]) == 0
        assert capsys.readouterr() == separate

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv,message", [
        (["--points", "2", "--dip"], "dip search needs at least 3 grid points"),
        (["--points", "5", "--span-mhz", "-5"], "--span-mhz must be > 0"),
        (["--points", "5", "--span-mhz", "5e-324"],
         "--span-mhz 5e-324 is too small for --points 5"),
        (["--points", "5", "--span-mhz", "1e308"], "--span-mhz must be > 0"),
        (["--points", "5", "--span-mhz", "1e200", "--dip"],
         "--span-mhz must be > 0"),
    ], ids=["two_points_dip", "span_negative", "span_subnormal", "span_huge",
            "span_squares_overflow"])
    def test_spectrum_grid_exits_two_before_writing(self, tmp_path, capsys,
                                                    argv, message):
        out = tmp_path / "f.csv"
        assert run_cli(["spectrum", "--g-mhz", "4.59", *argv,
                        "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message}")
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("flag", ["--delta-b-mhz", "--delta-mhz"])
    def test_overflowing_detuning_is_a_numerical_failure(self, tmp_path,
                                                         capsys, flag):
        # (omega - delta)**2 overflows in the response functions
        assert run_cli(["spectrum", "--g-mhz", "4.59", flag, "1e300",
                        "--points", "5", "--dip",
                        "--out", str(tmp_path / "f.csv")]) == 3
        assert capsys.readouterr().err.startswith("numerical failure: overflow")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("floor", ["1e300", "4000", "-1e300"],
                             ids=["huge", "overflowing", "underflowing"])
    @pytest.mark.parametrize("argv", [
        ["spectrum", "--g-mhz", "4.59", "--points", "51", "--dip"],
        ["report", "--delta-b-mhz", "0.025"],
        ["sweep", "--axis", "delta_b", "--start-mhz", "0.01",
         "--stop-mhz", "0.05", "--points", "3", "--quantity", "dip"],
    ], ids=["spectrum", "report", "sweep"])
    def test_floor_without_linear_value_exits_two(self, tmp_path, capsys,
                                                  argv, floor):
        # 10**(floor/10) overflows, or underflows to zero
        out = tmp_path / "out.txt"
        assert run_cli([*argv, f"--floor-db={floor}", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: floor_db")
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("gamma", ["1e300", "5e-324"],
                             ids=["huge", "subnormal"])
    def test_extreme_damping_locates_ep3(self, capsys, gamma):
        assert run_cli(["ep3", "--gamma-mhz", gamma]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["gamma_mhz"] == float(gamma)
        assert all(math.isfinite(v) for v in payload.values())
        if gamma == "1e300":
            assert out.splitlines()[0] == (
                "third-order degeneracy at gamma = 1e+300 MHz: "
                "g = 1.1547e+300 MHz, delta = 5.7735e+299 MHz")

    @pytest.mark.filterwarnings("error")
    def test_unrepresentable_degeneracy_exits_two(self, capsys):
        # gamma itself is finite in rad/us; its coupling 2*gamma/sqrt(3) is not
        assert run_cli(["ep3", "--gamma-mhz", "1.5e307"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --gamma-mhz 1.5e+307 is too large")
        assert "overflows" in captured.err
        assert captured.out == ""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", [
        ["report", "--delta-b-mhz", "0.025", "--out", "missing/report.json"],
        ["sweep", "--points", "3", "--out", "missing/sweep.csv"],
        ["spectrum", "--g-mhz", "4.59", "--points", "51",
         "--out", "missing/trace.csv"],
        ["reproduce", "fig2", "--outdir", "taken"],
    ], ids=["report", "sweep", "spectrum", "reproduce_onto_a_file"])
    def test_unwritable_output_exits_two(self, tmp_path, capsys, argv):
        (tmp_path / "taken").write_text("a file, not a directory")
        argv = [str(tmp_path / a) if a.startswith(("missing/", "taken"))
                else a for a in argv]
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert "error: cannot write" in captured.err
        assert captured.out == ""
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]
        assert (tmp_path / "taken").read_text() == "a file, not a directory"


#: any float, and the values at the edges of float64
FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e200, -1e200,
                     1e308, -1e308, math.nan, math.inf, -math.inf]),
)


def _near(lo: float, hi: float):
    """Floats in the device's range [lo, hi] (two draws in four), or
    anywhere in FLOATS."""
    return st.one_of(st.floats(lo, hi), st.floats(lo, hi), FLOATS)


#: an output path in the run's directory: none (stdout), a new file, a
#: file in a missing directory, or the directory itself
OUTPUTS = st.sampled_from([None, "out.txt", "missing/out.txt", "."])

#: the leaves of a sweep config: numbers, counts, short names, or null;
#: names have no "/", so no path leaves the run's directory
LEAVES = st.one_of(_near(-10.0, 10.0), st.integers(-3, 60), st.none(),
                   st.text(alphabet="ab0._", max_size=3),
                   st.sampled_from(["g", "delta_b", "dip", "sensitivity",
                                    "csv", "json"]))

SWEEP_CONFIGS = st.dictionaries(
    st.sampled_from(["system", "sweep", "quantity", "floor_db", "output"]),
    LEAVES | st.dictionaries(st.sampled_from([
        "gamma_mhz", "g_mhz", "delta_mhz", "kappa1_mhz", "kappa2_mhz",
        "axis", "start_mhz", "stop_mhz", "points", "path", "format"]),
        LEAVES, max_size=4),
    max_size=3)


@st.composite
def _flag(draw, flag: str, values) -> list[str]:
    """flag with a value drawn from values, as one word --flag=value or as
    two words; True gives the bare flag.  A float is written by str() or in
    exponent form, so negative values such as -1e-05, -1.000000e-03 or
    -inf also come as words of their own."""
    value = draw(values)
    if value is True:
        return [flag]
    if isinstance(value, float) and draw(st.booleans()):
        value = f"{value:e}"
    return [f"{flag}={value}"] if draw(st.booleans()) else [flag, str(value)]


@st.composite
def _flags(draw, spec: dict) -> list[str]:
    """Each flag of spec, or not, with a value drawn from its strategy."""
    argv = []
    for flag, values in spec.items():
        if draw(st.booleans()):
            argv.extend(draw(_flag(flag, values)))
    return argv


#: per subcommand: its positional words and required flags, then the
#: optional flags; paths are relative to the run's directory
COMMANDS = {
    "ep3": (_flag("--gamma-mhz", _near(0.1, 10.0)), {}),
    "report": (_flag("--delta-b-mhz", _near(1e-3, 0.1)),
               {"--floor-db": _near(-150.0, -20.0), "--out": OUTPUTS}),
    "reproduce": (st.sampled_from([*FIGURES, "fig9"]).map(lambda f: [f]),
                  {"--outdir": OUTPUTS}),
    "spectrum": (_flag("--g-mhz", _near(3.0, 8.0)), {
        "--gamma-mhz": _near(0.5, 3.0), "--delta-mhz": _near(-5.0, 5.0),
        "--kappa1-mhz": _near(3.0, 10.0), "--kappa2-mhz": _near(3.0, 10.0),
        "--drive": st.one_of(st.just("cpa"), st.text(max_size=4),
                             st.builds("{},{}".format, FLOATS, FLOATS)),
        "--delta-b-mhz": _near(-0.1, 0.1), "--span-mhz": _near(0.1, 20.0),
        "--points": st.integers(-3, 10 ** 4),
        "--floor-db": _near(-150.0, -20.0), "--dip": st.just(True),
        "--out": OUTPUTS}),
    "sweep": (st.just([]), {
        "--config": st.just("config.json"),
        "--axis": st.sampled_from(["g", "delta", "delta_b"]),
        "--start-mhz": _near(-1.0, 5.0), "--stop-mhz": _near(-1.0, 8.0),
        # each dip or sensitivity row runs the chain once: keep sweeps short
        "--points": st.integers(-3, 60),
        "--quantity": st.sampled_from(["eigenvalues", "dip", "sensitivity"]),
        "--gamma-mhz": _near(0.5, 3.0), "--g-mhz": _near(3.0, 8.0),
        "--kappa1-mhz": _near(3.0, 10.0), "--kappa2-mhz": _near(3.0, 10.0),
        "--floor-db": _near(-150.0, -20.0), "--out": OUTPUTS,
        "--format": st.sampled_from(["csv", "json"])}),
}


def _rows(text: str) -> tuple[str, np.ndarray]:
    """The first column's name and the rows of a CSV table or of a JSON
    list of row objects."""
    if text.startswith("["):
        rows = json.loads(text)
        return next(iter(rows[0])), np.array([list(r.values()) for r in rows])
    lines = text.splitlines()
    return lines[0].split(",")[0], np.array(
        [[float(v) for v in line.split(",")] for line in lines[1:]])


def _assert_finite(argv: list[str], text: str, err: str) -> None:
    """The numbers an exit-0 run reports are finite, except where the
    format documents NaN: pole rows of a spectrum, and eigenvalue rows of
    a sweep along g below the damping, which has no manifold point."""
    if argv[0] in ("ep3", "report"):
        payload = json.loads(text[text.index("{"):])
        assert all(math.isfinite(v) for v in payload.values()), payload
    elif argv[0] == "reproduce":
        for name in text.split():
            assert np.isfinite(_rows(Path(name).read_text())[1]).all(), name
    elif argv[0] == "spectrum":
        rows = _rows(text)[1]
        poles = np.isnan(rows[:, 1])
        assert np.isfinite(rows[:, 0]).all()
        assert np.isfinite(rows[~poles]).all()
        assert np.isnan(rows[poles, 2]).all()
        if "--dip" in argv:
            dip = re.fullmatch(r"dip: (\S+) MHz at (\S+) dB\n", err)
            assert all(math.isfinite(float(v)) for v in dip.groups()), err
    else:
        first, rows = _rows(text)
        undefined = np.isnan(rows[:, 1:]).all(axis=1) if first == "g_mhz" \
            else np.zeros(len(rows), dtype=bool)
        assert np.isfinite(rows[~undefined]).all(), rows


class TestCliProperty:
    """Every argv ends in exit 0, 2 or 3, without a RuntimeWarning; exit 0
    reports finite numbers, and exit 2 writes no file."""

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_exit_codes_and_outputs(self, tmp_path, command, data):
        required, optional = COMMANDS[command]
        argv = [command, *data.draw(required), *data.draw(_flags(optional))]
        directory = Path(tempfile.mkdtemp(dir=tmp_path))
        if "config.json" in argv or "--config=config.json" in argv:
            (directory / "config.json").write_text(
                json.dumps(data.draw(SWEEP_CONFIGS)))
        before = sorted(directory.iterdir())
        stdout, stderr = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(directory)
        try:
            with warnings.catch_warnings(record=True) as caught, \
                    redirect_stdout(stdout), redirect_stderr(stderr):
                warnings.simplefilter("always")
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse usage errors
                    code = exc.code
            event(f"exit {code}")
            assert code in (0, 2, 3), stderr.getvalue()
            assert not [w.message for w in caught
                        if issubclass(w.category, RuntimeWarning)]
            written = sorted(set(directory.iterdir()) - set(before))
            if code == 0:
                text = stdout.getvalue()
                if written and command != "reproduce":
                    text = written[0].read_text()
                _assert_finite(argv, text, stderr.getvalue())
            if code == 2:
                assert written == []
        finally:
            os.chdir(cwd)


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
