"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them on passing runs)."""

import hashlib
import math
import time
from pathlib import Path

import numpy as np

from trimag.core import cubic_coeffs, locate_ep3
from trimag.cubic import CubicCoeffs, cardano_roots
from trimag.params import DriveParams, SymmetricParams, mhz, to_mhz
from trimag.sensing import (
    RESOLVABLE_DB,
    Perturbation,
    detectable_b_min,
    exact_eigenshift,
    fit_loglog_slope,
    g_cpa_factor,
    sensitivity_report,
    synthetic_sensitivity,
)
from trimag.spectrum import (
    cpa_drive,
    perturbed_system,
    total_output,
)
from trimag.figures import generate

from oracles import (
    companion_roots,
    eigenvectors_on_manifold,
    is_pseudo_hermitian_spectrum,
    m_symmetric_form,
    mn_functions,
    multiset_distance,
)
from test_spectrum import random_system, steady_state_oracle

GAMMA = mhz(3.0)
GOLDEN = Path(__file__).parent / "golden"

#: dip change measured on the device at delta_b/2pi = 0.025 MHz
#: (arXiv:2401.01613); the paper's g_cpa = 32.1 dB/MHz, g_syn = 860 dB/MHz
#: and 4.2e-21 T follow from it
MEASURED_DIP_CHANGE_DB = 21.5


def _report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {status} - {detail}")


def test_criterion_01_ep3_location():
    locate_ep3(GAMMA)  # warm the call path before timing
    elapsed = math.inf
    for _ in range(3):
        start = time.perf_counter()
        point = locate_ep3(GAMMA)
        elapsed = min(elapsed, time.perf_counter() - start)
    g_mhz, d_mhz = to_mhz(point.g), to_mhz(point.delta)
    ok = (abs(g_mhz - 3.4641) <= 1e-3 and abs(d_mhz - 1.7321) <= 1e-3
          and elapsed < 1e-3)
    _report(1, ok, f"degeneracy at g={g_mhz:.4f}, delta={d_mhz:.4f} MHz "
                   f"in {elapsed * 1e6:.0f} us")
    assert ok


def test_criterion_02_triple_degeneracy():
    sym = locate_ep3(GAMMA)

    # float evaluation confirms both cubic coefficients vanish to rounding
    coeffs = cubic_coeffs(sym.gamma, sym.g, sym.delta)
    coeffs_ok = (abs(coeffs.c0) <= 1e-12 * GAMMA ** 3
                 and abs(coeffs.c1) <= 1e-12 * GAMMA ** 2)

    # the degeneracy cubic itself (coefficients identically zero there)
    degenerate = CubicCoeffs(0j, 0j)
    closed = cardano_roots(degenerate)
    oracle = companion_roots(degenerate)
    value_spread = max(max(abs(x) for x in closed),
                       max(abs(x) for x in oracle))
    values_ok = (value_spread <= 1e-8 * GAMMA
                 and multiset_distance(closed, oracle) <= 1e-9)

    vectors = eigenvectors_on_manifold(sym).vectors
    vec_spread = max(np.linalg.norm(vectors[a] - vectors[b])
                     for a in range(3) for b in range(a + 1, 3))
    vectors_ok = vec_spread <= 1e-4

    ok = coeffs_ok and values_ok and vectors_ok
    _report(2, ok, f"eigenvalue spread {value_spread:.1e}, "
                   f"eigenvector spread {vec_spread:.1e}")
    assert ok


def test_criterion_03_eigenshift_anchor():
    sym = locate_ep3(GAMMA)
    shift = exact_eigenshift(sym, Perturbation(mhz(0.025)))
    ok = abs(shift - 0.67) <= 0.01
    _report(3, ok, f"central-branch shift {shift:.4f} MHz at 0.025 MHz")
    assert ok


def test_criterion_04_slope_laws():
    start = time.perf_counter()
    at_ep3 = locate_ep3(GAMMA)
    away = SymmetricParams.manifold_point(GAMMA, mhz(4.59))
    window = np.geomspace(1e-4, 1e-2, 50)
    pts_ep3 = [(b, abs(exact_eigenshift(at_ep3, Perturbation(mhz(b)))))
               for b in window]
    pts_away = [(b, abs(exact_eigenshift(away, Perturbation(mhz(b)))))
                for b in window]
    fit_ep3 = fit_loglog_slope(pts_ep3, (1e-4, 1e-2))
    fit_away = fit_loglog_slope(pts_away, (1e-4, 1e-2))
    elapsed = time.perf_counter() - start
    ok = (abs(fit_ep3.slope - 1 / 3) <= 0.02
          and abs(fit_away.slope - 1.0) <= 0.02
          and elapsed < 1.0)
    _report(4, ok, f"slopes {fit_ep3.slope:.4f} (deg.) and "
                   f"{fit_away.slope:.4f} (linear) in {elapsed:.2f} s")
    assert ok


def test_criterion_05_sensitivity_chain():
    """The chain at delta_b/2pi = 0.025 MHz against the -91.5 dB floor.

    The model half checks the report's contrast against a dip found
    independently by the steady-state oracle.  The published half feeds
    the dip change measured on the device through the same factor
    functions, with the model's shift and degeneracy factor, and checks
    the paper's numbers.  The model's own contrast depends on the port
    rates, and the device's rates are not part of the package, so the
    published bands apply to the measured contrast, not to the model's.
    """
    delta_b_mhz, floor_db, kappa_mhz = 0.025, -91.5, 4.0
    # at the device point: gamma = 3 MHz, kappa1 = kappa2 = kappa_mhz
    report = sensitivity_report(delta_b_mhz, floor_db=floor_db)

    # independent dip: dense oracle scan around the tracked eigenvalue's
    # lab-frame frequency (the trace-centred shift plus the 2*delta_b/3 drift)
    sym = locate_ep3(GAMMA)
    params = perturbed_system(sym, mhz(kappa_mhz), mhz(kappa_mhz),
                              mhz(delta_b_mhz))
    drive = cpa_drive(params)
    centre = report.delta_omega + 2.0 * delta_b_mhz / 3.0
    scan = centre + 1e-5 * np.arange(-5000, 5001)
    scan_db = [10.0 * math.log10(sum(abs(s) ** 2 for s in
                                     steady_state_oracle(params, drive, mhz(nu))))
               for nu in scan]
    lowest = int(np.argmin(scan_db))
    oracle_dip_db = scan_db[lowest]
    model_contrast_db = oracle_dip_db - floor_db

    published_gcpa = g_cpa_factor(floor_db, floor_db + MEASURED_DIP_CHANGE_DB,
                                  report.delta_omega)
    published_gsyn = synthetic_sensitivity(published_gcpa, report.g_ep3)
    published_bmin = detectable_b_min(RESOLVABLE_DB, published_gsyn)

    checks = {
        "g_ep3 26.8+-0.3": abs(report.g_ep3 - 26.8) <= 0.3,
        "oracle dip inside the scan": 0 < lowest < len(scan) - 1,
        "model g_cpa vs oracle +-0.01": abs(
            report.g_cpa - model_contrast_db / report.delta_omega) <= 0.01,
        "model delta_b_min from g_syn": math.isclose(
            report.delta_b_min, detectable_b_min(RESOLVABLE_DB, report.g_syn),
            rel_tol=1e-12),
        "g_cpa 32.1+-0.5": abs(published_gcpa - 32.1) <= 0.5,
        "g_syn 860+-20": abs(published_gsyn - 860.0) <= 20.0,
        "delta_b_min (4.2+-0.2)e-21": abs(published_bmin - 4.2e-21) <= 0.2e-21,
    }
    ok = all(checks.values())
    detail = (f"g_ep3={report.g_ep3:.3f}; model contrast "
              f"{model_contrast_db:.2f} dB (oracle dip {oracle_dip_db:.4f} dB "
              f"at {scan[lowest]:.5f} MHz), g_cpa={report.g_cpa:.3f}; "
              f"measured {MEASURED_DIP_CHANGE_DB} dB gives "
              f"g_cpa={published_gcpa:.3f}, g_syn={published_gsyn:.1f}, "
              f"delta_b_min={published_bmin:.3e}")
    failed = ", ".join(name for name, passed in checks.items() if not passed)
    _report(5, ok, detail + (f"; out of band: {failed}" if failed else ""))
    assert ok, f"out of band: {failed}; {detail}"


def test_criterion_06_cpa_zero_placement():
    sym = SymmetricParams.manifold_point(GAMMA, mhz(4.59))
    params = sym.to_system(mhz(4.0), mhz(4.0))
    drive = cpa_drive(params)
    split = math.sqrt(3 * sym.g ** 2 - 4 * GAMMA ** 2)
    zeros_ok = abs(to_mhz(split) - 5.216) <= 1e-3
    at_zeros = [total_output(params, drive, om) for om in (0.0, split, -split)]
    off = [total_output(params, drive, mhz(nu)) for nu in (2.5, -2.5)]
    zeros_ok = zeros_ok and all(v <= 1e-18 for v in at_zeros)
    off_ok = all(v >= 1e-6 for v in off)
    ok = zeros_ok and off_ok
    _report(6, ok, f"|S|^2 at eigenfrequencies <= {max(at_zeros):.1e}, "
                   f"off-zero {min(off):.1e}")
    assert ok


def test_criterion_07_oracle_suites():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_cubic = 0.0
    for _ in range(1000):
        coeffs = CubicCoeffs(
            c0=complex(rng.normal(scale=2), rng.normal(scale=2)),
            c1=complex(rng.normal(scale=2), rng.normal(scale=2)))
        worst_cubic = max(worst_cubic, multiset_distance(
            cardano_roots(coeffs), companion_roots(coeffs)))

    rng = np.random.default_rng(1234)
    worst_scatter = 0.0
    for _ in range(1000):
        params = random_system(rng)
        drive = DriveParams(p=rng.uniform(0.05, 20),
                            phi=rng.uniform(-math.pi, math.pi))
        omega = mhz(rng.uniform(-10, 10))
        closed = total_output(params, drive, omega)
        o1, o2 = steady_state_oracle(params, drive, omega)
        direct = abs(o1) ** 2 + abs(o2) ** 2
        worst_scatter = max(worst_scatter,
                            abs(closed - direct) / max(direct, 1e-300))
    elapsed = time.perf_counter() - start
    ok = worst_cubic <= 1e-9 and worst_scatter <= 1e-10 and elapsed < 10.0
    _report(7, ok, f"cubic oracle {worst_cubic:.1e}, scattering oracle "
                   f"{worst_scatter:.1e}, {elapsed:.1f} s")
    assert ok


def test_criterion_08_response_function_consistency():
    rng = np.random.default_rng(5)
    grid = mhz(np.linspace(-10.0, 10.0, 101))
    worst = 0.0
    for _ in range(100):
        gamma = mhz(rng.uniform(0.5, 6))
        k1_mhz = rng.uniform(1, 8)
        k2_floor = max(0.0, 2 * to_mhz(gamma) - k1_mhz)
        k1 = mhz(k1_mhz)
        k2 = mhz(rng.uniform(k2_floor + 0.1, k2_floor + 8))
        sym = SymmetricParams(gamma=gamma, g=mhz(rng.uniform(0, 8)),
                              delta=mhz(rng.uniform(-5, 5)))
        params = sym.to_system(k1, k2)
        m_general, _ = mn_functions(params, grid)
        m_balanced = m_symmetric_form(sym, k1, k2, grid)
        worst = max(worst, float(np.max(np.abs(m_general - m_balanced))))
    ok = worst <= 1e-12
    _report(8, ok, f"worst pointwise deviation {worst:.1e} rad/us")
    assert ok


def test_criterion_09_pseudo_hermitian_symmetry():
    point = locate_ep3(GAMMA)
    # the manifold needs g >= gamma, so the requested span is clamped to
    # its feasible part [sqrt(3)/2, 2] in units of the degeneracy coupling
    ratios = np.linspace(math.sqrt(3) / 2, 2.0, 200)
    worst_imag = 0.0
    all_closed = True
    for ratio in ratios:
        sym = SymmetricParams.manifold_point(GAMMA, ratio * point.g)
        roots = cardano_roots(cubic_coeffs(sym.gamma, sym.g, sym.delta))
        all_closed &= is_pseudo_hermitian_spectrum(roots)
        if ratio * point.g >= point.g:
            worst_imag = max(worst_imag,
                             max(abs(x.imag) for x in roots))
    ok = all_closed and worst_imag <= 1e-9
    _report(9, ok, f"conjugation-closed on 200 points, worst residual "
                   f"imaginary part {worst_imag:.1e} rad/us")
    assert ok


def test_criterion_10_golden_determinism(tmp_path):
    def digest(path: Path) -> str:
        return hashlib.sha256(path.read_bytes()).hexdigest()

    mismatches = []
    for figure in ("fig2", "fig3c", "fig3d", "fig3f", "fig4"):
        first = generate(figure, tmp_path / "a")
        second = generate(figure, tmp_path / "b")
        for p1, p2 in zip(first, second):
            if digest(p1) != digest(p2):
                mismatches.append(f"{p1.name} varies between runs")
            golden = GOLDEN / p1.name
            if digest(p1) != digest(golden):
                mismatches.append(f"{p1.name} deviates from golden")
    ok = not mismatches
    _report(10, ok, "all figure files byte-identical and matching goldens"
            if ok else "; ".join(mismatches))
    assert ok
