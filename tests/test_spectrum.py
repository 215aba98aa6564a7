import math

import numpy as np
import pytest

from trimag.core import locate_ep3
from trimag.params import DriveParams, SymmetricParams, SystemParams, ValidationError, mhz
from trimag.spectrum import (
    CSV_HEADER,
    DEFAULT_FLOOR_DB,
    FlatTraceError,
    ScatteringPoleError,
    SpectrumTrace,
    cpa_drive,
    cpa_spectrum_closed_form,
    default_grid,
    find_dip,
    golden_section_min,
    mn_functions,
    output_amplitudes,
    perturbed_system,
    scattering_coeffs,
    spectrum_dip,
    to_db,
    total_output,
    total_output_spectrum,
    trace_to_csv,
)

from oracles import m_symmetric_form, total_output_expanded

GAMMA = mhz(3.0)
K1 = mhz(4.0)
K2 = mhz(4.0)
KINT = mhz(2.0)


def steady_state_oracle(params: SystemParams, drive: DriveParams, omega: float):
    """Solve the 3x3 frequency-domain steady state directly.

    Fields (a, b1, b2) with inputs a1_in = sqrt(p) e^{-i phi}, a2_in = 1;
    outputs follow from a_in + a_out = sqrt(2 kappa) a.
    """
    x = drive.amplitude
    a_mat = np.array([
        [-1j * omega + params.kappa1 + params.kappa2 + params.kappa_int,
         1j * params.g1, 1j * params.g2],
        [1j * params.g1, -1j * (omega - params.delta1) + params.gamma1, 0.0],
        [1j * params.g2, 0.0, -1j * (omega - params.delta2) + params.gamma2],
    ], dtype=complex)
    rhs = np.array([math.sqrt(2 * params.kappa1) * x
                    + math.sqrt(2 * params.kappa2), 0.0, 0.0], dtype=complex)
    a = np.linalg.solve(a_mat, rhs)[0]
    s1 = math.sqrt(2 * params.kappa1) * a - x
    s2 = math.sqrt(2 * params.kappa2) * a - 1.0
    return s1, s2


def random_system(rng):
    return SystemParams(
        kappa1=mhz(rng.uniform(1, 8)), kappa2=mhz(rng.uniform(1, 8)),
        kappa_int=mhz(rng.uniform(0.1, 4)),
        gamma1=mhz(rng.uniform(0.5, 6)), gamma2=mhz(rng.uniform(0.5, 6)),
        g1=mhz(rng.uniform(0, 8)), g2=mhz(rng.uniform(0, 8)),
        delta1=mhz(rng.uniform(-5, 5)), delta2=mhz(rng.uniform(-5, 5)))


def ep3_sym():
    point = locate_ep3(GAMMA)
    return SymmetricParams(gamma=GAMMA, g=point.g_ep3, delta=point.delta_ep3)


class TestResponseFunctions:
    def test_decoupled_at_cavity_resonance(self):
        params = SystemParams(kappa1=K1, kappa2=K2, kappa_int=KINT,
                              gamma1=GAMMA, gamma2=GAMMA, g1=0, g2=0,
                              delta1=mhz(1.73), delta2=-mhz(1.73))
        m, n = mn_functions(params, 0.0)
        assert m == pytest.approx(-mhz(10.0))
        assert n == pytest.approx(0.0)

    def test_symmetric_form_identity(self):
        # balanced-gain constant: -(k1+k2+kint) == 2*gamma - 2*k1 - 2*k2
        rng = np.random.default_rng(5)
        grid = mhz(np.linspace(-10, 10, 101))
        for _ in range(100):
            gamma = mhz(rng.uniform(0.5, 6))
            g = mhz(rng.uniform(0, 8))
            delta = mhz(rng.uniform(-5, 5))
            k1 = mhz(rng.uniform(1, 8))
            k2_min = max(0.0, 2 * gamma / mhz(1.0) - k1 / mhz(1.0))
            k2 = mhz(rng.uniform(k2_min + 0.1, k2_min + 8))
            sym = SymmetricParams(gamma=gamma, g=g, delta=delta)
            params = sym.to_system(k1, k2)
            m_general, _ = mn_functions(params, grid)
            m_main = m_symmetric_form(sym, k1, k2, grid)
            assert np.max(np.abs(m_general - m_main)) <= 1e-12

    def test_zero_damping_on_resonance_rejected(self):
        params = SystemParams(kappa1=K1, kappa2=K2, kappa_int=KINT,
                              gamma1=0.0, gamma2=GAMMA, g1=mhz(3), g2=mhz(3),
                              delta1=mhz(1.0), delta2=mhz(-1.0))
        with pytest.raises(ScatteringPoleError):
            mn_functions(params, mhz(1.0))


# (params, probe) at a zero-width Lorentzian and where m + i n vanishes
POLES = {
    "zero_width": (SystemParams(kappa1=K1, kappa2=K2, kappa_int=KINT,
                                gamma1=0.0, gamma2=GAMMA, g1=mhz(3), g2=mhz(3),
                                delta1=mhz(1.0), delta2=mhz(-1.0)), mhz(1.0)),
    "vanishing_denominator": (SystemParams(kappa1=0.0, kappa2=0.0, kappa_int=0.0,
                                           gamma1=GAMMA, gamma2=GAMMA, g1=0.0,
                                           g2=0.0, delta1=mhz(1.0),
                                           delta2=mhz(-1.0)), 0.0),
}


@pytest.mark.parametrize("pole", sorted(POLES))
@pytest.mark.parametrize("probe", [float, np.float64,
                                   lambda om: np.array([om - 1.0, om, om + 1.0])],
                         ids=["float", "float64", "array"])
def test_pole_raised_for_scalar_and_array_probes(pole, probe):
    params, omega = POLES[pole]
    with pytest.raises(ScatteringPoleError):
        total_output(params, DriveParams(p=1.0), probe(omega))


class TestScatteringCoeffs:
    def test_decoupled_values(self):
        params = SystemParams(kappa1=K1, kappa2=K2, kappa_int=KINT,
                              gamma1=GAMMA, gamma2=GAMMA, g1=0, g2=0,
                              delta1=mhz(1.0), delta2=mhz(-1.0))
        t12, t21, r11, r22 = scattering_coeffs(params, 0.0)
        assert r11 == pytest.approx(-0.2)
        assert t12 == pytest.approx(0.8)

    def test_reciprocity(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            params = random_system(rng)
            t12, t21, _, _ = scattering_coeffs(params, mhz(rng.uniform(-10, 10)))
            assert t12 == t21

    def test_closed_port_is_fully_reflective(self):
        params = SystemParams(kappa1=0.0, kappa2=K2, kappa_int=KINT,
                              gamma1=GAMMA, gamma2=GAMMA, g1=mhz(2), g2=mhz(2),
                              delta1=mhz(1.0), delta2=mhz(-1.0))
        t12, _, r11, _ = scattering_coeffs(params, mhz(0.3))
        assert t12 == 0
        assert r11 == pytest.approx(-1.0)


class TestOutputAmplitudes:
    def test_absorption_at_real_eigenfrequencies(self):
        sym = SymmetricParams.manifold_point(GAMMA, mhz(4.59))
        params = sym.to_system(K1, K2)
        drive = cpa_drive(params)
        split = math.sqrt(3 * sym.g ** 2 - 4 * GAMMA ** 2)
        for omega in (0.0, split, -split):
            s1, s2 = output_amplitudes(params, drive, omega)
            assert abs(s1) <= 1e-12
            assert abs(s2) <= 1e-12

    def test_single_port_limit(self):
        params = random_system(np.random.default_rng(3))
        omega = mhz(1.234)
        drive = DriveParams(p=1e-30, phi=0.7)
        s1, s2 = output_amplitudes(params, drive, omega)
        t12, t21, r11, r22 = scattering_coeffs(params, omega)
        assert s1 == pytest.approx(t12, rel=1e-12)
        assert s2 == pytest.approx(r22, rel=1e-12)

    def test_linear_solve_oracle(self):
        rng = np.random.default_rng(1234)
        worst = 0.0
        for _ in range(1000):
            params = random_system(rng)
            drive = DriveParams(p=rng.uniform(0.05, 20),
                                phi=rng.uniform(-math.pi, math.pi))
            omega = mhz(rng.uniform(-10, 10))
            s1, s2 = output_amplitudes(params, drive, omega)
            o1, o2 = steady_state_oracle(params, drive, omega)
            closed = abs(s1) ** 2 + abs(s2) ** 2
            direct = abs(o1) ** 2 + abs(o2) ** 2
            worst = max(worst, abs(closed - direct) / max(direct, 1e-300))
        assert worst <= 1e-10


class TestTotalOutput:
    def test_three_evaluation_paths_agree(self):
        rng = np.random.default_rng(99)
        for _ in range(300):
            params = random_system(rng)
            drive = DriveParams(p=rng.uniform(0.05, 20),
                                phi=rng.uniform(-math.pi, math.pi))
            omega = mhz(rng.uniform(-10, 10))
            via_amplitudes = total_output(params, drive, omega)
            via_expansion = total_output_expanded(params, drive, omega)
            o1, o2 = steady_state_oracle(params, drive, omega)
            direct = abs(o1) ** 2 + abs(o2) ** 2
            assert via_expansion == pytest.approx(via_amplitudes, rel=1e-10)
            assert direct == pytest.approx(via_amplitudes, rel=1e-10)

    def test_absorption_dip_sits_at_floor(self):
        sym = ep3_sym()
        params = sym.to_system(K1, K2)
        trace = total_output_spectrum(params, cpa_drive(params),
                                      default_grid(), floor_db=-91.5)
        assert trace.values.min() == 0.0
        assert trace.values_db.min() == -91.5
        trace = total_output_spectrum(params, cpa_drive(params),
                                      default_grid(), floor_db=DEFAULT_FLOOR_DB)
        assert trace.values_db.min() == DEFAULT_FLOOR_DB

    def test_db_channel_is_monotone_and_floored(self):
        values = np.array([0.0, 1e-30, 1e-12, 1e-6, 1.0, 7.5])
        db = to_db(values, -120.0)
        assert np.all(np.diff(db) >= 0)
        assert db.min() >= -120.0
        assert db[-1] == pytest.approx(10 * math.log10(7.5))

    def test_grid_validation(self):
        sym = ep3_sym()
        params = sym.to_system(K1, K2)
        with pytest.raises(ValidationError):
            total_output_spectrum(params, cpa_drive(params), [])
        with pytest.raises(ValidationError):
            total_output_spectrum(params, cpa_drive(params), [1.0, 1.0, 2.0])


class TestCpaDrive:
    def test_symmetric_ports(self):
        params = ep3_sym().to_system(K1, K2)
        drive = cpa_drive(params)
        assert drive.p == 1.0 and drive.phi == 0.0

    def test_ratio_definition(self):
        params = SystemParams(kappa1=4 * K2, kappa2=K2, kappa_int=KINT,
                              gamma1=GAMMA, gamma2=GAMMA, g1=mhz(2), g2=mhz(2),
                              delta1=mhz(1), delta2=mhz(-1))
        assert cpa_drive(params).p == pytest.approx(4.0)

    def test_closed_port_rejected(self):
        params = SystemParams(kappa1=K1, kappa2=0.0, kappa_int=KINT,
                              gamma1=GAMMA, gamma2=GAMMA, g1=0, g2=0,
                              delta1=0, delta2=0)
        with pytest.raises(ValidationError):
            cpa_drive(params)


class TestCpaClosedForm:
    def test_matches_general_path(self):
        grid = default_grid()
        for g_mhz in (3.4641016151377544, 4.0, 4.59, 6.0):
            sym = SymmetricParams.manifold_point(GAMMA, mhz(g_mhz))
            closed = cpa_spectrum_closed_form(sym, K1, K2, grid)
            params = sym.to_system(K1, K2)
            general = total_output_spectrum(params, cpa_drive(params), grid)
            assert np.max(np.abs(closed.values - general.values)) <= 1e-10

    def test_zeros_at_real_eigenvalues(self):
        sym = SymmetricParams.manifold_point(GAMMA, mhz(4.59))
        split_mhz = math.sqrt(3 * sym.g ** 2 - 4 * GAMMA ** 2) / (2 * math.pi)
        grid = np.unique(np.append(np.linspace(-8, 8, 401),
                                   [0.0, split_mhz, -split_mhz]))
        trace = cpa_spectrum_closed_form(sym, K1, K2, grid)
        at_zero = trace.values[np.isin(trace.grid, [0.0, split_mhz, -split_mhz])]
        assert np.all(at_zero <= 1e-18)

    def test_vanishes_nowhere_else(self):
        # fine grid, excluding 0.2 MHz neighborhoods of the three zeros
        sym = SymmetricParams.manifold_point(GAMMA, mhz(4.59))
        params = sym.to_system(K1, K2)
        drive = cpa_drive(params)
        split_mhz = math.sqrt(3 * sym.g ** 2 - 4 * GAMMA ** 2) / (2 * math.pi)
        grid = np.linspace(-10, 10, 4001)
        mask = np.ones_like(grid, dtype=bool)
        for zero in (0.0, split_mhz, -split_mhz):
            mask &= np.abs(grid - zero) > 0.2
        values = total_output(params, drive, mhz(grid[mask]))
        assert values.min() >= 1e-6

    def test_strictly_positive_between_zeros(self):
        sym = SymmetricParams.manifold_point(GAMMA, mhz(4.59))
        trace = cpa_spectrum_closed_form(sym, K1, K2, [2.5])
        params = sym.to_system(K1, K2)
        cross = total_output(params, cpa_drive(params), mhz(2.5))
        assert trace.values[0] >= 1e-6
        assert trace.values[0] == pytest.approx(cross, rel=1e-10)

    def test_off_manifold_rejected(self):
        sym = SymmetricParams(gamma=GAMMA, g=mhz(4.0), delta=mhz(3.0))
        with pytest.raises(ValidationError):
            cpa_spectrum_closed_form(sym, K1, K2, [0.0, 1.0])


class TestFindDip:
    def test_unperturbed_degeneracy_dip_at_origin(self):
        sym = ep3_sym()
        params = sym.to_system(K1, K2)
        drive = cpa_drive(params)
        trace = total_output_spectrum(params, drive, default_grid())
        dip = find_dip(trace, lambda nu: float(total_output(params, drive, mhz(nu))))
        assert abs(dip.dip_location) <= 1e-3
        assert dip.dip_value_db == trace.floor_db
        assert dip.refinement_width <= 1e-6

    def test_parabola_vertex(self):
        vertex = 1.2345
        f = lambda x: 0.5 + 3.0 * (x - vertex) ** 2
        grid = np.linspace(-5, 5, 101)
        trace = SpectrumTrace(grid=grid, values=np.array([f(x) for x in grid]),
                              values_db=to_db([f(x) for x in grid], -120.0),
                              floor_db=-120.0)
        dip = find_dip(trace, f)
        assert dip.dip_location == pytest.approx(vertex, abs=1e-6)

    def test_perturbed_dip_tracks_shifted_eigenvalue(self):
        dip = spectrum_dip(ep3_sym(), K1, K2, mhz(0.025), floor_db=-91.5)
        assert dip.dip_location == pytest.approx(0.67, abs=0.02)
        assert dip.dip_value_db == pytest.approx(-62.935, abs=0.01)

    def test_flat_trace_reported(self):
        grid = np.linspace(0, 1, 11)
        ones = np.ones_like(grid)
        trace = SpectrumTrace(grid=grid, values=ones,
                              values_db=to_db(ones, -120.0), floor_db=-120.0)
        with pytest.raises(FlatTraceError):
            find_dip(trace, lambda x: 1.0)

    def test_golden_section_width(self):
        x, _, width = golden_section_min(lambda x: (x - 0.25) ** 2, -1, 1, 1e-8)
        assert width <= 1e-8
        assert x == pytest.approx(0.25, abs=1e-8)


class TestCsvExport:
    def test_header_and_shape(self):
        sym = ep3_sym()
        params = sym.to_system(K1, K2)
        trace = total_output_spectrum(params, cpa_drive(params),
                                      np.linspace(-1, 1, 5))
        text = trace_to_csv(trace)
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 6
        cols = lines[1].split(",")
        assert len(cols) == 3
        assert float(cols[0]) == -1.0

    def test_byte_stability(self):
        sym = ep3_sym()
        params = sym.to_system(K1, K2)
        grid = np.linspace(-2, 2, 21)
        a = trace_to_csv(total_output_spectrum(params, cpa_drive(params), grid))
        b = trace_to_csv(total_output_spectrum(params, cpa_drive(params), grid))
        assert a == b


class TestPerturbedSystem:
    def test_rigid_shift_of_both_lines(self):
        sym = ep3_sym()
        params = perturbed_system(sym, K1, K2, mhz(0.025))
        assert params.delta1 == pytest.approx(sym.delta + mhz(0.025))
        assert params.delta2 == pytest.approx(-sym.delta + mhz(0.025))
        assert params.kappa_int == pytest.approx(KINT)

    def test_off_manifold_rejected(self):
        sym = SymmetricParams(gamma=GAMMA, g=mhz(4.0), delta=mhz(3.0))
        with pytest.raises(ValidationError):
            perturbed_system(sym, K1, K2, mhz(0.01))
