import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trimag.core import locate_ep3
from trimag import spectrum
from trimag.params import (
    DriveParams,
    SymmetricParams,
    SystemParams,
    ValidationError,
    mhz,
    to_mhz,
)
from trimag.spectrum import (
    CSV_BLOCK_ROWS,
    CSV_HEADER,
    DEFAULT_FLOOR_DB,
    DIP_GRID,
    DIP_WIDTH_MHZ,
    FlatTraceError,
    ScatteringPoleError,
    SpectrumTrace,
    cpa_drive,
    default_grid,
    find_dip,
    golden_section_min,
    output_power,
    perturbed_system,
    spectrum_dip,
    to_db,
    total_output,
    total_output_spectrum,
    trace_to_csv,
)

from oracles import (
    cpa_spectrum_closed_form,
    m_symmetric_form,
    mn_functions,
    spectrum_dip_per_point,
    total_output_expanded,
    total_output_reference,
    trace_to_csv_per_row,
)
from strategies import float_tables

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
    return locate_ep3(GAMMA)


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
    "zero_width_gamma2": (SystemParams(kappa1=K1, kappa2=K2, kappa_int=KINT,
                                       gamma1=GAMMA, gamma2=0.0, g1=mhz(3),
                                       g2=mhz(3), delta1=mhz(1.0),
                                       delta2=mhz(-1.0)), mhz(-1.0)),
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


def _rate(draw):
    """A rate in rad/us, drawn in MHz; sometimes exactly zero."""
    if draw(st.booleans()):
        return 0.0
    return mhz(draw(st.floats(0.1, 8.0)))


@st.composite
def perturbed_manifold_systems(draw):
    """A perturbed manifold system under its absorption drive."""
    gamma = draw(st.floats(0.5, 6.0))
    sym = SymmetricParams.manifold_point(
        mhz(gamma), mhz(draw(st.floats(gamma, gamma + 6.0))))
    k1 = draw(st.floats(0.1, 8.0))
    k2 = draw(st.floats(max(0.1, 2.0 * gamma - k1) + 0.1, 16.0))
    params = perturbed_system(sym, mhz(k1), mhz(k2),
                              mhz(draw(st.floats(-0.05, 0.05))))
    return params, cpa_drive(params)


@st.composite
def systems_and_drives(draw):
    """A perturbed manifold system under its absorption drive, or any
    system, magnon dampings and port rates possibly zero, under any drive."""
    if draw(st.booleans()):
        return draw(perturbed_manifold_systems())
    params = SystemParams(
        kappa1=_rate(draw), kappa2=_rate(draw), kappa_int=_rate(draw),
        gamma1=_rate(draw), gamma2=_rate(draw), g1=_rate(draw), g2=_rate(draw),
        delta1=mhz(draw(st.floats(-5.0, 5.0))),
        delta2=mhz(draw(st.floats(-5.0, 5.0))))
    drive = DriveParams(p=draw(st.floats(0.05, 20.0)),
                        phi=draw(st.floats(-math.pi, math.pi)))
    return params, drive


def _outcome(power, omega):
    """The value's type and bytes, or the pole it raised."""
    try:
        value = power(omega)
    except ScatteringPoleError:
        return "pole"
    return type(value), np.asarray(value).tobytes()


@settings(max_examples=300, deadline=None)
@given(system=systems_and_drives(), data=st.data())
def test_evaluator_equals_the_reference_bit_for_bit(system, data):
    params, drive = system
    # the magnon lines and the cavity are where the poles sit
    special = [0.0, params.delta1, params.delta2]
    probes = data.draw(st.lists(
        st.one_of(st.sampled_from(special), st.floats(-mhz(10.0), mhz(10.0))),
        min_size=1, max_size=8))
    kind = data.draw(st.sampled_from(["float", "float64", "array"]))
    omegas = {"float": probes, "float64": [np.float64(om) for om in probes],
              "array": [np.array(probes)]}[kind]
    power = output_power(params, drive)
    for omega in omegas:
        # the reference on numpy scalars: a Python-float probe, as find_dip
        # passes, must give what an np.float64 probe gave before
        expected = _outcome(
            lambda om: total_output_reference(params, drive, np.float64(om)),
            omega)
        assert _outcome(power, omega) == expected


@settings(max_examples=150, deadline=None)
@given(system=perturbed_manifold_systems())
def test_scalar_probe_is_its_array_row(system):
    # the refine's float probes and the walk's array rows square alike, so
    # every default-grid probe gives one bit pattern either way
    params, drive = system
    power = output_power(params, drive)
    grid = mhz(default_grid())
    scalars = np.array([float(power(om)) for om in grid.tolist()])
    assert scalars.tobytes() == power(grid).tobytes()


class TestOutputAmplitudes:
    def test_absorption_at_real_eigenfrequencies(self):
        sym = SymmetricParams.manifold_point(GAMMA, mhz(4.59))
        params = sym.to_system(K1, K2)
        drive = cpa_drive(params)
        split = math.sqrt(3 * sym.g ** 2 - 4 * GAMMA ** 2)
        for omega in (0.0, split, -split):
            # |S1|^2 + |S2|^2 <= 1e-24: both outputs below 1e-12
            assert total_output(params, drive, omega) <= 1e-24

    def test_linear_solve_oracle(self):
        rng = np.random.default_rng(1234)
        worst = 0.0
        for _ in range(1000):
            params = random_system(rng)
            drive = DriveParams(p=rng.uniform(0.05, 20),
                                phi=rng.uniform(-math.pi, math.pi))
            omega = mhz(rng.uniform(-10, 10))
            closed = total_output(params, drive, omega)
            o1, o2 = steady_state_oracle(params, drive, omega)
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
            assert np.max(np.abs(closed - general.values)) <= 1e-10

    def test_zeros_at_real_eigenvalues(self):
        sym = SymmetricParams.manifold_point(GAMMA, mhz(4.59))
        split_mhz = math.sqrt(3 * sym.g ** 2 - 4 * GAMMA ** 2) / (2 * math.pi)
        grid = np.unique(np.append(np.linspace(-8, 8, 401),
                                   [0.0, split_mhz, -split_mhz]))
        values = cpa_spectrum_closed_form(sym, K1, K2, grid)
        at_zero = values[np.isin(grid, [0.0, split_mhz, -split_mhz])]
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
        closed = cpa_spectrum_closed_form(sym, K1, K2, [2.5])[0]
        params = sym.to_system(K1, K2)
        cross = total_output(params, cpa_drive(params), mhz(2.5))
        assert closed >= 1e-6
        assert closed == pytest.approx(cross, rel=1e-10)

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
                              floor_db=-120.0, pole_mask=np.zeros(101, bool))
        dip = find_dip(trace, f)
        assert dip.dip_location == pytest.approx(vertex, abs=1e-6)

    def test_perturbed_dip_tracks_shifted_eigenvalue(self):
        # walked from the unperturbed zero to the one zero of the spectrum
        [dip] = spectrum_dip(ep3_sym(), K1, K2, [mhz(0.025)], [0.0], -91.5)
        assert dip.dip_location == pytest.approx(0.67, abs=0.02)
        assert dip.dip_value_db == pytest.approx(-62.935, abs=0.01)

    @pytest.mark.parametrize("zero", [-1.0, 0.0, 1.0])
    def test_dip_is_the_zero_nearest_the_prediction(self, zero):
        # above the degeneracy the spectrum has zeros at 0 and +-s
        sym = SymmetricParams.manifold_point(GAMMA, mhz(4.59))
        s = math.sqrt(3 * 4.59 ** 2 - 4 * 3.0 ** 2)
        [dip] = spectrum_dip(sym, K1, K2, [0.0], [zero * (s - 0.3)], -120.0)
        assert dip.dip_location == pytest.approx(zero * s, abs=1e-5)

    @pytest.mark.parametrize("g_mhz,delta_b_mhz,predicted_mhz", [
        (None, [0.01, 0.025, 0.04], [0.0, 0.0, 0.9]),
        (4.59, [0.0, 0.0, 0.01], [4.9, -4.9, 0.0])], ids=["ep3", "g459"])
    def test_refine_makes_24_evaluations(self, monkeypatch, g_mhz,
                                         delta_b_mhz, predicted_mhz):
        # golden section from a two-step bracket of the default grid down
        # to DIP_WIDTH_MHZ: 2 + 21 narrowing steps + the midpoint, per row;
        # one evaluator walks (arrays only) and refines every row, so a
        # row's scalar probes are those passed its detunings
        evaluators = []
        probes = {}
        build = spectrum.output_power

        def counted(params, drive):
            power = build(params, drive)
            evaluators.append(power)

            def evaluate(omega, *detunings):
                if not isinstance(omega, np.ndarray):
                    probes.setdefault(detunings, []).append(omega)
                return power(omega, *detunings)
            return evaluate

        monkeypatch.setattr(spectrum, "output_power", counted)
        sym = (ep3_sym() if g_mhz is None
               else SymmetricParams.manifold_point(GAMMA, mhz(g_mhz)))
        delta_b = mhz(np.array(delta_b_mhz)).tolist()
        dips = spectrum_dip(sym, K1, K2, delta_b, predicted_mhz, -120.0)
        assert len(evaluators) == 1 and len(dips) == len(delta_b)
        step = DIP_GRID[1] - DIP_GRID[0]
        rows = {}
        for b, dip in zip(delta_b, dips):
            system = perturbed_system(sym, K1, K2, b)
            rows.setdefault((system.delta1, system.delta2), []).append(dip)
        assert set(probes) == set(rows)
        for detunings, row_dips in rows.items():
            assert len(probes[detunings]) == 24 * len(row_dips)
            assert all(type(om) is float for om in probes[detunings])
            assert all(dip.refinement_width <= DIP_WIDTH_MHZ for dip in row_dips)
            assert all(min(abs(to_mhz(om) - dip.dip_location)
                           for dip in row_dips) <= step
                       for om in probes[detunings])

    def test_flat_trace_reported(self):
        grid = np.linspace(0, 1, 11)
        ones = np.ones_like(grid)
        trace = SpectrumTrace(grid=grid, values=ones,
                              values_db=to_db(ones, -120.0), floor_db=-120.0,
                              pole_mask=np.zeros(11, bool))
        with pytest.raises(FlatTraceError):
            find_dip(trace, lambda x: 1.0)

    def test_golden_section_width(self):
        x, _, width = golden_section_min(lambda x: (x - 0.25) ** 2, -1, 1, 1e-8)
        assert width <= 1e-8
        assert x == pytest.approx(0.25, abs=1e-8)


@st.composite
def dip_rows(draw):
    """A sorted delta_b grid of 1 to 40 points in MHz, both signs, tiny
    ones included (their dips sit on the floor), and a predicted location
    per row: near the row's dip, or anywhere on the grid and beyond its
    ends, so that the walk moves many windows."""
    delta_b = sorted(draw(st.lists(
        st.one_of(st.just(0.0), st.floats(1e-9, 0.5), st.floats(-0.5, -1e-9)),
        min_size=1, max_size=40)))
    predicted = draw(st.lists(
        st.one_of(st.floats(-1.0, 1.0), st.floats(-11.0, 11.0)),
        min_size=len(delta_b), max_size=len(delta_b)))
    return delta_b, predicted


def dips_or_error(find):
    """find()'s dips, or the type of the error it raised."""
    try:
        return find()
    except (FlatTraceError, ScatteringPoleError) as exc:
        return type(exc)


class TestSpectrumDip:
    """The lock-step walk over a delta_b column against the walk of each
    row on its own."""

    @staticmethod
    def both(g_mhz, kappas_mhz, rows, floor_db):
        sym = (ep3_sym() if g_mhz is None
               else SymmetricParams.manifold_point(GAMMA, mhz(g_mhz)))
        k1, k2 = mhz(kappas_mhz[0]), mhz(kappas_mhz[1])
        delta_b, predicted = rows
        lock_step = dips_or_error(lambda: spectrum_dip(
            sym, k1, k2, mhz(np.array(delta_b)), predicted, floor_db))
        per_point = dips_or_error(lambda: [
            spectrum_dip_per_point(sym, k1, k2, mhz(b), p, floor_db)
            for b, p in zip(delta_b, predicted)])
        return lock_step, per_point

    @settings(max_examples=100, deadline=None)
    @given(g_mhz=st.one_of(st.none(), st.floats(3.0, 8.0)),
           kappas_mhz=st.tuples(st.floats(3.0, 10.0), st.floats(3.0, 10.0)),
           rows=dip_rows(), floor_db=st.sampled_from([-91.5, -120.0]))
    def test_equals_the_per_point_walk(self, g_mhz, kappas_mhz, rows,
                                       floor_db):
        assume(kappas_mhz[0] != kappas_mhz[1])
        lock_step, per_point = self.both(g_mhz, kappas_mhz, rows, floor_db)
        assert isinstance(lock_step, list)
        assert lock_step == per_point

    @settings(max_examples=50, deadline=None)
    @given(g_mhz=st.one_of(st.none(), st.floats(3.0, 8.0)),
           kappas_mhz=st.tuples(st.floats(3.0, 10.0), st.floats(3.0, 10.0)),
           rows=dip_rows(), pole_tol=st.floats(1.1, 1.6))
    def test_pole_windows_fall_back_to_the_per_point_trace(
            self, g_mhz, kappas_mhz, rows, pole_tol):
        # so high a tolerance flags ordinary points as poles: the windows
        # holding them are sampled point by point, with scalar bits
        assume(kappas_mhz[0] != kappas_mhz[1])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(spectrum, "POLE_TOL", pole_tol)
            lock_step, per_point = self.both(g_mhz, kappas_mhz, rows, -120.0)
        assert lock_step == per_point


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

    @settings(max_examples=25, deadline=None)
    @given(table=float_tables(3), python_floats=st.booleans())
    def test_equals_the_per_row_writer(self, table, python_floats):
        grid, values, values_db = table.T
        if python_floats:
            grid, values, values_db = table.T.tolist()
        trace = SpectrumTrace(grid=grid, values=values, values_db=values_db,
                              floor_db=DEFAULT_FLOOR_DB,
                              pole_mask=np.isnan(table[:, 1]))
        assert trace_to_csv(trace) == trace_to_csv_per_row(trace)

    def test_cpa_trace_equals_the_per_row_writer(self):
        # delta_b = 0: the CPA zeros are exact, so the trace holds a true
        # zero and tiny values; three blocks go through the kernel
        params = ep3_sym().to_system(K1, K2)
        trace = total_output_spectrum(
            params, cpa_drive(params),
            default_grid(points=3 * CSV_BLOCK_ROWS + 1))
        assert np.count_nonzero(trace.values == 0.0) == 1
        assert trace.values.min(where=trace.values > 0, initial=1) < 1e-20
        assert trace_to_csv(trace) == trace_to_csv_per_row(trace)


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
