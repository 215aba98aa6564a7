import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from trimag import sensing
from trimag.core import locate_ep3
from trimag.cubic import CubicCoeffs, cardano_roots
from trimag.params import SymmetricParams, ValidationError, mhz, to_mhz
from trimag.spectrum import FloorClampError, default_grid
from trimag.sensing import (
    RAMP_STEPS,
    BranchTrackingError,
    Perturbation,
    SensitivityChain,
    SensitivityReport,
    _select_central,
    central_branch,
    cube_root_response,
    detectable_b_min,
    eigenshift_sweep,
    exact_eigenshift,
    fit_loglog_slope,
    g_cpa_factor,
    g_ep3_factor,
    linear_response,
    sensitivity_report,
    synthetic_sensitivity,
)

from oracles import bits, delta_b_of_shift, global_spectrum_dip

GAMMA = mhz(3.0)


def ep3_sym(gamma=GAMMA):
    return locate_ep3(gamma)


def scalar_ramp_branch(sym, delta_b, steps=RAMP_STEPS):
    """Reference: one scalar closed-form solve per ramp step.

    The continuation as it was before the batched kernel, with the
    perturbed cubic written out independently of the package.
    """
    if delta_b == 0.0:
        return 0j
    g2, gam = sym.g * sym.g, sym.gamma
    x, fresh = 0j, True
    for t in np.linspace(0.0, 1.0, steps + 1)[1:]:
        b = delta_b * t
        p_w = complex(4.0 * gam * gam - 3.0 * g2, 2.0 * gam * b)
        q_w = complex(-g2 * b, 0.0)
        coeffs = CubicCoeffs(c0=q_w - b * p_w / 3.0 + 2.0 * b ** 3 / 27.0,
                             c1=p_w - b * b / 3.0)
        x = _select_central(tuple(cardano_roots(coeffs)), x, gam, fresh)
        fresh = False
    return x


# delta_b of fig3c, fig3f and fig4, in MHz
FIGURE_GRIDS = {
    "fig3c": np.geomspace(1e-4, 1e-2, 50),
    "fig3f": np.geomspace(5e-3, 0.05, 13),
    "fig4": np.unique(np.append(np.geomspace(1e-3, 0.05, 17), 0.025)),
    "geomspace12": np.geomspace(1e-3, 0.04, 12),
}

# sweep ends; below about 1e-19 rad/us the rounding of the cubic's
# coefficients, not delta_b, picks the ramp's branch at the degeneracy
DELTA_B_MHZ = st.one_of(st.just(0.0), st.floats(1e-9, 0.3),
                        st.floats(-0.3, -1e-9))


class TestExactEigenshift:
    def test_unperturbed_is_zero(self):
        assert exact_eigenshift(ep3_sym(), Perturbation(0.0)) == 0.0

    def test_reference_anchor(self):
        shift = exact_eigenshift(ep3_sym(), Perturbation(mhz(0.025)))
        assert shift == pytest.approx(0.67, abs=0.01)

    def test_agrees_with_cube_root_law(self):
        sym = ep3_sym()
        for b_mhz in np.geomspace(1e-4, 0.05, 25):
            shift = exact_eigenshift(sym, Perturbation(mhz(b_mhz)))
            law = to_mhz(cube_root_response(sym.g, mhz(b_mhz)))
            assert abs(shift - law) / law <= 0.02

    def test_sign_symmetry(self):
        sym = ep3_sym()
        for b_mhz in (1e-4, 1e-3, 0.03):
            plus = exact_eigenshift(sym, Perturbation(mhz(b_mhz)))
            minus = exact_eigenshift(sym, Perturbation(-mhz(b_mhz)))
            assert abs(abs(minus) - abs(plus)) / abs(plus) <= 0.02
            assert plus > 0 > minus

    def test_branch_continuity(self):
        # fine monotone sweep up to 0.05*gamma: no branch jumps
        sym = ep3_sym()
        bs = mhz(np.linspace(1e-4, 0.05 * 3.0, 300))
        shifts = eigenshift_sweep(sym, bs)
        diffs = np.diff(shifts)
        assert np.all(diffs > 0)
        # increments shrink like the cube-root law, never jump branch-scale
        assert np.max(np.abs(diffs)) <= 0.2

    @pytest.mark.parametrize("g_mhz", [None, 4.59], ids=["g_ep3", "g4.59"])
    @pytest.mark.parametrize("grid", sorted(FIGURE_GRIDS))
    def test_sweep_matches_single_calls(self, grid, g_mhz):
        sym = (ep3_sym() if g_mhz is None
               else SymmetricParams.manifold_point(GAMMA, mhz(g_mhz)))
        bs = mhz(FIGURE_GRIDS[grid])
        swept = eigenshift_sweep(sym, bs)
        singles = [exact_eigenshift(sym, Perturbation(b)) for b in bs]
        assert np.array_equal(swept, singles)

    @settings(max_examples=300, deadline=None)
    @given(g=st.one_of(
               st.none(),
               st.floats(3.0, 8.0).map(mhz),
               st.tuples(st.integers(2, 13), st.sampled_from([-1.0, 1.0])).map(
                   lambda k: locate_ep3(GAMMA).g * (1.0 + k[1] * 10.0 ** -k[0]))),
           log_b=st.floats(-9.0, 2.5),
           sign=st.sampled_from([-1.0, 1.0]))
    def test_central_branch_equals_scalar_ramp(self, g, log_b, sign):
        # seeded or ramped, at and near the degeneracy and away from it; up
        # to 300 MHz, so branch losses are drawn as well
        sym = (ep3_sym() if g is None
               else SymmetricParams.manifold_point(GAMMA, g))
        delta_b = sign * mhz(10.0 ** log_b)
        try:
            expected = scalar_ramp_branch(sym, delta_b)
        except BranchTrackingError:
            with pytest.raises(BranchTrackingError):
                central_branch(sym, delta_b)
        else:
            assert central_branch(sym, delta_b) == expected

    @pytest.mark.parametrize("g_mhz", [None, 3.47, 4.59])
    def test_array_cubic_rows_are_the_scalar_cubic(self, g_mhz):
        # a ramp or sweep row and central_branch's numpy-scalar delta_b
        # give the same coefficients, so the tracked root is a scalar root
        sym = (ep3_sym() if g_mhz is None
               else SymmetricParams.manifold_point(GAMMA, mhz(g_mhz)))
        bs = mhz(np.geomspace(1e-9, 300.0, 3000))
        bs = np.concatenate([bs, -bs])
        rows = sensing._depressed_cubic(sym, bs)
        for i, b in enumerate(bs):
            point = sensing._depressed_cubic(sym, np.float64(b))
            assert bits(rows.c0[i]) == bits(point.c0)
            assert bits(rows.c1[i]) == bits(point.c1)

    def test_ambiguous_seed_takes_the_ramp(self, monkeypatch):
        # just above the degeneracy the linear law is no guide at 0.01 MHz
        ramps = []
        track = sensing._track
        monkeypatch.setattr(sensing, "_track",
                            lambda *args: ramps.append(args) or track(*args))
        near = SymmetricParams.manifold_point(GAMMA, mhz(3.47))
        assert central_branch(near, mhz(0.01)) == scalar_ramp_branch(
            near, mhz(0.01))
        assert len(ramps) == 1
        assert central_branch(ep3_sym(), mhz(0.025)) == scalar_ramp_branch(
            ep3_sym(), mhz(0.025))
        assert len(ramps) == 1

    @settings(max_examples=100, deadline=None)
    @given(log_b=st.floats(-22.0, -9.0), sign=st.sampled_from([-1.0, 1.0]))
    def test_tiny_shift_follows_the_puiseux_term(self, log_b, sign):
        # below about 1e-19 rad/us the ramp picks an arbitrary branch; the
        # seed keeps the sign of delta_b down to 1e-22 rad/us, and the
        # cube-root law from 5e-21 rad/us up
        delta_b = sign * 10.0 ** log_b
        shift = central_branch(ep3_sym(), delta_b).real
        law = cube_root_response(ep3_sym().g, abs(delta_b))
        assert math.copysign(1.0, shift) == sign
        if abs(delta_b) >= 5e-21:
            assert abs(abs(shift) - law) <= 0.05 * law

    @settings(max_examples=200, deadline=None)
    @given(g_mhz=st.sampled_from([None, 3.6, 4.59, 6.0, 8.0]),
           ends=st.lists(DELTA_B_MHZ, min_size=2, max_size=2,
                         unique=True).map(sorted),
           points=st.integers(1, 40))
    def test_sweep_equals_single_calls_on_any_grid(self, g_mhz, ends, points):
        sym = (ep3_sym() if g_mhz is None
               else SymmetricParams.manifold_point(GAMMA, mhz(g_mhz)))
        bs = mhz(np.linspace(*ends, points))
        singles = [exact_eigenshift(sym, Perturbation(b)) for b in bs]
        assert np.array_equal(eigenshift_sweep(sym, bs), singles)

    @pytest.mark.parametrize("grid", [[0.3], [1.4e-4, 0.104], [-0.28, -1e-6]],
                             ids=["one_point", "step_more_than_doubles",
                                  "step_more_than_halves"])
    def test_sweep_reseeds_where_continuation_would_jump(self, grid):
        # continued along the axis, each lands on another branch
        bs = mhz(np.array(grid))
        singles = [exact_eigenshift(ep3_sym(), Perturbation(b)) for b in bs]
        assert np.array_equal(eigenshift_sweep(ep3_sym(), bs), singles)

    def test_linear_scaling_away_from_degeneracy(self):
        sym = SymmetricParams.manifold_point(GAMMA, mhz(4.59))
        shifts = [exact_eigenshift(sym, Perturbation(mhz(b)))
                  for b in (1e-4, 1e-3, 1e-2)]
        # slope one: tenfold perturbation, tenfold shift
        assert shifts[1] / shifts[0] == pytest.approx(10.0, rel=1e-3)
        assert shifts[2] / shifts[1] == pytest.approx(10.0, rel=1e-2)

    def test_off_manifold_rejected(self):
        sym = SymmetricParams(gamma=GAMMA, g=mhz(4.0), delta=mhz(3.0))
        with pytest.raises(ValidationError):
            exact_eigenshift(sym, Perturbation(mhz(0.01)))


class TestDeltaBOfShift:
    def test_zero_shift(self):
        assert delta_b_of_shift(ep3_sym(), 0.0) == 0.0

    def test_degeneracy_reduction(self):
        # at the degeneracy the linear term drops and the map reduces to
        # Om'^3 (Om'^2 + g^2) / (g^4 + 2 Om'^2 (Om'^2 + 2 g^2))
        sym = ep3_sym()
        op = mhz(0.67)
        g2 = sym.g ** 2
        expected = op ** 3 * (op ** 2 + g2) / (
            g2 ** 2 + 2 * op ** 2 * (op ** 2 + 2 * g2))
        assert delta_b_of_shift(sym, op) == pytest.approx(expected, rel=1e-12)

    def test_small_shift_cube_law_arithmetic(self):
        # 0.67^3 / 3.46^2 ~ 0.025: the small-shift limit of the exact map
        small_form = 0.67 ** 3 / 3.46 ** 2
        assert small_form == pytest.approx(0.025, abs=1e-3)
        full = to_mhz(delta_b_of_shift(ep3_sym(), mhz(0.67)))
        assert full == pytest.approx(small_form, rel=0.12)

    def test_round_trip_error_vanishes(self):
        # recovered perturbation converges on the true one as it shrinks
        sym = ep3_sym()
        rel_errors = []
        for b_mhz in (1e-2, 1e-3, 1e-4, 1e-5):
            shift = exact_eigenshift(sym, Perturbation(mhz(b_mhz)))
            recovered = to_mhz(delta_b_of_shift(sym, mhz(shift)))
            rel_errors.append(abs(recovered - b_mhz) / b_mhz)
        assert all(a > b for a, b in zip(rel_errors, rel_errors[1:]))
        assert rel_errors[-1] <= 5e-3


class TestResponseLaws:
    def test_cube_root_zero(self):
        assert cube_root_response(mhz(3.4641), 0.0) == 0.0

    def test_cube_root_anchor(self):
        shift = cube_root_response(locate_ep3(GAMMA).g, mhz(0.025))
        assert to_mhz(shift) == pytest.approx(0.67, abs=0.001)

    def test_cube_root_exact_scaling(self):
        g = mhz(3.4641)
        assert cube_root_response(g, 8 * mhz(0.004)) == pytest.approx(
            2 * cube_root_response(g, mhz(0.004)), rel=1e-12)

    def test_cube_root_rejects_negative(self):
        with pytest.raises(ValidationError):
            cube_root_response(mhz(3.4641), -1.0)

    def test_linear_zero(self):
        sym = SymmetricParams.manifold_point(GAMMA, mhz(4.59))
        assert linear_response(sym, 0.0) == 0.0

    def test_linear_coefficient(self):
        sym = SymmetricParams.manifold_point(GAMMA, mhz(4.59))
        shift = linear_response(sym, mhz(0.025))
        assert to_mhz(shift) == pytest.approx(0.2256 * 0.025, rel=1e-3)

    def test_linear_exact_slope_one(self):
        sym = SymmetricParams.manifold_point(GAMMA, mhz(4.59))
        assert linear_response(sym, 10 * mhz(0.001)) == pytest.approx(
            10 * linear_response(sym, mhz(0.001)), rel=1e-12)

    def test_linear_rejected_at_degeneracy(self):
        with pytest.raises(ValidationError):
            linear_response(ep3_sym(), mhz(0.01))


class TestSensitivityFactors:
    def test_gep3_anchor(self):
        assert g_ep3_factor(mhz(3.46), mhz(0.025)) == pytest.approx(26.8, abs=0.1)

    def test_gep3_definitional_identity(self):
        g, b = mhz(3.4641), mhz(0.016)
        assert g_ep3_factor(g, b) * b == pytest.approx(
            cube_root_response(g, b), rel=1e-12)

    def test_gep3_power_law(self):
        g = mhz(3.4641)
        assert g_ep3_factor(g, 8 * mhz(0.002)) == pytest.approx(
            g_ep3_factor(g, mhz(0.002)) / 4.0, rel=1e-12)

    def test_gep3_divergence_sentinel(self):
        assert g_ep3_factor(mhz(3.4641), 0.0) == math.inf

    def test_gcpa_published_arithmetic(self):
        # a 21.5 dB dip change over a 0.67 MHz shift
        assert g_cpa_factor(-91.5, -70.0, 0.67) == pytest.approx(32.1, abs=0.1)

    def test_gcpa_zero_change(self):
        assert g_cpa_factor(-91.5, -91.5, 0.5) == 0.0

    def test_gcpa_floor_sensitivity(self):
        dw = 0.6695
        shallow = g_cpa_factor(-91.5, -62.9, dw)
        deep = g_cpa_factor(-120.0, -62.9, dw)
        assert deep - shallow == pytest.approx(28.5 / dw, rel=1e-12)

    def test_gcpa_rejects_nonpositive_shift(self):
        with pytest.raises(ValidationError):
            g_cpa_factor(-91.5, -70.0, 0.0)

    def test_synthetic_product(self):
        assert synthetic_sensitivity(32.1, 26.8) == pytest.approx(860, abs=1.0)
        assert synthetic_sensitivity(0.0, 26.8) == 0.0

    def test_detectable_field_anchor(self):
        assert detectable_b_min(1e-13, 860.0) == pytest.approx(
            4.2e-21, abs=0.2e-21)

    def test_detectable_field_inverse_proportionality(self):
        assert detectable_b_min(1e-13, 1720.0) == pytest.approx(
            detectable_b_min(1e-13, 860.0) / 2.0, rel=1e-12)

    def test_detectable_field_unit_identity(self):
        # 28 GHz/T is 28e3 MHz/T: 28e3 dB at 1 dB/MHz resolves 1 T
        assert detectable_b_min(28e3, 1.0) == pytest.approx(1.0)

    def test_detectable_field_rejects_zero_sensitivity(self):
        with pytest.raises(ValidationError):
            detectable_b_min(1e-13, 0.0)


class TestSlopeFit:
    def test_exact_half_power(self):
        xs = np.geomspace(1e-4, 1e-2, 30)
        fit = fit_loglog_slope([(x, math.sqrt(x)) for x in xs], (1e-4, 1e-2))
        assert fit.slope == pytest.approx(0.5, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_exact_eigenshift_slopes(self):
        sym = ep3_sym()
        pts = [(b, exact_eigenshift(sym, Perturbation(mhz(b))))
               for b in np.geomspace(1e-4, 1e-2, 50)]
        fit = fit_loglog_slope(pts, (1e-4, 1e-2))
        assert fit.slope == pytest.approx(1.0 / 3.0, abs=0.02)

        away = SymmetricParams.manifold_point(GAMMA, mhz(4.59))
        pts = [(b, abs(exact_eigenshift(away, Perturbation(mhz(b)))))
               for b in np.geomspace(1e-4, 1e-2, 50)]
        fit = fit_loglog_slope(pts, (1e-4, 1e-2))
        assert fit.slope == pytest.approx(1.0, abs=0.02)

    def test_insufficient_points_reported(self):
        with pytest.raises(ValidationError):
            fit_loglog_slope([(1e-3, 1e-2)] * 3, (1e-4, 1e-2))

    def test_window_filtering(self):
        pts = [(x, x) for x in np.geomspace(1e-5, 1.0, 40)]
        fit = fit_loglog_slope(pts, (1e-4, 1e-2))
        assert fit.window == (1e-4, 1e-2)
        assert fit.slope == pytest.approx(1.0, abs=1e-12)


def ep3_chain(delta_b_mhz, floor_db=-91.5, sym=None):
    return SensitivityChain(sym or ep3_sym(), delta_b_mhz, mhz(4.0), mhz(4.0),
                            floor_db)


class TestSensitivityChain:
    def test_one_point_is_the_report(self):
        chain = ep3_chain(0.025)
        report = sensitivity_report(0.025, floor_db=-91.5)
        assert (chain.delta_omega[0], chain.g_ep3[0], chain.g_cpa[0],
                chain.g_syn[0], chain.delta_b_min()[0]) == (
            report.delta_omega, report.g_ep3, report.g_cpa, report.g_syn,
            report.delta_b_min)

    def test_columns_follow_the_factor_functions(self):
        chain = ep3_chain([0.01, 0.025, 0.04])
        for i, b in enumerate(chain.delta_b):
            gep3 = g_ep3_factor(ep3_sym().g, mhz(b))
            gcpa = g_cpa_factor(-91.5, chain.dip_db[i], chain.delta_omega[i])
            assert (chain.g_ep3[i], chain.g_cpa[i], chain.g_syn[i]) == (
                gep3, gcpa, synthetic_sensitivity(gcpa, gep3))

    def test_shift_and_dip_off_the_degeneracy(self):
        # the dip columns run at any manifold point; the factors do not
        sym = SymmetricParams.manifold_point(GAMMA, mhz(4.59))
        chain = ep3_chain([-0.02, 0.02], sym=sym)
        assert chain.delta_omega[0] == -chain.delta_omega[1] > 0
        assert len(chain.dips) == 2
        with pytest.raises(ValidationError, match="g = 3.4641016 MHz"):
            chain.g_syn

    def test_floor_clamp_is_named_at_its_first_point(self):
        chain = ep3_chain([1e-3, 1.5e-3, 0.025])
        assert chain.clamped.tolist() == [True, True, False]
        assert chain.g_cpa[0] == 0.0 and chain.g_syn[1] == 0.0
        with pytest.raises(FloorClampError, match="delta_b = 0.001 MHz"):
            chain.delta_b_min()

    @pytest.mark.parametrize("g_mhz,delta_b_mhz,floor_db", [
        (None, np.geomspace(1e-4, 0.05, 100), -91.5),
        (None, FIGURE_GRIDS["fig4"], -91.5),
        (4.59, np.linspace(-0.05, 0.05, 21), -120.0),
    ], ids=["fig3d", "fig4", "dip_g459"])
    def test_dips_equal_the_global_search(self, g_mhz, delta_b_mhz, floor_db):
        # the window's values are the full grid's, bit for bit, on this CPU
        sym = (ep3_sym() if g_mhz is None
               else SymmetricParams.manifold_point(GAMMA, mhz(g_mhz)))
        chain = ep3_chain(delta_b_mhz, floor_db, sym)
        assert chain.dips == [
            global_spectrum_dip(sym, mhz(4.0), mhz(4.0), mhz(b), floor_db)
            for b in chain.delta_b]

    @settings(max_examples=100, deadline=None)
    @given(g_mhz=st.one_of(st.none(), st.floats(3.0, 8.0)),
           delta_b_mhz=st.one_of(st.floats(1e-9, 0.5), st.floats(-0.5, -1e-9)))
    @example(g_mhz=3.6, delta_b_mhz=0.001)
    def test_dip_is_the_zero_the_branch_predicts(self, g_mhz, delta_b_mhz):
        # at g = 3.6 MHz, delta_b = 0.001 MHz the global grid minimum is the
        # CPA zero at +1.70 MHz, 170 grid steps from the tracked branch
        sym = (ep3_sym() if g_mhz is None
               else SymmetricParams.manifold_point(GAMMA, mhz(g_mhz)))
        # a real eigenvalue is a CPA zero; a complex one's dip drifts off its
        # real part as the imaginary part grows
        assume(abs(to_mhz(central_branch(sym, mhz(delta_b_mhz)).imag)) <= 0.1)
        chain = ep3_chain([delta_b_mhz], sym=sym)
        predicted = chain.delta_omega[0] + 2.0 * delta_b_mhz / 3.0
        step = default_grid()[1] - default_grid()[0]
        assert abs(chain.dips[0].dip_location - predicted) <= 3 * step


class TestSensitivityReport:
    def test_json_field_names(self):
        report = SensitivityReport(delta_b=0.025, delta_omega=0.6695,
                                   g_ep3=26.78, g_cpa=42.67,
                                   g_syn=42.67 * 26.78, delta_b_min=3.1e-21)
        payload = json.loads(report.to_json())
        assert list(payload) == [
            "delta_b_mhz", "delta_omega_mhz", "g_ep3", "g_cpa_db_per_mhz",
            "g_syn_db_per_mhz", "delta_b_min_tesla"]

    def test_product_identity_enforced(self):
        with pytest.raises(ValidationError):
            SensitivityReport(delta_b=0.025, delta_omega=0.6695,
                              g_ep3=26.78, g_cpa=42.67, g_syn=860.0,
                              delta_b_min=3.1e-21)

    def test_pipeline_regression_experimental_floor(self):
        report = sensitivity_report(0.025, floor_db=-91.5)
        assert report.delta_omega == pytest.approx(0.6694677, abs=1e-6)
        assert report.g_ep3 == pytest.approx(26.77732, abs=1e-4)
        assert report.g_cpa == pytest.approx(42.6679, abs=0.05)
        assert report.g_syn == pytest.approx(1142.53, abs=1.0)
        assert report.delta_b_min == pytest.approx(3.126e-21, rel=1e-3)

    def test_pipeline_model_floor_mode(self):
        shallow = sensitivity_report(0.025, floor_db=-91.5)
        deep = sensitivity_report(0.025, floor_db=-120.0)
        assert deep.g_cpa > shallow.g_cpa
        assert deep.g_cpa - shallow.g_cpa == pytest.approx(
            28.5 / shallow.delta_omega, rel=1e-6)

    def test_pipeline_product_matches_end_to_end_ratio(self):
        report = sensitivity_report(0.025, floor_db=-91.5)
        dip_change_db = report.g_cpa * report.delta_omega
        end_to_end = dip_change_db / report.delta_b
        assert report.g_syn == pytest.approx(end_to_end, rel=0.01)

    def test_rejects_nonpositive_perturbation(self):
        with pytest.raises(ValidationError):
            sensitivity_report(0.0)

    @pytest.mark.parametrize("delta_b_mhz", [1e-9, 1e-4, 2e-3])
    def test_floor_clamped_dip_is_a_numerical_limit(self, delta_b_mhz):
        # the perturbed dip sits on the floor: its contrast is not resolved,
        # which is a limit of the floor, not an invalid input
        with pytest.raises(FloorClampError, match="-91.5 dB floor"):
            sensitivity_report(delta_b_mhz, floor_db=-91.5)
