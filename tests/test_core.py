import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trimag.core import (
    cubic_coeffs,
    eigenvalues_on_manifold,
    locate_ep3,
)
from trimag.cubic import CubicCoeffs, ComplexTriple, cardano_roots
from trimag.params import SymmetricParams, SystemParams, ValidationError, mhz, to_mhz

from oracles import (
    as_array,
    bits,
    companion_roots,
    eigen_residual,
    eigenvectors_on_manifold,
    is_pseudo_hermitian_spectrum,
    is_symmetric,
    multiset_distance,
)

GAMMA = mhz(3.0)


def ep3_params(gamma=GAMMA):
    return locate_ep3(gamma)


class TestCubicCoeffs:
    def test_manifold_kills_constant_term(self):
        sym = SymmetricParams.manifold_point(GAMMA, mhz(4.59))
        coeffs = cubic_coeffs(sym.gamma, sym.g, sym.delta)
        assert abs(coeffs.c0) <= 1e-12 * GAMMA ** 3

    def test_direct_substitution(self):
        coeffs = cubic_coeffs(1.0, 0.0, 0.0)
        assert coeffs.c0 == pytest.approx(2j)
        assert coeffs.c1 == pytest.approx(3.0)

    def test_rounded_degeneracy_point_nearly_cancels(self):
        # 3.46 / 1.73 are 3-digit roundings of the degeneracy, so both
        # coefficients land close to zero relative to their natural scales
        sym = SymmetricParams(gamma=GAMMA, g=mhz(3.46), delta=mhz(1.73))
        coeffs = cubic_coeffs(sym.gamma, sym.g, sym.delta)
        assert abs(coeffs.c0) <= 0.01 * 2 * GAMMA * (sym.delta ** 2 + GAMMA ** 2)
        assert abs(coeffs.c1) <= 0.01 * 3 * GAMMA ** 2

    def test_array_form_gives_each_points_bits(self):
        # signed zeros included: c0 = 2i*gamma*s has real part -0.0 where
        # s < 0, and the closed form's branch cuts see that sign
        g = mhz(np.linspace(0.0, 8.0, 33))
        delta = mhz(np.linspace(-5.0, 5.0, 41))
        grid = cubic_coeffs(GAMMA, g, delta[:, None])
        for i, d in enumerate(delta.tolist()):
            for j, gj in enumerate(g.tolist()):
                point = cubic_coeffs(GAMMA, gj, d)
                assert bits(grid.c0[i, j]) == bits(point.c0)
                assert bits(grid.c1[i, j]) == bits(point.c1)


class TestManifoldEigenvalues:
    def test_degeneracy_collapses_to_zero(self):
        sym = ep3_params()
        values = as_array(eigenvalues_on_manifold(sym))
        assert np.all(np.abs(values) <= 1e-6 * GAMMA)

    def test_zero_branch_is_exact(self):
        for g_mhz in (3.2, 4.0, 5.5):
            sym = SymmetricParams.manifold_point(GAMMA, mhz(g_mhz))
            assert eigenvalues_on_manifold(sym).omega0 == 0

    def test_splitting_anchor(self):
        sym = SymmetricParams.manifold_point(GAMMA, mhz(4.59))
        values = eigenvalues_on_manifold(sym)
        split = to_mhz(values.omega1.real)
        assert split == pytest.approx(5.216, abs=1e-3)
        assert values.omega2 == -values.omega1
        # closed form agrees with the characteristic cubic
        cubic = cardano_roots(cubic_coeffs(sym.gamma, sym.g, sym.delta))
        assert multiset_distance(values, cubic) <= 1e-9 * GAMMA

    def test_branch_convention(self):
        above = SymmetricParams.manifold_point(GAMMA, mhz(4.0))
        vals = eigenvalues_on_manifold(above)
        assert vals.omega1.real > 0 and vals.omega1.imag == 0
        below = SymmetricParams.manifold_point(GAMMA, mhz(3.1))
        vals = eigenvalues_on_manifold(below)
        assert vals.omega1.real == 0 and vals.omega1.imag > 0

    def test_off_manifold_rejected(self):
        sym = SymmetricParams(gamma=GAMMA, g=mhz(4.0), delta=mhz(3.0))
        with pytest.raises(ValidationError):
            eigenvalues_on_manifold(sym)


class TestManifoldEigenvectors:
    def test_degeneracy_coalescence_vector(self):
        sym = ep3_params()
        result = eigenvectors_on_manifold(sym)
        target = np.array([1.0,
                           (-1 - 1j * math.sqrt(3)) / 2,
                           (1 - 1j * math.sqrt(3)) / 2]) / math.sqrt(3)
        for k in range(3):
            assert np.linalg.norm(result.vectors[k] - target) <= 1e-4

    def test_eigen_residuals(self):
        for g_mhz in (3.6, 4.59, 7.0):
            sym = SymmetricParams.manifold_point(GAMMA, mhz(g_mhz))
            result = eigenvectors_on_manifold(sym)
            for value, vector in zip(result.values, result.vectors):
                assert eigen_residual(sym, value, vector) <= 1e-9

    def test_strong_coupling_limit_direction(self):
        sym = SymmetricParams.manifold_point(GAMMA, mhz(3000.0))
        v0 = eigenvectors_on_manifold(sym).vectors[0]
        direction = v0 / v0[0]
        assert direction[1] == pytest.approx(-1.0, abs=1e-2)
        assert direction[2] == pytest.approx(1.0, abs=1e-2)

    def test_normalization_convention(self):
        sym = SymmetricParams.manifold_point(GAMMA, mhz(5.0))
        for v in eigenvectors_on_manifold(sym).vectors:
            assert np.linalg.norm(v) == pytest.approx(1.0)
            assert v[0].imag == pytest.approx(0.0, abs=1e-15)
            assert v[0].real > 0


class TestLocateEp3:
    def test_reference_damping(self):
        point = locate_ep3(GAMMA)
        assert to_mhz(point.g) == pytest.approx(3.4641, abs=1e-3)
        assert to_mhz(point.delta) == pytest.approx(1.7321, abs=1e-3)

    def test_algebraic_identity(self):
        point = locate_ep3(math.sqrt(3) / 2)
        assert point.g == pytest.approx(1.0)
        assert point.delta == pytest.approx(0.5)

    def test_five_mhz_damping_with_coalescence_audit(self):
        point = locate_ep3(mhz(5.0))
        assert to_mhz(point.g) == pytest.approx(5.7735, abs=1e-3)
        assert to_mhz(point.delta) == pytest.approx(2.8868, abs=1e-3)
        oracle = as_array(companion_roots(CubicCoeffs(0j, 0j)))
        assert np.all(np.abs(oracle) <= 1e-8 * mhz(5.0))

    def test_rejects_nonpositive(self):
        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(ValidationError):
                locate_ep3(bad)

    def test_returns_the_degenerate_parameters(self):
        point = locate_ep3(GAMMA)
        assert point == SymmetricParams(GAMMA, 2.0 * GAMMA / math.sqrt(3.0),
                                        GAMMA / math.sqrt(3.0))

    @settings(max_examples=300, deadline=None)
    @given(log10_gamma_mhz=st.floats(-6.0, 6.0))
    def test_triple_degeneracy_across_damping(self, log10_gamma_mhz):
        # eigenvalues and eigenvectors coalesce at every damping, not only
        # at the device point
        gamma = mhz(10.0 ** log10_gamma_mhz)
        point = locate_ep3(gamma)
        assert point.gamma == gamma
        assert point.on_manifold()
        coeffs = cubic_coeffs(point.gamma, point.g, point.delta)
        assert abs(coeffs.c0) <= 1e-12 * gamma ** 3
        assert abs(coeffs.c1) <= 1e-12 * gamma ** 2
        vectors = eigenvectors_on_manifold(point).vectors
        spread = max(np.linalg.norm(vectors[a] - vectors[b])
                     for a, b in ((0, 1), (0, 2), (1, 2)))
        assert spread <= 1e-4


class TestPseudoHermitianPredicate:
    def test_real_triple(self):
        s = mhz(5.216)
        assert is_pseudo_hermitian_spectrum(ComplexTriple(0j, s + 0j, -s + 0j))

    def test_conjugate_pair(self):
        triple = ComplexTriple(0.3 + 0j, 1.2 + 0.7j, 1.2 - 0.7j)
        assert is_pseudo_hermitian_spectrum(triple)

    def test_decoupled_gain_case_is_not_closed(self):
        triple = ComplexTriple(2j, -1j, -1j)
        assert not is_pseudo_hermitian_spectrum(triple)


class TestRegimeSplit:
    def test_reality_above_and_pair_below(self):
        point = locate_ep3(GAMMA)
        for ratio in np.linspace(0.5, 2.0, 200):
            g = ratio * point.g
            if g < GAMMA:
                continue
            sym = SymmetricParams.manifold_point(GAMMA, g)
            roots = cardano_roots(cubic_coeffs(sym.gamma, sym.g, sym.delta))
            assert is_pseudo_hermitian_spectrum(roots)
            imags = sorted(abs(x.imag) for x in roots)
            if g >= point.g:
                assert all(i <= 1e-9 for i in imags)
            else:
                # one real eigenvalue, two forming a conjugate pair
                assert imags[0] <= 1e-9
                arr = as_array(roots)
                pair = sorted(arr, key=lambda z: abs(z.imag))[1:]
                assert pair[0].conjugate() == pytest.approx(pair[1], abs=1e-9)


class TestSymmetricPredicate:
    def test_detects_symmetric_case(self):
        params = SystemParams(
            kappa1=mhz(4), kappa2=mhz(4), kappa_int=mhz(2),
            gamma1=GAMMA, gamma2=GAMMA, g1=mhz(3.46), g2=mhz(3.46),
            delta1=mhz(1.73), delta2=mhz(-1.73))
        assert is_symmetric(params)

    def test_detects_asymmetry(self):
        params = SystemParams(
            kappa1=mhz(4), kappa2=mhz(4), kappa_int=mhz(2),
            gamma1=GAMMA, gamma2=mhz(3.5), g1=mhz(3.46), g2=mhz(3.46),
            delta1=mhz(1.73), delta2=mhz(-1.73))
        assert not is_symmetric(params)
