import math

import numpy as np
import pytest

from trimag.core import (
    build_hamiltonian,
    cubic_coeffs,
    eigenvalues_on_manifold,
    eigenvectors_on_manifold,
    is_pseudo_hermitian_spectrum,
    locate_ep3,
    symmetric_hamiltonian,
)
from trimag.cubic import CubicCoeffs, ComplexTriple, cardano_roots, companion_roots
from trimag.params import SymmetricParams, SystemParams, ValidationError, mhz, to_mhz

from oracles import eigen_residual

GAMMA = mhz(3.0)


def ep3_params(gamma=GAMMA):
    point = locate_ep3(gamma)
    return SymmetricParams(gamma=gamma, g=point.g_ep3, delta=point.delta_ep3)


class TestBuildHamiltonian:
    def test_experimental_point(self):
        params = SystemParams(
            kappa1=mhz(4), kappa2=mhz(4), kappa_int=mhz(2),
            gamma1=GAMMA, gamma2=GAMMA,
            g1=mhz(3.46), g2=mhz(3.46),
            delta1=mhz(1.73), delta2=-mhz(1.73))
        h = build_hamiltonian(params)
        assert h[0, 0] == pytest.approx(1j * mhz(6))
        assert h[1, 2] == 0 and h[2, 1] == 0
        assert h[0, 1] == h[1, 0] == pytest.approx(mhz(3.46))

    def test_zero_params_zero_matrix(self):
        params = SystemParams(0, 0, 0, 0, 0, 0, 0, 0, 0)
        assert np.all(build_hamiltonian(params) == 0)

    def test_trace_identity(self):
        params = SystemParams(
            kappa1=mhz(5), kappa2=mhz(2), kappa_int=mhz(1),
            gamma1=mhz(2.5), gamma2=mhz(1.5),
            g1=mhz(3), g2=mhz(1), delta1=mhz(2), delta2=mhz(-0.7))
        tr = np.trace(build_hamiltonian(params))
        expected = (1j * params.kappa_c - 1j * (params.gamma1 + params.gamma2)
                    + params.delta1 + params.delta2)
        assert tr == pytest.approx(expected)

    def test_symmetric_trace_is_purely_gain_imbalance(self):
        sym = SymmetricParams.manifold_point(GAMMA, mhz(4.0))
        tr = np.trace(symmetric_hamiltonian(sym))
        assert tr == pytest.approx(0.0)  # kappa_c = 2*gamma exactly
        # unbalanced gain: trace = i*(kappa_c - 2*gamma)
        params = SystemParams(
            kappa1=mhz(5), kappa2=mhz(4), kappa_int=mhz(1),
            gamma1=GAMMA, gamma2=GAMMA, g1=mhz(4), g2=mhz(4),
            delta1=mhz(2), delta2=mhz(-2))
        tr = np.trace(build_hamiltonian(params))
        assert tr == pytest.approx(1j * (params.kappa_c - 2 * GAMMA))


class TestCubicCoeffs:
    def test_manifold_kills_constant_term(self):
        sym = SymmetricParams.manifold_point(GAMMA, mhz(4.59))
        coeffs = cubic_coeffs(sym)
        assert abs(coeffs.c0) <= 1e-12 * GAMMA ** 3

    def test_direct_substitution(self):
        coeffs = cubic_coeffs(SymmetricParams(gamma=1.0, g=0.0, delta=0.0))
        assert coeffs.c0 == pytest.approx(2j)
        assert coeffs.c1 == pytest.approx(3.0)

    def test_rounded_degeneracy_point_nearly_cancels(self):
        # 3.46 / 1.73 are 3-digit roundings of the degeneracy, so both
        # coefficients land close to zero relative to their natural scales
        sym = SymmetricParams(gamma=GAMMA, g=mhz(3.46), delta=mhz(1.73))
        coeffs = cubic_coeffs(sym)
        assert abs(coeffs.c0) <= 0.01 * 2 * GAMMA * (sym.delta ** 2 + GAMMA ** 2)
        assert abs(coeffs.c1) <= 0.01 * 3 * GAMMA ** 2


class TestManifoldEigenvalues:
    def test_degeneracy_collapses_to_zero(self):
        sym = ep3_params()
        values = eigenvalues_on_manifold(sym).as_array()
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
        cubic = cardano_roots(cubic_coeffs(sym))
        from trimag.cubic import multiset_distance
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
        assert to_mhz(point.g_ep3) == pytest.approx(3.4641, abs=1e-3)
        assert to_mhz(point.delta_ep3) == pytest.approx(1.7321, abs=1e-3)

    def test_algebraic_identity(self):
        point = locate_ep3(math.sqrt(3) / 2)
        assert point.g_ep3 == pytest.approx(1.0)
        assert point.delta_ep3 == pytest.approx(0.5)

    def test_five_mhz_damping_with_coalescence_audit(self):
        point = locate_ep3(mhz(5.0))
        assert to_mhz(point.g_ep3) == pytest.approx(5.7735, abs=1e-3)
        assert to_mhz(point.delta_ep3) == pytest.approx(2.8868, abs=1e-3)
        oracle = companion_roots(CubicCoeffs(0j, 0j)).as_array()
        assert np.all(np.abs(oracle) <= 1e-8 * mhz(5.0))

    def test_rejects_nonpositive(self):
        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(ValidationError):
                locate_ep3(bad)


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
            g = ratio * point.g_ep3
            if g < GAMMA:
                continue
            sym = SymmetricParams.manifold_point(GAMMA, g)
            roots = cardano_roots(cubic_coeffs(sym))
            assert is_pseudo_hermitian_spectrum(roots)
            imags = sorted(abs(x.imag) for x in roots)
            if g >= point.g_ep3:
                assert all(i <= 1e-9 for i in imags)
            else:
                # one real eigenvalue, two forming a conjugate pair
                assert imags[0] <= 1e-9
                arr = roots.as_array()
                pair = sorted(arr, key=lambda z: abs(z.imag))[1:]
                assert pair[0].conjugate() == pytest.approx(pair[1], abs=1e-9)


class TestSymmetricPredicate:
    def test_detects_symmetric_case(self):
        params = SystemParams(
            kappa1=mhz(4), kappa2=mhz(4), kappa_int=mhz(2),
            gamma1=GAMMA, gamma2=GAMMA, g1=mhz(3.46), g2=mhz(3.46),
            delta1=mhz(1.73), delta2=mhz(-1.73))
        assert params.is_symmetric()

    def test_detects_asymmetry(self):
        params = SystemParams(
            kappa1=mhz(4), kappa2=mhz(4), kappa_int=mhz(2),
            gamma1=GAMMA, gamma2=mhz(3.5), g1=mhz(3.46), g2=mhz(3.46),
            delta1=mhz(1.73), delta2=mhz(-1.73))
        assert not params.is_symmetric()
