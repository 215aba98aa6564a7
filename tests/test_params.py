import math

import pytest

from trimag.params import (
    DriveParams,
    SymmetricParams,
    SystemParams,
    ValidationError,
    mhz,
    to_mhz,
)

from oracles import is_symmetric


def test_unit_round_trip():
    assert to_mhz(mhz(3.25)) == pytest.approx(3.25, rel=1e-15)
    assert mhz(1.0) == pytest.approx(2 * math.pi)


class TestSystemParams:
    def test_effective_gain(self):
        params = SystemParams(kappa1=mhz(4), kappa2=mhz(4), kappa_int=mhz(2),
                              gamma1=mhz(3), gamma2=mhz(3), g1=0, g2=0,
                              delta1=0, delta2=0)
        assert params.kappa_c == pytest.approx(mhz(6))

    @pytest.mark.parametrize("field,value", [
        ("kappa1", -1.0), ("gamma2", -0.5), ("g1", -2.0),
        ("kappa_int", math.nan), ("delta1", math.inf),
    ])
    def test_invalid_fields_rejected(self, field, value):
        kwargs = dict(kappa1=1.0, kappa2=1.0, kappa_int=0.5, gamma1=1.0,
                      gamma2=1.0, g1=1.0, g2=1.0, delta1=0.0, delta2=0.0)
        kwargs[field] = value
        with pytest.raises(ValidationError):
            SystemParams(**kwargs)


class TestSymmetricParams:
    def test_manifold_predicate(self):
        sym = SymmetricParams.manifold_point(mhz(3), mhz(4.59))
        assert sym.on_manifold()
        off = SymmetricParams(gamma=mhz(3), g=mhz(4.59), delta=mhz(4.59))
        assert not off.on_manifold()

    def test_manifold_point_needs_enough_coupling(self):
        with pytest.raises(ValidationError):
            SymmetricParams.manifold_point(mhz(3), mhz(2.9))

    def test_negative_delta_is_on_manifold(self):
        sym = SymmetricParams(gamma=mhz(3), g=mhz(4.59),
                              delta=-math.sqrt(mhz(4.59) ** 2 - mhz(3) ** 2))
        assert sym.on_manifold()

    def test_to_system_expands_symmetrically(self):
        sym = SymmetricParams.manifold_point(mhz(3), mhz(4.0))
        params = sym.to_system(mhz(4), mhz(4))
        assert params.kappa_int == pytest.approx(mhz(2))
        assert params.kappa_c == pytest.approx(2 * sym.gamma)
        assert params.delta2 == -params.delta1
        assert is_symmetric(params)

    def test_to_system_rejects_insufficient_port_rates(self):
        sym = SymmetricParams.manifold_point(mhz(3), mhz(4.0))
        with pytest.raises(ValidationError):
            sym.to_system(mhz(1), mhz(1))

    def test_gamma_must_be_positive(self):
        with pytest.raises(ValidationError):
            SymmetricParams(gamma=0.0, g=1.0, delta=0.0)


class TestDriveParams:
    def test_phase_wrapping(self):
        assert DriveParams(p=1.0, phi=3 * math.pi).phi == pytest.approx(math.pi)
        assert DriveParams(p=1.0, phi=-math.pi).phi == pytest.approx(math.pi)
        assert DriveParams(p=1.0, phi=0.3).phi == pytest.approx(0.3)

    def test_amplitude(self):
        drive = DriveParams(p=4.0, phi=0.0)
        assert drive.amplitude == pytest.approx(2.0)
        quarter = DriveParams(p=1.0, phi=math.pi / 2)
        assert quarter.amplitude == pytest.approx(-1j)

    def test_power_ratio_must_be_positive(self):
        for bad in (0.0, -1.0, math.inf):
            with pytest.raises(ValidationError):
                DriveParams(p=bad)
