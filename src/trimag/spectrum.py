"""Two-port input-output spectra and coherent-perfect-absorption analysis.

Steady state of the driven system gives reflection and transmission

    t12 = t21 = -2*sqrt(kappa1*kappa2) / (m + i*n)
    r_jj = -1 - 2*kappa_j / (m + i*n)

with the response functions (Omega is the probe offset from the cavity)

    m(Omega) = -(kappa1 + kappa2 + kappa_int) - sum_j g_j^2*gamma_j / L_j
    n(Omega) =  Omega - sum_j g_j^2*(Omega - delta_j) / L_j
    L_j      = (Omega - delta_j)^2 + gamma_j^2

Port outputs under a two-port drive with amplitude ratio x = sqrt(p)e^{-i phi}
are S1 = r11*x + t12 and S2 = r22 + t21*x, and the total output power is
|S1|^2 + |S2|^2.  Driving with x = sqrt(kappa1/kappa2) makes both outputs
vanish exactly at every real eigenvalue of the balanced-manifold system:
coherent perfect absorption.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .params import (
    DEFAULT_TOL,
    DriveParams,
    SymmetricParams,
    SystemParams,
    ValidationError,
    mhz,
)

DEFAULT_FLOOR_DB = -120.0
EXPERIMENTAL_FLOOR_DB = -91.5

#: |m + i n| below this (relative to the total dissipation scale) is
#: treated as a scattering pole: the gain-compensated system would
#: self-oscillate there, and the point is flagged instead of evaluated.
POLE_TOL = 1e-12

CSV_HEADER = "omega_mhz,s_tot_linear,s_tot_db"


class ScatteringPoleError(ArithmeticError):
    """m + i*n vanished: the drive response diverges at this frequency."""


class FlatTraceError(ValueError):
    """A trace has no strict interior minimum to refine."""


class FloorClampError(ArithmeticError):
    """A dip sits on the dB floor, so its depth is not resolved."""


def _any(mask) -> bool:
    """np.any, without its dispatch cost on the 0-d values of a scalar probe."""
    return mask.any() if isinstance(mask, np.ndarray) else bool(mask)


def mn_functions(params: SystemParams, omega: float | np.ndarray):
    """Response functions (m, n) at probe offset omega (rad/us).

    Requires gamma_j > 0 whenever the probe can sit on the corresponding
    magnon line; a zero-damping magnon probed exactly on resonance is a
    genuine pole and is rejected.
    """
    d1 = omega - params.delta1
    d2 = omega - params.delta2
    l1 = d1 * d1 + params.gamma1 * params.gamma1
    l2 = d2 * d2 + params.gamma2 * params.gamma2
    if _any(l1 == 0) or _any(l2 == 0):
        raise ScatteringPoleError(
            "undamped magnon probed on resonance (zero Lorentzian width)")
    g1sq = params.g1 * params.g1
    g2sq = params.g2 * params.g2
    m = (-(params.kappa1 + params.kappa2 + params.kappa_int)
         - g1sq * params.gamma1 / l1 - g2sq * params.gamma2 / l2)
    n = omega - g1sq * d1 / l1 - g2sq * d2 / l2
    return m, n


def _denominator(params: SystemParams, omega):
    m, n = mn_functions(params, omega)
    den = m + 1j * n
    scale = max(params.kappa1 + params.kappa2 + params.kappa_int,
                params.gamma1, params.gamma2, 1e-30)
    if _any(abs(den) < POLE_TOL * scale):
        raise ScatteringPoleError("scattering pole: |m + i n| ~ 0")
    return m, n, den


def scattering_coeffs(params: SystemParams, omega: float):
    """(t12, t21, r11, r22) at probe offset omega (rad/us)."""
    _, _, den = _denominator(params, omega)
    t = -2.0 * math.sqrt(params.kappa1 * params.kappa2) / den
    r11 = -1.0 - 2.0 * params.kappa1 / den
    r22 = -1.0 - 2.0 * params.kappa2 / den
    return t, t, r11, r22


def output_amplitudes(params: SystemParams, drive: DriveParams, omega: float):
    """Port output amplitudes (S1, S2) for a unit drive at port 2."""
    t12, t21, r11, r22 = scattering_coeffs(params, omega)
    x = drive.amplitude
    return r11 * x + t12, r22 + t21 * x


def total_output(params: SystemParams, drive: DriveParams, omega) -> float:
    """|S1|^2 + |S2|^2 at probe offset omega (rad/us); vectorized."""
    m, n, den = _denominator(params, omega)
    x = drive.amplitude
    t = -2.0 * math.sqrt(params.kappa1 * params.kappa2) / den
    s1 = (-1.0 - 2.0 * params.kappa1 / den) * x + t
    s2 = (-1.0 - 2.0 * params.kappa2 / den) + t * x
    return np.abs(s1) ** 2 + np.abs(s2) ** 2


def cpa_drive(params: SystemParams) -> DriveParams:
    """The unique drive with input ratio sqrt(kappa1/kappa2), phase 0.

    This is the absorption condition: both port outputs vanish wherever the
    balanced system has a real eigenvalue.
    """
    if params.kappa2 <= 0:
        raise ValidationError("cpa drive requires kappa2 > 0")
    return DriveParams(p=params.kappa1 / params.kappa2, phi=0.0)


@dataclass(frozen=True)
class SpectrumTrace:
    """Sampled total output power over a probe grid.

    grid       strictly increasing probe offsets, MHz
    values     |S_tot|^2, linear scale (NaN at flagged pole points)
    values_db  10*log10(values) clamped from below at floor_db
    floor_db   the clamp level used for the dB channel
    pole_mask  True where the response diverged and was not evaluated
    """

    grid: np.ndarray
    values: np.ndarray
    values_db: np.ndarray
    floor_db: float
    pole_mask: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.pole_mask is None:
            object.__setattr__(self, "pole_mask",
                               np.zeros(len(self.grid), dtype=bool))


def to_db(values, floor_db: float):
    """Linear power -> dB, clamped from below at floor_db."""
    values = np.asarray(values, dtype=float)
    floor_linear = 10.0 ** (floor_db / 10.0)
    return 10.0 * np.log10(np.maximum(values, floor_linear))


def _make_trace(grid_mhz: np.ndarray, evaluate, floor_db: float) -> SpectrumTrace:
    grid_mhz = np.asarray(grid_mhz, dtype=float)
    if grid_mhz.size == 0:
        raise ValidationError("probe grid is empty")
    if np.any(np.diff(grid_mhz) <= 0):
        raise ValidationError("probe grid must be strictly increasing")
    values = np.empty(grid_mhz.size, dtype=float)
    poles = np.zeros(grid_mhz.size, dtype=bool)
    try:
        values[:] = evaluate(mhz(grid_mhz))
    except ScatteringPoleError:
        for i, nu in enumerate(grid_mhz):
            try:
                values[i] = evaluate(mhz(nu))
            except ScatteringPoleError:
                values[i] = math.nan
                poles[i] = True
    values_db = np.where(poles, math.nan, to_db(np.where(poles, 1.0, values),
                                                floor_db))
    return SpectrumTrace(grid=grid_mhz, values=values, values_db=values_db,
                         floor_db=floor_db, pole_mask=poles)


def total_output_spectrum(params: SystemParams, drive: DriveParams,
                          grid_mhz: Sequence[float],
                          floor_db: float = DEFAULT_FLOOR_DB) -> SpectrumTrace:
    """Sample |S_tot|^2 over a probe grid given in MHz."""
    return _make_trace(np.asarray(grid_mhz, dtype=float),
                       lambda om: total_output(params, drive, om), floor_db)


def cpa_spectrum_closed_form(sym: SymmetricParams, kappa1: float, kappa2: float,
                             grid_mhz: Sequence[float],
                             floor_db: float = DEFAULT_FLOOR_DB,
                             tol: float = DEFAULT_TOL) -> SpectrumTrace:
    """Absorption-drive spectrum on the manifold in closed form.

    |S_tot|^2 = (k1/k2 + 1) * Om^2 (Om^2 - 3g^2 + 4gamma^2)^2
                / [((Om^2 - g^2)^2 + 4 Om^2 gamma^2) * (m^2 + n^2)]

    whose zeros sit exactly at the real eigenvalues {0, +-sqrt(3g^2-4gamma^2)}.
    """
    sym.require_manifold(tol)
    if kappa2 <= 0:
        raise ValidationError("kappa2 must be > 0")
    gsq = sym.g * sym.g
    gamsq = sym.gamma * sym.gamma
    params = sym.to_system(kappa1, kappa2)

    def evaluate(om):
        m, n = mn_functions(params, om)
        om2 = om * om
        numerator = om2 * (om2 - 3.0 * gsq + 4.0 * gamsq) ** 2
        shape = (om2 - gsq) ** 2 + 4.0 * om2 * gamsq
        return (kappa1 / kappa2 + 1.0) * numerator / (shape * (m * m + n * n))

    return _make_trace(np.asarray(grid_mhz, dtype=float), evaluate, floor_db)


def default_grid(span_mhz: float = 10.0, points: int = 2001,
                 center_mhz: float = 0.0) -> np.ndarray:
    """Probe grid used for figure-style traces: points across +-span."""
    return center_mhz + np.linspace(-span_mhz, span_mhz, points)


@dataclass(frozen=True)
class DipReport:
    """Refined location of a spectral dip."""

    dip_location: float     # MHz
    dip_value_db: float     # dB, never below the trace floor
    refinement_width: float  # MHz, final bracket width


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_min(f: Callable[[float], float], lo: float, hi: float,
                       tol: float) -> tuple[float, float, float]:
    """Golden-section minimum of f on [lo, hi] to bracket width <= tol."""
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    x = (a + b) / 2.0
    return x, f(x), b - a


def find_dip(trace: SpectrumTrace,
             refine: Callable[[float], float],
             width_mhz: float = 1e-6) -> DipReport:
    """Global grid minimum of a trace, refined on the continuous model.

    refine maps a probe offset in MHz to the linear model value; the
    bracket around the best grid point is narrowed by golden section to
    width_mhz.  A trace without a strict minimum is rejected.
    """
    if trace.grid.size < 3:
        raise ValidationError("dip search needs at least 3 grid points")
    finite = np.where(trace.pole_mask, math.inf, trace.values)
    i = int(np.argmin(finite))
    vmin = finite[i]
    if not math.isfinite(vmin) or np.all(finite == vmin):
        raise FlatTraceError("trace has no strict minimum")
    lo = trace.grid[max(i - 1, 0)]
    hi = trace.grid[min(i + 1, trace.grid.size - 1)]
    x, v, width = golden_section_min(refine, lo, hi, width_mhz)
    if v > vmin:  # grid point itself was the better minimum
        x, v, width = trace.grid[i], vmin, width_mhz
    return DipReport(dip_location=float(x),
                     dip_value_db=float(to_db(v, trace.floor_db)),
                     refinement_width=float(width))


def perturbed_system(sym: SymmetricParams, kappa1: float, kappa2: float,
                     delta_b: float, tol: float = DEFAULT_TOL) -> SystemParams:
    """Manifold system with both magnon frequencies shifted rigidly.

    A magnetic-field change moves both magnon lines by the same delta_b
    (rad/us), so the detunings become delta + delta_b and -delta + delta_b
    while couplings, dampings and the port drive stay at their balanced
    values.
    """
    sym.require_manifold(tol)
    base = sym.to_system(kappa1, kappa2)
    return SystemParams(
        kappa1=base.kappa1, kappa2=base.kappa2, kappa_int=base.kappa_int,
        gamma1=base.gamma1, gamma2=base.gamma2,
        g1=base.g1, g2=base.g2,
        delta1=sym.delta + delta_b, delta2=-sym.delta + delta_b,
        omega_c=base.omega_c,
    )


def trace_to_csv(trace: SpectrumTrace) -> str:
    """Render a trace as CSV text with the fixed column order."""
    lines = [CSV_HEADER]
    for nu, v, vdb in zip(trace.grid, trace.values, trace.values_db):
        lines.append(f"{nu:.12g},{v:.12e},{vdb:.12g}")
    return "\n".join(lines) + "\n"


def spectrum_dip(sym: SymmetricParams, kappa1: float, kappa2: float,
                 delta_b: float = 0.0,
                 floor_db: float = DEFAULT_FLOOR_DB,
                 grid_mhz: np.ndarray | None = None) -> DipReport:
    """Dip of the absorption-drive spectrum, optionally under perturbation."""
    params = perturbed_system(sym, kappa1, kappa2, delta_b)
    drive = cpa_drive(params)
    if grid_mhz is None:
        grid_mhz = default_grid()
    trace = total_output_spectrum(params, drive, grid_mhz, floor_db)
    return find_dip(trace, lambda nu: float(total_output(params, drive, mhz(nu))))
