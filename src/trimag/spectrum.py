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
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .params import (
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

#: bracket width to which find_dip refines a dip, MHz
DIP_WIDTH_MHZ = 1e-6

#: grid points on either side of the current index in spectrum_dip's walk
DIP_WINDOW = 4

CSV_HEADER = "omega_mhz,s_tot_linear,s_tot_db"

#: %-format of each CSV column of a trace
CSV_FORMATS = ("%.12g", "%.12e", "%.12g")

#: table rows that csv_text formats at a time; bounds the numpy
#: temporaries of csvfloat's kernel, or the tuple of Python floats that
#: % needs
CSV_BLOCK_ROWS = 4096

#: blocks with fewer rows are formatted by one % operation: the kernel's
#: fixed numpy overhead, about 0.1 ms per column, is what % takes for some
#: 400 values
CSV_KERNEL_MIN_ROWS = 512


class ScatteringPoleError(ArithmeticError):
    """m + i*n vanished: the drive response diverges at this frequency."""


class FlatTraceError(ValueError):
    """A trace has no strict interior minimum to refine."""


class FloorClampError(ArithmeticError):
    """A dip sits on the dB floor, so its depth is not resolved."""


def _any(mask) -> bool:
    """np.any, without its dispatch cost on the 0-d values of a scalar probe."""
    return mask.any() if isinstance(mask, np.ndarray) else bool(mask)


def output_power(params: SystemParams, drive: DriveParams):
    """|S1|^2 + |S2|^2 as a function of probe offset omega (rad/us).

    The system's constants are taken once; the returned power(omega)
    accepts a float, an np.float64 or an array, and raises
    ScatteringPoleError at a zero-width Lorentzian (possible only when a
    magnon's damping squares to 0) or where |m + i n| vanishes.  Python
    floats and np.float64 round + - * / alike, so a float probe runs the
    real arithmetic on Python floats; the denominator is then an
    np.complex128, so the divisions and np.abs run on numpy scalars, and a
    scalar probe gives the bits of the same probe in an array.

    power(omega, delta1, delta2) evaluates the system with other magnon
    detunings: columns of them evaluate a stack of systems that differ
    only there, one per row of omega, each value with the bits that
    system's own evaluator gives.
    """
    gamma1sq = params.gamma1 * params.gamma1
    gamma2sq = params.gamma2 * params.gamma2
    g1sq = params.g1 * params.g1
    g2sq = params.g2 * params.g2
    g1sq_gamma1 = g1sq * params.gamma1
    g2sq_gamma2 = g2sq * params.gamma2
    kappa_total = params.kappa1 + params.kappa2 + params.kappa_int
    dissipation = -kappa_total
    pole_threshold = POLE_TOL * max(kappa_total, params.gamma1, params.gamma2,
                                    1e-30)
    zero_width = gamma1sq == 0 or gamma2sq == 0
    x = drive.amplitude
    transmission = -2.0 * math.sqrt(params.kappa1 * params.kappa2)
    reflection1 = 2.0 * params.kappa1
    reflection2 = 2.0 * params.kappa2

    def power(omega, delta1=params.delta1, delta2=params.delta2):
        d1 = omega - delta1
        d2 = omega - delta2
        l1 = d1 * d1 + gamma1sq
        l2 = d2 * d2 + gamma2sq
        # with gamma^2 > 0, d*d + gamma^2 rounds to at least gamma^2
        if zero_width and (_any(l1 == 0) or _any(l2 == 0)):
            raise ScatteringPoleError(
                "undamped magnon probed on resonance (zero Lorentzian width)")
        m = dissipation - g1sq_gamma1 / l1 - g2sq_gamma2 / l2
        n = omega - g1sq * d1 / l1 - g2sq * d2 / l2
        # freed before the complex temporaries are allocated: on a large
        # grid, holding them makes every later temporary fresh memory
        del d1, d2, l1, l2
        # an array passes through unchanged, a scalar becomes a numpy scalar
        den = np.complex128(m + 1j * n)
        if _any(abs(den) < pole_threshold):
            raise ScatteringPoleError("scattering pole: |m + i n| ~ 0")
        t = transmission / den
        s1 = (-1.0 - reflection1 / den) * x + t
        s2 = (-1.0 - reflection2 / den) + t * x
        # squared in place by products: a numpy scalar's ** 2 goes through
        # pow, which can round differently from an array's x * x
        power1, power2 = np.abs(s1), np.abs(s2)
        power1 *= power1
        power2 *= power2
        power1 += power2
        return power1

    return power


def total_output(params: SystemParams, drive: DriveParams, omega) -> float:
    """|S1|^2 + |S2|^2 at probe offset omega (rad/us); vectorized."""
    return output_power(params, drive)(omega)


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
    pole_mask: np.ndarray


def to_db(values, floor_db: float):
    """Linear power -> dB, clamped from below at floor_db.

    A floor whose linear value 10**(floor_db/10) overflows or underflows
    to zero clamps nothing meaningful and is rejected.
    """
    values = np.asarray(values, dtype=float)
    try:
        floor_linear = 10.0 ** (floor_db / 10.0)
    except OverflowError:
        floor_linear = math.inf
    if not 0.0 < floor_linear < math.inf:
        raise ValidationError(f"floor_db = {floor_db!r} dB is out of range: "
                              f"its linear value is not a positive finite "
                              f"number")
    return 10.0 * np.log10(np.maximum(values, floor_linear))


def total_output_spectrum(params: SystemParams, drive: DriveParams,
                          grid_mhz: Sequence[float],
                          floor_db: float = DEFAULT_FLOOR_DB) -> SpectrumTrace:
    """Sample |S_tot|^2 over a probe grid given in MHz.

    The grid is evaluated in one call; if it holds a scattering pole, each
    point is evaluated alone and the poles are flagged in pole_mask.
    """
    grid_mhz = np.asarray(grid_mhz, dtype=float)
    if grid_mhz.size == 0:
        raise ValidationError("probe grid is empty")
    if np.any(np.diff(grid_mhz) <= 0):
        raise ValidationError("probe grid must be strictly increasing")
    values = np.empty(grid_mhz.size, dtype=float)
    poles = np.zeros(grid_mhz.size, dtype=bool)
    try:
        values[:] = total_output(params, drive, mhz(grid_mhz))
    except ScatteringPoleError:
        for i, nu in enumerate(grid_mhz):
            try:
                values[i] = total_output(params, drive, mhz(nu))
            except ScatteringPoleError:
                values[i] = math.nan
                poles[i] = True
    return SpectrumTrace(grid=grid_mhz, values=values,
                         values_db=_db_channel(values, poles, floor_db),
                         floor_db=floor_db, pole_mask=poles)


def _db_channel(values: np.ndarray, poles: np.ndarray, floor_db: float):
    """A trace's dB channel: to_db of its values, NaN at its poles."""
    return np.where(poles, math.nan, to_db(np.where(poles, 1.0, values),
                                           floor_db))


def default_grid(span_mhz: float = 10.0, points: int = 2001) -> np.ndarray:
    """Probe grid used for figure-style traces: points across +-span."""
    return np.linspace(-span_mhz, span_mhz, points)


#: the default_grid that spectrum_dip walks, shared and read-only
DIP_GRID = default_grid()
DIP_GRID.flags.writeable = False


def _dip_walk_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per DIP_GRID point: the grid indices of the window centred on it,
    cut at the grid's ends by repeating the end point (a repeat keeps
    argmin on the first of equal values); the window's probe offsets in
    rad/us; and where the walk moves from it: to the window's first point
    unless that is the grid's first, or to its last unless that is the
    grid's last."""
    last = DIP_GRID.size - 1
    windows = np.clip(np.arange(DIP_GRID.size)[:, None]
                      + np.arange(-DIP_WINDOW, DIP_WINDOW + 1), 0, last)
    moves = np.zeros(windows.shape, dtype=bool)
    moves[:, 0] = windows[:, 0] > 0
    moves[:, -1] = windows[:, -1] < last
    tables = (windows, mhz(DIP_GRID[windows]), moves)
    for table in tables:
        table.flags.writeable = False
    return tables


_DIP_WINDOWS, _DIP_OMEGA, _DIP_MOVES = _dip_walk_tables()


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
             refine: Callable[[float], float]) -> DipReport:
    """Global grid minimum of a trace, refined on the continuous model.

    The search is global because a bare trace carries no prediction of
    where its dip lies; spectrum_dip narrows the trace to one first.
    refine maps a probe offset in MHz, passed as a Python float, to the
    linear model value; the bracket around the best grid point is narrowed
    by golden section to DIP_WIDTH_MHZ.  A trace without a strict minimum
    is rejected.
    """
    if trace.grid.size < 3:
        raise ValidationError("dip search needs at least 3 grid points")
    finite = np.where(trace.pole_mask, math.inf, trace.values)
    i = int(np.argmin(finite))
    vmin = finite[i]
    if not math.isfinite(vmin) or np.all(finite == vmin):
        raise FlatTraceError("trace has no strict minimum")
    lo = float(trace.grid[max(i - 1, 0)])
    hi = float(trace.grid[min(i + 1, trace.grid.size - 1)])
    x, v, width = golden_section_min(refine, lo, hi, DIP_WIDTH_MHZ)
    if v > vmin:  # grid point itself was the better minimum
        x, v, width = trace.grid[i], vmin, DIP_WIDTH_MHZ
    return DipReport(dip_location=float(x),
                     dip_value_db=float(to_db(v, trace.floor_db)),
                     refinement_width=float(width))


def perturbed_system(sym: SymmetricParams, kappa1: float, kappa2: float,
                     delta_b: float) -> SystemParams:
    """Manifold system with both magnon frequencies shifted rigidly.

    A magnetic-field change moves both magnon lines by the same delta_b
    (rad/us), so the detunings become delta + delta_b and -delta + delta_b
    while couplings, dampings and the port drive stay at their balanced
    values.
    """
    sym.require_manifold()
    base = sym.to_system(kappa1, kappa2)
    return SystemParams(
        kappa1=base.kappa1, kappa2=base.kappa2, kappa_int=base.kappa_int,
        gamma1=base.gamma1, gamma2=base.gamma2,
        g1=base.g1, g2=base.g2,
        delta1=sym.delta + delta_b, delta2=-sym.delta + delta_b,
    )


def csv_text(header: str, formats: Sequence[str], table) -> str:
    """The header line, then one line per table row, value j in formats[j].

    Rows are formatted CSV_BLOCK_ROWS at a time: a block of at least
    CSV_KERNEL_MIN_ROWS rows by csvfloat.format_rows, a smaller one with
    one % operation on its values as Python floats.  Either way every
    value reads as `formats[j] % value` writes it.
    """
    table = np.asarray(table, dtype=float)
    line = ",".join(formats) + "\n"
    blocks = [header + "\n"]
    for start in range(0, len(table), CSV_BLOCK_ROWS):
        block = table[start:start + CSV_BLOCK_ROWS]
        if len(block) < CSV_KERNEL_MIN_ROWS:
            blocks.append((line * len(block)) % tuple(block.ravel().tolist()))
        else:
            # imported here: a process that writes only small tables never
            # compiles it
            from .csvfloat import format_rows
            blocks.append(format_rows(formats, block))
    return "".join(blocks)


def trace_to_csv(trace: SpectrumTrace) -> str:
    """Render a trace as CSV text with the fixed column order."""
    return csv_text(CSV_HEADER, CSV_FORMATS, np.column_stack(
        [trace.grid, trace.values, trace.values_db]))


def spectrum_dip(sym: SymmetricParams, kappa1: float, kappa2: float,
                 delta_b, predicted_mhz, floor_db: float) -> list[DipReport]:
    """Dip of each absorption-drive spectrum nearest its predicted zero.

    Row k shifts both magnon lines by delta_b[k] (rad/us) and predicts its
    zero at predicted_mhz[k], the lab-frame location of the tracked
    eigenvalue.  Each row's search starts on the DIP_GRID point at or just
    above its prediction and evaluates a window of DIP_WINDOW points on
    either side.  While a window's minimum sits on an inner edge the
    window moves there, so the search ends on the grid's local minimum
    downhill of the prediction; find_dip then refines it.  The rows differ
    only in their magnon detunings, so one output_power evaluator, row 0's,
    walks and refines them all, passed each row's detunings.  The rows
    walk in lock step: each step evaluates the windows of the rows still
    moving in one array call, with each value's bits as the row's own
    9-point trace gives them.  A step whose windows hold a scattering pole
    samples each window through total_output_spectrum on the row's own
    system instead, which evaluates a pole's window point by point and
    flags the poles.
    """
    bs = np.asarray(delta_b, dtype=float).reshape(-1).tolist()
    if not bs:
        return []
    system = perturbed_system(sym, kappa1, kappa2, bs[0])
    drive = cpa_drive(system)
    power = output_power(system, drive)
    delta1 = [sym.delta + b for b in bs]
    delta2 = [-sym.delta + b for b in bs]
    if not all(map(math.isfinite, delta1 + delta2)):
        raise ValidationError("delta1 and delta2 must be finite")
    detunings = np.array([delta1, delta2]).T
    centre = np.minimum(np.searchsorted(DIP_GRID, predicted_mhz),
                        DIP_GRID.size - 1)
    values = np.empty((len(bs), _DIP_WINDOWS.shape[1]))
    poles = np.zeros(values.shape, dtype=bool)
    moving = np.arange(len(bs))
    while True:
        i = centre[moving]
        delta = detunings[moving]
        try:
            found = power(_DIP_OMEGA[i], delta[:, :1], delta[:, 1:])
        except ScatteringPoleError:
            for row, points in zip(moving.tolist(), _DIP_WINDOWS[i]):
                lo = points[0]
                trace = total_output_spectrum(
                    perturbed_system(sym, kappa1, kappa2, bs[row]), drive,
                    DIP_GRID[lo:points[-1] + 1], floor_db)
                values[row] = trace.values[points - lo]
                poles[row] = trace.pole_mask[points - lo]
            found = np.where(poles[moving], math.inf, values[moving])
        else:
            values[moving] = found
            poles[moving] = False
        k = found.argmin(axis=1)
        walks = _DIP_MOVES[i, k]
        if not walks.any():
            break
        centre[moving[walks]] = _DIP_WINDOWS[i[walks], k[walks]]
        moving = moving[walks]
    values_db = _db_channel(values, poles, floor_db)
    dips = []
    last = DIP_GRID.size - 1
    for row, (i, d1, d2) in enumerate(zip(centre.tolist(), delta1, delta2)):
        lo, hi = max(i - DIP_WINDOW, 0), min(i + DIP_WINDOW, last)
        cut = slice(lo - i + DIP_WINDOW, hi - i + DIP_WINDOW + 1)
        trace = SpectrumTrace(grid=DIP_GRID[lo:hi + 1], values=values[row, cut],
                              values_db=values_db[row, cut], floor_db=floor_db,
                              pole_mask=poles[row, cut])
        dips.append(find_dip(trace, lambda nu: float(power(mhz(nu), d1, d2))))
    return dips
