"""Independent compositions of the model that only the tests evaluate.

Each one restates a package quantity by another route, so that agreement
between the two checks an identity rather than repeating one code path.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from trimag.core import eigenvalues_on_manifold
from trimag.cubic import ComplexTriple, CubicCoeffs
from trimag.params import (
    DEFAULT_TOL,
    DriveParams,
    SymmetricParams,
    SystemParams,
    ValidationError,
    mhz,
)
from trimag.spectrum import (
    CSV_HEADER,
    DIP_GRID,
    DIP_WINDOW,
    POLE_TOL,
    DipReport,
    ScatteringPoleError,
    SpectrumTrace,
    _any,
    cpa_drive,
    default_grid,
    find_dip,
    output_power,
    perturbed_system,
    total_output_spectrum,
)


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


def total_output_reference(params: SystemParams, drive: DriveParams, omega):
    """|S1|^2 + |S2|^2 at probe offset omega (rad/us), every constant
    recomputed per call: the form spectrum.output_power must equal bit for
    bit."""
    m, n = mn_functions(params, omega)
    den = m + 1j * n
    scale = max(params.kappa1 + params.kappa2 + params.kappa_int,
                params.gamma1, params.gamma2, 1e-30)
    if _any(abs(den) < POLE_TOL * scale):
        raise ScatteringPoleError("scattering pole: |m + i n| ~ 0")
    x = drive.amplitude
    t = -2.0 * math.sqrt(params.kappa1 * params.kappa2) / den
    s1 = (-1.0 - 2.0 * params.kappa1 / den) * x + t
    s2 = (-1.0 - 2.0 * params.kappa2 / den) + t * x
    a1, a2 = np.abs(s1), np.abs(s2)
    return a1 * a1 + a2 * a2


def symmetric_hamiltonian(sym: SymmetricParams) -> np.ndarray:
    """Mode matrix in the symmetric balanced case (gain pinned to 2*gamma)."""
    return np.array(
        [[2j * sym.gamma, sym.g, sym.g],
         [sym.g, sym.delta - 1j * sym.gamma, 0.0],
         [sym.g, 0.0, -sym.delta - 1j * sym.gamma]],
        dtype=complex)


def as_array(triple: ComplexTriple) -> np.ndarray:
    """The three roots as a complex array, in their order."""
    return np.array(list(triple), dtype=complex)


def bits(z) -> list[int]:
    """The bit patterns of a complex number's two parts, signed zeros
    included."""
    return np.array([z], dtype=complex).view(np.uint64).tolist()


def cubic_scale(coeffs: CubicCoeffs) -> float:
    """Natural magnitude of a root, max(1, |c0|**(1/3), |c1|**(1/2))."""
    return max(1.0, abs(coeffs.c0) ** (1.0 / 3.0), abs(coeffs.c1) ** 0.5)


def companion_roots(coeffs: CubicCoeffs) -> ComplexTriple:
    """Roots of x**3 + c1*x + c0 as eigenvalues of the companion matrix."""
    c = np.array(
        [[0.0, 0.0, -coeffs.c0],
         [1.0, 0.0, -coeffs.c1],
         [0.0, 1.0, 0.0]], dtype=complex)
    ev = np.linalg.eigvals(c)
    return ComplexTriple(ev[0], ev[1], ev[2])


def max_residual(triple: ComplexTriple, coeffs: CubicCoeffs) -> float:
    """Largest |x^3 + c1*x + c0| over the three roots."""
    return max(abs(x * x * x + coeffs.c1 * x + coeffs.c0) for x in triple)


def multiset_distance(a: ComplexTriple, b: ComplexTriple) -> float:
    """Smallest max-elementwise distance over all pairings of two triples."""
    return min(max(abs(x - y) for x, y in zip(perm, b))
               for perm in itertools.permutations(a))


def ep2_discriminant(coeffs: CubicCoeffs) -> complex:
    """27*c0**2 + 4*c1**3; zero exactly where two roots merge."""
    return 27.0 * coeffs.c0 * coeffs.c0 + 4.0 * coeffs.c1 ** 3


def is_pseudo_hermitian_spectrum(triple: ComplexTriple) -> bool:
    """True if the eigenvalue multiset is closed under complex conjugation."""
    conj = ComplexTriple(*(x.conjugate() for x in triple))
    scale = max(1.0, max(abs(x) for x in triple))
    return multiset_distance(triple, conj) <= DEFAULT_TOL * scale


def kappa_c(params: SystemParams) -> float:
    """Effective cavity gain under two-port coherent absorption drive."""
    return params.kappa1 + params.kappa2 - params.kappa_int


def is_symmetric(params: SystemParams) -> bool:
    """True if the parameters realize the symmetric balanced case.

    Requires equal dampings and couplings, opposite detunings and the
    gain condition kappa_c == 2*gamma, each to relative tolerance.
    """
    tol = DEFAULT_TOL * max(params.gamma1, params.gamma2, params.g1, params.g2,
                            abs(params.delta1), abs(params.delta2),
                            kappa_c(params), 1e-30)
    return (abs(params.gamma1 - params.gamma2) <= tol
            and abs(params.g1 - params.g2) <= tol
            and abs(params.delta1 + params.delta2) <= tol
            and abs(kappa_c(params) - 2.0 * params.gamma1) <= tol)


def delta_b_of_shift(sym: SymmetricParams, omega_prime: float) -> float:
    """First-order inverse map: eigenvalue shift -> perturbation (rad/us).

    delta_b = Om'*(Om'^2 + g^2)*(Om'^2 - r) /
              [g^4 + 2*Om'^2*(Om'^2 + 2 g^2) - r*(4*Om'^2 + g^2)]

    with r = 3g^2 - 4gamma^2.  Valid to first order in the perturbation.
    """
    sym.require_manifold()
    g2 = sym.g * sym.g
    r = 3.0 * g2 - 4.0 * sym.gamma * sym.gamma
    op2 = omega_prime * omega_prime
    numerator = omega_prime * (op2 + g2) * (op2 - r)
    denominator = g2 * g2 + 2.0 * op2 * (op2 + 2.0 * g2) - r * (4.0 * op2 + g2)
    return numerator / denominator


def cpa_spectrum_closed_form(sym: SymmetricParams, kappa1: float,
                             kappa2: float, grid_mhz) -> np.ndarray:
    """Absorption-drive |S_tot|^2 on the manifold in closed form, per probe.

    |S_tot|^2 = (k1/k2 + 1) * Om^2 (Om^2 - 3g^2 + 4gamma^2)^2
                / [((Om^2 - g^2)^2 + 4 Om^2 gamma^2) * (m^2 + n^2)]

    whose zeros sit exactly at the real eigenvalues {0, +-sqrt(3g^2-4gamma^2)}.
    """
    sym.require_manifold()
    om = mhz(np.asarray(grid_mhz, dtype=float))
    m, n = mn_functions(sym.to_system(kappa1, kappa2), om)
    gsq = sym.g * sym.g
    gamsq = sym.gamma * sym.gamma
    om2 = om * om
    numerator = om2 * (om2 - 3.0 * gsq + 4.0 * gamsq) ** 2
    shape = (om2 - gsq) ** 2 + 4.0 * om2 * gamsq
    return (kappa1 / kappa2 + 1.0) * numerator / (shape * (m * m + n * n))


def total_output_expanded(params: SystemParams, drive: DriveParams, omega):
    """Total output power through the expanded real form.

    Writing M = m + i*n, the port sums expand to

        { |(M + 2*kappa1)*x + 2*sqrt(k1*k2)|^2
        + |(M + 2*kappa2) + 2*sqrt(k1*k2)*x|^2 } / (m^2 + n^2)

    which is evaluated here directly in real arithmetic.
    """
    m, n = mn_functions(params, omega)
    k1, k2 = params.kappa1, params.kappa2
    root = 2.0 * math.sqrt(k1 * k2)
    sp = math.sqrt(drive.p)
    c, s = math.cos(drive.phi), math.sin(drive.phi)
    # |(M + 2k1) x + root|^2 with x = sp*(c - i s)
    a_re, a_im = m + 2.0 * k1, n
    num1 = (drive.p * (a_re * a_re + a_im * a_im) + root * root
            + 2.0 * root * sp * (a_re * c + a_im * s))
    b_re, b_im = m + 2.0 * k2, n
    num2 = (b_re * b_re + b_im * b_im + root * root * drive.p
            + 2.0 * root * sp * (b_re * c - b_im * s))
    return (num1 + num2) / (m * m + n * n)


def m_symmetric_form(sym: SymmetricParams, kappa1: float, kappa2: float,
                     omega):
    """m(Omega) written with the balanced-gain constant 2*gamma - 2*k1 - 2*k2.

    Equal to mn_functions's m whenever
    kappa_int = kappa1 + kappa2 - 2*gamma.
    """
    gsq = sym.g * sym.g
    lorentz1 = (omega - sym.delta) ** 2 + sym.gamma * sym.gamma
    lorentz2 = (omega + sym.delta) ** 2 + sym.gamma * sym.gamma
    return (2.0 * sym.gamma - 2.0 * kappa1 - 2.0 * kappa2
            - gsq * sym.gamma / lorentz1 - gsq * sym.gamma / lorentz2)


def eigen_residual(sym: SymmetricParams, value: complex,
                   vector: np.ndarray) -> float:
    """|| (H - value*I) vector || / ||H||, the defect of an eigenpair."""
    h = symmetric_hamiltonian(sym)
    defect = np.linalg.norm((h - value * np.eye(3)) @ vector)
    return float(defect / max(np.linalg.norm(h), 1e-300))


@dataclass(frozen=True)
class EigentripleWithVectors:
    """Eigenvalues plus unit-norm eigenvectors (leading entry real-positive)."""

    values: ComplexTriple
    vectors: np.ndarray  # shape (3, 3); vectors[k] belongs to values[k]


def _normalize_leading(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    idx = int(np.flatnonzero(np.abs(v) > 0)[0])
    phase = v[idx] / abs(v[idx])
    return v / (phase * np.linalg.norm(v))


def eigenvectors_on_manifold(sym: SymmetricParams) -> EigentripleWithVectors:
    """Closed-form eigenvectors paired with {0, +s, -s} on the manifold.

    For the zero eigenvalue the magnon amplitudes are (-delta - i*gamma)/g
    and (delta - i*gamma)/g; for +-s each magnon amplitude is
    g/(+-s -+ delta + i*gamma).  All three collapse to
    (1, (-1 - i*sqrt(3))/2, (1 - i*sqrt(3))/2)/sqrt(3) at the third-order
    degeneracy.
    """
    values = eigenvalues_on_manifold(sym)
    gamma, g = sym.gamma, sym.g
    if g == 0:
        raise ValidationError("eigenvectors are undefined for g = 0 "
                              "(manifold then forces gamma = 0 too)")
    d = complex(sym.delta)
    s = values.omega1

    v0 = np.array([1.0, (-d - 1j * gamma) / g, (d - 1j * gamma) / g])
    v_plus = np.array([1.0,
                       g / (s - d + 1j * gamma),
                       g / (s + d + 1j * gamma)])
    v_minus = np.array([1.0,
                        g / (-s - d + 1j * gamma),
                        g / (-s + d + 1j * gamma)])
    vectors = np.stack([_normalize_leading(v0),
                        _normalize_leading(v_plus),
                        _normalize_leading(v_minus)])
    return EigentripleWithVectors(values=values, vectors=vectors)


def global_spectrum_dip(sym: SymmetricParams, kappa1: float, kappa2: float,
                        delta_b: float, floor_db: float) -> DipReport:
    """The perturbed dip by global search: the whole default grid is
    sampled and find_dip refines its lowest point."""
    params = perturbed_system(sym, kappa1, kappa2, delta_b)
    drive = cpa_drive(params)
    trace = total_output_spectrum(params, drive, default_grid(), floor_db)
    power = output_power(params, drive)
    return find_dip(trace, lambda nu: float(power(mhz(nu))))


def spectrum_dip_per_point(sym: SymmetricParams, kappa1: float,
                           kappa2: float, delta_b: float,
                           predicted_mhz: float, floor_db: float) -> DipReport:
    """The dip nearest a predicted zero for one delta_b (rad/us), walked
    on its own: each window of DIP_WINDOW points on either side is one
    total_output_spectrum call, moved while its minimum sits on an inner
    edge, and find_dip refines the last one."""
    params = perturbed_system(sym, kappa1, kappa2, delta_b)
    drive = cpa_drive(params)
    last = DIP_GRID.size - 1
    i = min(int(np.searchsorted(DIP_GRID, predicted_mhz)), last)
    while True:
        lo, hi = max(i - DIP_WINDOW, 0), min(i + DIP_WINDOW, last)
        trace = total_output_spectrum(params, drive, DIP_GRID[lo:hi + 1],
                                      floor_db)
        j = lo + int(np.argmin(np.where(trace.pole_mask, math.inf, trace.values)))
        if j == i or not (j == lo > 0 or j == hi < last):
            break
        i = j
    power = output_power(params, drive)
    return find_dip(trace, lambda nu: float(power(mhz(nu))))


def trace_to_csv_per_row(trace: SpectrumTrace) -> str:
    """A trace as CSV, one f-string per row on the row's three values."""
    lines = [CSV_HEADER]
    for nu, v, vdb in zip(trace.grid, trace.values, trace.values_db):
        lines.append(f"{nu:.12g},{v:.12e},{vdb:.12g}")
    return "\n".join(lines) + "\n"


def csv_text_whole_table(header: str, rows) -> str:
    """The header line, then every value of the table as %.12g, formatted
    with one % operation on the whole table."""
    table = np.asarray(rows, dtype=float)
    line = ",".join(["%.12g"] * table.shape[1]) + "\n"
    return header + "\n" + (line * len(table)) % tuple(table.ravel().tolist())
