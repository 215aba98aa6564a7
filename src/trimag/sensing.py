"""Perturbation response and sensitivity factors of the balanced system.

A uniform magnetic-field change shifts both magnon lines by the same
delta_b.  Near the third-order degeneracy the central eigenvalue responds
as delta_b**(1/3); away from it the response is linear.  The spectral
contrast of the absorption dip divided by the eigenvalue shift defines a
second, dB-per-MHz factor, and the product of the two factors sets the
detectable minimum field.

Eigenvalue shifts are reported in the trace-centered frame: the rigid
perturbation drags the eigenvalue centroid by 2*delta_b/3, and that common
drift is removed so the shift isolates the branch motion that the
cube-root law describes.  The tracked branch is the one continued from the
central eigenvalue, disambiguated at the degeneracy by minimal distance
from the real axis.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import locate_ep3, symmetric_hamiltonian
from .cubic import CubicCoeffs, cardano_roots, cardano_roots_batch
from .params import (
    DEFAULT_TOL,
    SymmetricParams,
    ValidationError,
    mhz,
    to_mhz,
)
from .spectrum import (
    EXPERIMENTAL_FLOOR_DB,
    DipReport,
    FloorClampError,
    spectrum_dip,
    to_db,
)

#: continuation trust radius for branch tracking, in units of gamma
TRUST_RADIUS = 0.5

#: default ramp resolution for single-shot shift evaluation
RAMP_STEPS = 64

GAMMA_E_GHZ_PER_T = 28.0  # gyromagnetic ratio of the ferrimagnet, GHz/T
RESOLVABLE_DB = 1e-13     # smallest resolvable spectrum change, dB


class BranchTrackingError(RuntimeError):
    """No eigenvalue branch within the continuation trust radius."""


@dataclass(frozen=True)
class Perturbation:
    """Rigid magnon frequency shift delta_b (rad/us) from a field change."""

    delta_b: float

    def __post_init__(self):
        if not math.isfinite(self.delta_b):
            raise ValidationError("delta_b must be finite")


def perturbed_hamiltonian(sym: SymmetricParams, pert: Perturbation,
                          tol: float = DEFAULT_TOL) -> np.ndarray:
    """Mode matrix with both magnon detunings shifted by delta_b."""
    sym.require_manifold(tol)
    h = symmetric_hamiltonian(sym)
    h[1, 1] += pert.delta_b
    h[2, 2] += pert.delta_b
    return h


def _depressed_cubic(sym: SymmetricParams, delta_b) -> CubicCoeffs:
    """Characteristic cubic of the perturbed matrix, trace part removed.

    Expanding det(H' - lambda I) in w = lambda - delta_b gives
    w^3 + b*w^2 + [(4*gamma^2 - 3*g^2) + 2i*gamma*b]*w - g^2*b; the
    substitution w = x - b/3 (i.e. x = lambda - 2b/3, the trace-centered
    variable) removes the quadratic term.  delta_b may be an array, and
    then c0 and c1 are arrays of the same shape.
    """
    g2 = sym.g * sym.g
    gam = sym.gamma
    b = delta_b
    # cubic in w = lambda - delta_b:  w^3 + b w^2 + [(4gam^2-3g^2)+2i gam b] w - g^2 b
    p_w = 4.0 * gam * gam - 3.0 * g2 + 1j * (2.0 * gam * b)
    q_w = -g2 * b + 0j
    # depress w = x - b/3
    c1 = p_w - b * b / 3.0
    c0 = q_w - b * p_w / 3.0 + 2.0 * b ** 3 / 27.0
    return CubicCoeffs(c0=c0, c1=c1)


def _select_central(roots, previous: complex, gamma: float,
                    fresh: bool) -> complex:
    in_radius = [r for r in roots if abs(r - previous) <= TRUST_RADIUS * gamma]
    if not in_radius:
        raise BranchTrackingError(
            "central eigenvalue branch left the continuation trust radius")
    if fresh:
        # at the degeneracy all three branches emanate from the origin;
        # the observable one stays closest to the real axis
        return min(in_radius, key=lambda r: (abs(r.imag), -abs(r.real)))
    return min(in_radius, key=lambda r: abs(r - previous))


def _track(sym: SymmetricParams, delta_bs: np.ndarray, x: complex = 0j,
           fresh: bool = True) -> list[complex]:
    """Continue the central branch from x through delta_bs, in order.

    The cubics of all steps are solved in one batched call; the branch
    rule of _select_central then runs over the rows.  Returns the batch
    root picked at each step: it names the branch, and _closed_form gives
    its value.
    """
    if not delta_bs.size:
        return []
    coeffs = _depressed_cubic(sym, delta_bs)
    tracked = []
    for roots in cardano_roots_batch(coeffs.c0, coeffs.c1).tolist():
        x = _select_central(roots, x, sym.gamma, fresh)
        fresh = False
        tracked.append(x)
    return tracked


def _closed_form(sym: SymmetricParams, delta_b: float, x: complex) -> complex:
    """Root of the scalar closed form at delta_b nearest the tracked x."""
    roots = cardano_roots(_depressed_cubic(sym, delta_b))
    return min(roots, key=lambda r: abs(r - x))


def central_branch(sym: SymmetricParams, delta_b: float,
                   steps: int = RAMP_STEPS) -> complex:
    """Central eigenvalue branch at delta_b, continued from zero.

    The perturbation is ramped from 0 to delta_b in `steps` steps and the
    branch is tracked by nearest-neighbor continuation in the
    trace-centered frame.  The batch picks the branch, the scalar gives
    the value: the ramp is solved in one batched call, and the result is
    the root of the scalar closed form at delta_b nearest the tracked one.
    """
    if delta_b == 0.0:
        return 0j
    ramp = delta_b * np.linspace(0.0, 1.0, steps + 1)[1:]
    return _closed_form(sym, ramp[-1], _track(sym, ramp)[-1])


def exact_eigenshift(sym: SymmetricParams, pert: Perturbation,
                     tol: float = DEFAULT_TOL) -> float:
    """Shift of the central eigenvalue (MHz) under a rigid perturbation.

    Solves the perturbed characteristic cubic exactly through the closed
    form, tracks the branch continued from the unperturbed central
    eigenvalue at zero, and returns the real (frequency) part of its
    trace-centered shift in MHz.
    """
    sym.require_manifold(tol)
    return to_mhz(central_branch(sym, pert.delta_b).real)


def eigenshift_sweep(sym: SymmetricParams, delta_bs,
                     tol: float = DEFAULT_TOL) -> np.ndarray:
    """Central-branch shifts (MHz) along a delta_b axis.

    Continuation runs along the sweep axis.  The branch is ramped from
    zero by central_branch at the first point and again after a step
    larger than 0.2*gamma, one that crosses zero or one that more than
    doubles or halves |delta_b|: near zero the branches crowd together,
    and only the ramp from zero tells them apart.  The batch picks the
    branch, the scalar gives the value: each run of points is solved in
    one batched call, and each shift is the root of the scalar closed
    form nearest the tracked one, so it equals exact_eigenshift at that
    point wherever both follow the same branch.  delta_bs is in rad/us;
    zeros give zero shift.
    """
    sym.require_manifold(tol)
    bs = np.asarray(delta_bs, dtype=float)
    out = np.zeros(bs.size)
    runs, prev = [], 0.0
    for i, b in enumerate(bs.tolist()):
        if b == 0.0:
            continue
        # prev = 0 makes the first point a re-seed
        if (abs(b - prev) > 0.2 * sym.gamma or b * prev < 0
                or abs(b) > 2.0 * abs(prev) or abs(prev) > 2.0 * abs(b)):
            runs.append([])
        runs[-1].append(i)
        prev = b
    for first, *rest in runs:
        x = central_branch(sym, bs[first])
        out[first] = to_mhz(x.real)
        for i, tracked in zip(rest, _track(sym, bs[rest], x, False)):
            out[i] = to_mhz(_closed_form(sym, bs[i], tracked).real)
    return out


def delta_b_of_shift(sym: SymmetricParams, omega_prime: float,
                     tol: float = DEFAULT_TOL) -> float:
    """First-order inverse map: eigenvalue shift -> perturbation (rad/us).

    delta_b = Om'*(Om'^2 + g^2)*(Om'^2 - r) /
              [g^4 + 2*Om'^2*(Om'^2 + 2 g^2) - r*(4*Om'^2 + g^2)]

    with r = 3g^2 - 4gamma^2.  Valid to first order in the perturbation;
    the denominator can vanish at isolated shifts outside the small-shift
    regime, which is reported rather than regularized.
    """
    sym.require_manifold(tol)
    g2 = sym.g * sym.g
    r = 3.0 * g2 - 4.0 * sym.gamma * sym.gamma
    op2 = omega_prime * omega_prime
    numerator = omega_prime * (op2 + g2) * (op2 - r)
    denominator = g2 * g2 + 2.0 * op2 * (op2 + 2.0 * g2) - r * (4.0 * op2 + g2)
    if denominator == 0.0:
        raise ZeroDivisionError(
            "first-order response denominator vanishes at this shift")
    return numerator / denominator


def cube_root_response(g_ep3: float, delta_b: float) -> float:
    """Shift of the central branch at the degeneracy: g**(2/3)*delta_b**(1/3)."""
    if delta_b < 0:
        raise ValidationError("delta_b must be >= 0; track the sign separately")
    return g_ep3 ** (2.0 / 3.0) * delta_b ** (1.0 / 3.0)


def linear_response(sym: SymmetricParams, delta_b: float,
                    tol: float = DEFAULT_TOL) -> float:
    """Small-shift linear law away from the degeneracy.

    delta_omega = (1 - g^2/(3g^2 - 4gamma^2)) * delta_b; the coefficient
    diverges at the degeneracy, where the cube-root law applies instead.
    """
    sym.require_manifold(tol)
    r = 3.0 * sym.g * sym.g - 4.0 * sym.gamma * sym.gamma
    if abs(r) <= 1e-9 * sym.gamma * sym.gamma:
        raise ValidationError(
            "linear response undefined at the third-order degeneracy")
    return (1.0 - sym.g * sym.g / r) * delta_b


def g_ep3_factor(g_ep3: float, delta_b: float) -> float:
    """Degeneracy sensitivity factor (g_ep3/delta_b)**(2/3), dimensionless.

    Diverges as the perturbation vanishes; delta_b = 0 returns +inf.
    """
    if delta_b < 0:
        raise ValidationError("delta_b must be >= 0")
    if delta_b == 0.0:
        return math.inf
    return (g_ep3 / delta_b) ** (2.0 / 3.0)


def g_cpa_factor(dip_unperturbed_db: float, dip_perturbed_db: float,
                 delta_omega_mhz: float) -> float:
    """Spectral-contrast factor: dB change of the dip per MHz of shift."""
    if not delta_omega_mhz > 0:
        raise ValidationError("delta_omega must be > 0")
    return (dip_perturbed_db - dip_unperturbed_db) / delta_omega_mhz


def synthetic_sensitivity(g_cpa: float, g_ep3: float) -> float:
    """Product of the contrast and degeneracy factors, dB per MHz."""
    return g_cpa * g_ep3


def detectable_b_min(delta_a_db: float, g_syn: float,
                     gamma_e_ghz_per_t: float = GAMMA_E_GHZ_PER_T) -> float:
    """Smallest detectable field change (tesla).

    delta_b_min = delta_a / (nu_e * G_syn) with nu_e the gyromagnetic
    ratio expressed in MHz per tesla.
    """
    if delta_a_db <= 0 or gamma_e_ghz_per_t <= 0:
        raise ValidationError("delta_a and gamma_e must be > 0")
    if g_syn <= 0:
        raise ValidationError("g_syn must be > 0")
    nu_e_mhz_per_t = gamma_e_ghz_per_t * 1e3
    return delta_a_db / (nu_e_mhz_per_t * g_syn)


@dataclass(frozen=True)
class SlopeFit:
    """Least-squares log10-log10 power-law fit within a window."""

    slope: float
    intercept: float
    r_squared: float
    window: tuple[float, float]  # MHz


def fit_loglog_slope(points, window: tuple[float, float]) -> SlopeFit:
    """Fit log10(delta_omega) vs log10(delta_b) inside window (MHz).

    points is an iterable of (delta_b_mhz, delta_omega_mhz) pairs, all
    positive inside the window; fewer than 5 usable points is an error.
    """
    lo, hi = window
    xs, ys = [], []
    for b, w in points:
        if lo <= b <= hi:
            if b <= 0 or w <= 0:
                raise ValidationError(
                    "log-log fit needs positive coordinates inside the window")
            xs.append(math.log10(b))
            ys.append(math.log10(w))
    if len(xs) < 5:
        raise ValidationError(
            f"log-log fit needs >= 5 points in window, got {len(xs)}")
    x = np.asarray(xs)
    y = np.asarray(ys)
    design = np.vstack([x, np.ones_like(x)]).T
    (slope, intercept), *_ = np.linalg.lstsq(design, y, rcond=None)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r_squared = 1.0 if ss_tot == 0 else max(0.0, 1.0 - ss_res / ss_tot)
    return SlopeFit(slope=float(slope), intercept=float(intercept),
                    r_squared=r_squared, window=(lo, hi))


@dataclass(frozen=True)
class SensitivityReport:
    """Full sensitivity bundle at one perturbation point."""

    delta_b: float          # MHz
    delta_omega: float      # MHz
    g_ep3: float            # dimensionless
    g_cpa: float            # dB per MHz
    g_syn: float            # dB per MHz
    delta_b_min: float      # tesla

    def __post_init__(self):
        if math.isfinite(self.g_cpa) and math.isfinite(self.g_ep3):
            product = self.g_cpa * self.g_ep3
            if abs(self.g_syn - product) > 1e-9 * max(1.0, abs(product)):
                raise ValidationError("g_syn must equal g_cpa * g_ep3")
        if not self.delta_b_min > 0:
            raise ValidationError("delta_b_min must be > 0")

    def to_json(self) -> str:
        return json.dumps({
            "delta_b_mhz": self.delta_b,
            "delta_omega_mhz": self.delta_omega,
            "g_ep3": self.g_ep3,
            "g_cpa_db_per_mhz": self.g_cpa,
            "g_syn_db_per_mhz": self.g_syn,
            "delta_b_min_tesla": self.delta_b_min,
        }, indent=2)


@dataclass(frozen=True, eq=False)
class SensitivityChain:
    """The sensing chain over an axis of field changes delta_b (MHz).

    delta_b -> trace-centred shift of the central branch (one
    eigenshift_sweep) -> refined dip of the perturbed absorption spectrum
    (one spectrum_dip per point) -> g_ep3, g_cpa, g_syn -> the detectable
    field change.  Each column is computed when first read, so a reader
    pays only for what it reads.  The shift and the dip exist at any
    manifold point; the factors only at the third-order degeneracy of
    sym.gamma.  kappa1 and kappa2 are in rad/us.
    """

    sym: SymmetricParams
    delta_b: np.ndarray
    kappa1: float
    kappa2: float
    floor_db: float
    grid_mhz: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "delta_b",
                           np.atleast_1d(np.asarray(self.delta_b, dtype=float)))

    @classmethod
    def at_ep3(cls, gamma: float, delta_b, kappa1: float, kappa2: float,
               floor_db: float,
               grid_mhz: np.ndarray | None = None) -> SensitivityChain:
        """The chain at the third-order degeneracy of damping gamma (rad/us)."""
        point = locate_ep3(gamma)
        sym = SymmetricParams(gamma=gamma, g=point.g_ep3, delta=point.delta_ep3)
        return cls(sym, delta_b, kappa1, kappa2, floor_db, grid_mhz)

    @cached_property
    def delta_omega(self) -> np.ndarray:
        """Trace-centred shift of the central eigenvalue, MHz."""
        return eigenshift_sweep(self.sym, mhz(self.delta_b))

    @cached_property
    def dips(self) -> list[DipReport]:
        """Dip of each perturbed absorption spectrum, located in the lab frame."""
        return [spectrum_dip(self.sym, self.kappa1, self.kappa2, mhz(b),
                             self.floor_db, self.grid_mhz)
                for b in self.delta_b]

    @cached_property
    def dip_db(self) -> np.ndarray:
        return np.array([dip.dip_value_db for dip in self.dips])

    @cached_property
    def clamped(self) -> np.ndarray:
        """True where the dip sits on the floor: its contrast is not resolved."""
        return self.dip_db <= to_db(0.0, self.floor_db)

    @cached_property
    def g_ep3(self) -> np.ndarray:
        """Degeneracy factor; it and g_syn exist only at the degeneracy."""
        g_ep3 = locate_ep3(self.sym.gamma, verify=False).g_ep3
        if abs(self.sym.g - g_ep3) > DEFAULT_TOL * g_ep3:
            raise ValidationError(
                f"sensitivity factors need the third-order degeneracy, "
                f"g = {to_mhz(g_ep3):.8g} MHz at gamma = "
                f"{to_mhz(self.sym.gamma):g} MHz, got g = "
                f"{to_mhz(self.sym.g):.8g} MHz; the dip sweep "
                f"(--quantity dip) runs at any manifold point")
        return np.array([g_ep3_factor(self.sym.g, mhz(b)) for b in self.delta_b])

    @cached_property
    def g_cpa(self) -> np.ndarray:
        """dB per MHz of shift; a dip clamped at the floor gives about 0."""
        return np.array([g_cpa_factor(self.floor_db, dip_db, shift)
                         for shift, dip_db in zip(self.delta_omega, self.dip_db)])

    @cached_property
    def g_syn(self) -> np.ndarray:
        return np.array([synthetic_sensitivity(gcpa, gep3)
                         for gep3, gcpa in zip(self.g_ep3, self.g_cpa)])

    def delta_b_min(self, delta_a_db: float = RESOLVABLE_DB,
                    gamma_e_ghz_per_t: float = GAMMA_E_GHZ_PER_T) -> np.ndarray:
        """Smallest detectable field change (tesla) at each point.

        A dip clamped at the floor is a numerical limit, not an input
        error: FloorClampError names the first such delta_b.
        """
        g_syn = self.g_syn
        if self.clamped.any():
            b = self.delta_b[self.clamped][0]
            raise FloorClampError(
                f"perturbed dip at delta_b = {b:g} MHz is clamped at the "
                f"{self.floor_db:g} dB floor: its contrast is not resolved")
        return np.array([detectable_b_min(delta_a_db, gsyn, gamma_e_ghz_per_t)
                         for gsyn in g_syn])


def sensitivity_report(delta_b_mhz: float,
                       floor_db: float = EXPERIMENTAL_FLOOR_DB,
                       gamma_mhz: float = 3.0,
                       kappa1_mhz: float = 4.0,
                       kappa2_mhz: float = 4.0,
                       delta_a_db: float = RESOLVABLE_DB,
                       gamma_e_ghz_per_t: float = GAMMA_E_GHZ_PER_T,
                       grid_mhz: np.ndarray | None = None) -> SensitivityReport:
    """The sensitivity chain at one field change, at the degeneracy.

    The eigenvalue shift comes from the exact cubic, the degeneracy factor
    from its closed form, and the dip contrast from the perturbed
    absorption spectrum refined by golden section; the unperturbed dip sits
    at the configured floor because its model value is an exact zero.

    g_cpa is the model's contrast at the given gamma, kappa1 and kappa2,
    and it changes with the port rates.  The paper's g_cpa = 32.1 dB/MHz
    comes from a 21.5 dB dip change measured on the device, not from this
    model.
    """
    if not delta_b_mhz > 0:
        raise ValidationError("delta_b must be > 0")
    chain = SensitivityChain.at_ep3(mhz(gamma_mhz), delta_b_mhz,
                                    mhz(kappa1_mhz), mhz(kappa2_mhz),
                                    floor_db, grid_mhz)
    bmin = chain.delta_b_min(delta_a_db, gamma_e_ghz_per_t)
    return SensitivityReport(
        delta_b=delta_b_mhz,
        delta_omega=float(chain.delta_omega[0]),
        g_ep3=float(chain.g_ep3[0]),
        g_cpa=float(chain.g_cpa[0]),
        g_syn=float(chain.g_syn[0]),
        delta_b_min=float(bmin[0]),
    )
