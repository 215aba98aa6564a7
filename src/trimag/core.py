"""Eigenstructure of the three-mode non-Hermitian Hamiltonian.

The cavity mode sees an effective gain kappa_c = kappa1 + kappa2 -
kappa_int under balanced two-port absorption drive, and each magnon mode
keeps its damping, so the mode matrix is

    [[ i*kappa_c,  g1,                g2              ],
     [ g1,         delta1 - i*gamma1, 0               ],
     [ g2,         0,                 delta2 - i*gamma2 ]]

in the frame rotating at the cavity frequency.  On the balanced manifold
g**2 = delta**2 + gamma**2 the spectrum is closed under complex
conjugation (pseudo-Hermitian), all three eigenvalues are real for
g >= 2*gamma/sqrt(3), and they coalesce together with their eigenvectors
at the third-order degeneracy g = 2*gamma/sqrt(3), delta = gamma/sqrt(3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cubic import CubicCoeffs, ComplexTriple, cardano_roots, companion_roots
from .params import SymmetricParams, ValidationError

# eigenvectors coalesce like a fractional power of the parameter distance,
# so their coincidence check is necessarily looser than the eigenvalue one
VECTOR_COALESCENCE_TOL = 1e-4
EIGENVALUE_COALESCENCE_TOL = 1e-8


@dataclass(frozen=True)
class EigentripleWithVectors:
    """Eigenvalues plus unit-norm eigenvectors (leading entry real-positive)."""

    values: ComplexTriple
    vectors: np.ndarray  # shape (3, 3); vectors[k] belongs to values[k]


@dataclass(frozen=True)
class Ep3Point:
    """Location of the third-order degeneracy for a given damping."""

    g_ep3: float
    delta_ep3: float


def cubic_coeffs(sym: SymmetricParams) -> CubicCoeffs:
    """Characteristic cubic x**3 + c1*x + c0 of the symmetric mode matrix.

    c0 = 2i*gamma*(delta^2 + gamma^2 - g^2) vanishes exactly on the
    balanced manifold; c1 = 3*gamma^2 - 2*g^2 - delta^2.  Both are
    evaluated literally, with no snapping of small values.
    """
    gamma, g, delta = sym.gamma, sym.g, sym.delta
    c0 = 2j * gamma * (delta * delta + gamma * gamma - g * g)
    c1 = 3.0 * gamma * gamma - 2.0 * g * g - delta * delta
    return CubicCoeffs(c0=c0, c1=complex(c1))


def eigenvalues_on_manifold(sym: SymmetricParams) -> ComplexTriple:
    """Eigenvalues {0, +s, -s} with s = sqrt(3g^2 - 4gamma^2) on the manifold.

    The square root is real-positive above the coalescence coupling and
    positive-imaginary below it.  Inputs off the manifold are rejected.
    """
    sym.require_manifold()
    radicand = 3.0 * sym.g * sym.g - 4.0 * sym.gamma * sym.gamma
    if radicand >= 0.0:
        s = complex(math.sqrt(radicand), 0.0)
    else:
        s = complex(0.0, math.sqrt(-radicand))
    return ComplexTriple(0j, s, -s)


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


def locate_ep3(gamma: float, verify: bool = True) -> Ep3Point:
    """Third-order degeneracy (2*gamma/sqrt(3), gamma/sqrt(3)) for gamma > 0.

    With verify=True the point is audited: the manifold identity and the
    vanishing of both cubic coefficients are checked to tolerance, the
    exactly-degenerate cubic (both coefficients identically zero there) is
    solved by both the closed form and the companion oracle, and the
    closed-form eigenvectors are checked for coalescence.  Float evaluation
    of the coefficient formulas amplifies rounding by a cube root, which is
    why the degenerate cubic is constructed from the identities rather than
    re-evaluated.
    """
    if not (math.isfinite(gamma) and gamma > 0):
        raise ValidationError(f"gamma must be > 0, got {gamma!r}")
    g = 2.0 * gamma / math.sqrt(3.0)
    delta = gamma / math.sqrt(3.0)
    point = Ep3Point(g_ep3=g, delta_ep3=delta)
    if not verify:
        return point

    sym = SymmetricParams(gamma=gamma, g=g, delta=delta)
    coeffs = cubic_coeffs(sym)
    scale3 = gamma ** 3
    if abs(coeffs.c0) > 1e-12 * scale3 or abs(coeffs.c1) > 1e-12 * gamma * gamma:
        raise ValidationError("cubic coefficients fail to vanish at the "
                              "degeneracy point")

    degenerate = CubicCoeffs(0j, 0j)
    roots = cardano_roots(degenerate)
    oracle = companion_roots(degenerate)
    spread = max(max(abs(x) for x in roots), max(abs(x) for x in oracle))
    if spread > EIGENVALUE_COALESCENCE_TOL * gamma:
        raise ValidationError("eigenvalues fail to coalesce at the "
                              "degeneracy point")

    vecs = eigenvectors_on_manifold(sym).vectors
    for a in range(3):
        for b in range(a + 1, 3):
            if np.linalg.norm(vecs[a] - vecs[b]) > VECTOR_COALESCENCE_TOL:
                raise ValidationError("eigenvectors fail to coalesce at the "
                                      "degeneracy point")
    return point
