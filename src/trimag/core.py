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
locate_ep3 returns that point; the coalescence itself is a property the
test suite checks across dampings, not something computed here.
"""

from __future__ import annotations

import math

from .cubic import CubicCoeffs, ComplexTriple
from .params import SymmetricParams


def cubic_coeffs(gamma, g, delta) -> CubicCoeffs:
    """Characteristic cubic x**3 + c1*x + c0 of the symmetric mode matrix.

    c0 = 2i*gamma*(delta^2 + gamma^2 - g^2) vanishes exactly on the
    balanced manifold; c1 = 3*gamma^2 - 2*g^2 - delta^2.  Both are
    evaluated literally, with no snapping of small values.  gamma, g and
    delta are the fields of a SymmetricParams, or arrays that broadcast
    together (then c0 and c1 are arrays of that shape, with the bits each
    point's own call gives).
    """
    c0 = 2j * gamma * (delta * delta + gamma * gamma - g * g)
    c1 = 3.0 * gamma * gamma - 2.0 * g * g - delta * delta
    return CubicCoeffs(c0=c0, c1=c1 + 0j)


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


def locate_ep3(gamma: float) -> SymmetricParams:
    """The third-order degeneracy g = 2*gamma/sqrt(3), delta = gamma/sqrt(3).

    gamma must be finite and > 0 (SymmetricParams rejects anything else).
    """
    return SymmetricParams(gamma, 2.0 * gamma / math.sqrt(3.0),
                           gamma / math.sqrt(3.0))
