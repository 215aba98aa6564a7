"""Independent compositions of the model that only the tests evaluate.

Each one restates a package quantity by another route, so that agreement
between the two checks an identity rather than repeating one code path.
"""

import math

import numpy as np

from trimag.core import symmetric_hamiltonian
from trimag.params import DriveParams, SymmetricParams, SystemParams
from trimag.spectrum import mn_functions


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

    Equal to spectrum.mn_functions's m whenever
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
