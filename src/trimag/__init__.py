"""trimag: three-mode cavity-magnonic spectra, degeneracies and sensing."""

from .core import cubic_coeffs, eigenvalues_on_manifold, locate_ep3
from .cubic import CubicCoeffs, cardano_roots
from .params import DriveParams, SymmetricParams, SystemParams, mhz, to_mhz
from .sensing import SensitivityChain, SensitivityReport, sensitivity_report
from .spectrum import cpa_drive, find_dip, spectrum_dip, total_output_spectrum

__version__ = "0.1.0"
