"""trimag: three-mode cavity-magnonic spectra, degeneracies and sensing."""

from .core import (
    EigentripleWithVectors,
    Ep3Point,
    build_hamiltonian,
    cubic_coeffs,
    eigenvalues_on_manifold,
    eigenvectors_on_manifold,
    is_pseudo_hermitian_spectrum,
    locate_ep3,
    symmetric_hamiltonian,
)
from .cubic import (
    ComplexTriple,
    CubicCoeffs,
    cardano_roots,
    companion_roots,
    ep2_discriminant,
)
from .params import DriveParams, SymmetricParams, SystemParams, mhz, to_mhz
from .sensing import (
    Perturbation,
    SensitivityChain,
    SensitivityReport,
    SlopeFit,
    cube_root_response,
    delta_b_of_shift,
    detectable_b_min,
    exact_eigenshift,
    fit_loglog_slope,
    g_cpa_factor,
    g_ep3_factor,
    linear_response,
    perturbed_hamiltonian,
    sensitivity_report,
    synthetic_sensitivity,
)
from .spectrum import (
    DipReport,
    SpectrumTrace,
    cpa_drive,
    cpa_spectrum_closed_form,
    find_dip,
    mn_functions,
    output_amplitudes,
    scattering_coeffs,
    total_output_spectrum,
)

__version__ = "0.1.0"
