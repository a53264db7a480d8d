"""FFT-accelerated unconstrained bandwidth selection for multivariate KDE.

The package builds kernel density estimates on regular grids: samples
are linearly binned, cross-validation kernels are tabulated on grid
offsets, and the pairwise double sums behind least-squares
cross-validation become one dot product of the kernel table with the
count autocorrelation, which a single real FFT pair per sample gives.  A
Nelder-Mead search over log-Cholesky coordinates then minimizes the
objective over all symmetric positive definite bandwidth matrices.
Integrated density derivative functionals of higher order ride the same
machinery through the eta contractions of Gaussian derivatives.
"""

from .binning import GridCounts, GridSpec, grid_points, linear_binning, make_grid
from .errors import (
    AllDuplicates,
    DegenerateAxis,
    FastbandError,
    NotPositiveDefinite,
    OutOfRange,
    ParseError,
    ShapeMismatch,
    SingularBandwidth,
    TooFewPoints,
    UnknownModel,
)
from .fftconv import (
    DEFAULT_TAU,
    CountsFftCache,
    autocorrelate,
    convolve,
    convolve_direct,
    effective_halfwidths,
    padded_size_full,
    padded_size_truncated,
)
from .functionals import (
    PSI_MODES,
    PairDifferences,
    build_kernel_grid,
    cv_kernel,
    eta_kernel_grid,
    kh_zero,
    psi_binned,
    psi_direct,
    q_r_binned,
    q_r_exact,
    t_h,
)
from .gaussian import (
    MAX_FUNCTIONAL_ORDER,
    eta_r,
    eta_rs,
    gaussian_derivative_vector,
    normal_pdf,
)
from .linalg import (
    BandwidthMatrix,
    SpdParam,
    as_bandwidth,
    cholesky,
    kron_power,
    largest_eigenvalue,
    vec,
)
from .mixtures import (
    NormalMixture,
    catalog_names,
    exact_ise,
    load_mixture,
    mixture_catalog,
    mixture_pdf,
    sample_mixture,
)
from .selector import (
    SELECTOR_MODES,
    SelectionResult,
    SelectorConfig,
    SimplexResult,
    dedup,
    kde_on_grid,
    lscv_objective,
    nelder_mead,
    normal_scale_start,
    select_bandwidth,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "FastbandError",
    "NotPositiveDefinite",
    "SingularBandwidth",
    "DegenerateAxis",
    "OutOfRange",
    "ShapeMismatch",
    "TooFewPoints",
    "AllDuplicates",
    "UnknownModel",
    "ParseError",
    # linear algebra
    "cholesky",
    "largest_eigenvalue",
    "vec",
    "kron_power",
    "BandwidthMatrix",
    "as_bandwidth",
    "SpdParam",
    # grids and binning
    "GridSpec",
    "GridCounts",
    "make_grid",
    "linear_binning",
    "grid_points",
    # Gaussian derivatives and eta functionals
    "MAX_FUNCTIONAL_ORDER",
    "normal_pdf",
    "gaussian_derivative_vector",
    "eta_rs",
    "eta_r",
    # FFT convolution
    "DEFAULT_TAU",
    "effective_halfwidths",
    "padded_size_full",
    "padded_size_truncated",
    "convolve",
    "convolve_direct",
    "autocorrelate",
    "CountsFftCache",
    # functionals
    "PSI_MODES",
    "PairDifferences",
    "t_h",
    "kh_zero",
    "cv_kernel",
    "build_kernel_grid",
    "eta_kernel_grid",
    "psi_binned",
    "psi_direct",
    "q_r_binned",
    "q_r_exact",
    # selection
    "SELECTOR_MODES",
    "SelectorConfig",
    "SelectionResult",
    "SimplexResult",
    "dedup",
    "normal_scale_start",
    "lscv_objective",
    "nelder_mead",
    "select_bandwidth",
    "kde_on_grid",
    # mixtures
    "NormalMixture",
    "mixture_pdf",
    "sample_mixture",
    "exact_ise",
    "mixture_catalog",
    "catalog_names",
    "load_mixture",
]
