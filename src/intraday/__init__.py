"""Intraday seasonality statistics for panel bar-return data.

The package computes per-bin moment profiles, cross-sectional dispersion
statistics, correlation spectra, and index-conditioned curves from a
stock x day x bin return panel, and ships a synthetic one-factor market
generator for end-to-end validation.
"""

from types import ModuleType as _ModuleType

__version__ = "1.0.0"

from .conditioning import (
    BucketSpec,
    ConditionalCurve,
    SublinearityReport,
    conditional_statistic,
    dispersion_vs_index,
    kurtosis_vs_dispersion,
    kurtosis_vs_index,
    odd_even_decompose,
    skew_vs_index,
    sublinearity_diagnostic,
)
from .cross_section import (
    DispersionGrid,
    dispersion_grid,
    normalize_panel,
)
from .errors import (
    CompletenessError,
    DegenerateCrossSectionError,
    DegenerateSampleError,
    DuplicateRowError,
    FeasibilityError,
    InsufficientDataError,
    IntradayError,
    PanelFormatError,
    PriceDomainError,
    SchemaError,
)
from .panel import (
    LoadReport,
    ReturnPanel,
    ValidationReport,
    load_panel,
    read_return_records,
    returns_from_prices,
    validate_panel,
    write_return_records,
)
from .robust_moments import (
    MomentGrid,
    MomentSet,
    low_moment_kurtosis,
    low_moment_skewness,
    moment_set,
    stock_bin_moments,
)
from .seasonality import (
    IntradayProfile,
    PowerLawFit,
    fit_power_law,
    profile_over_days,
    profile_over_stocks,
    ratio_profile,
)
from .spectral import (
    BinSpectrum,
    MarketMode,
    OverlapResult,
    bin_spectra,
    correlation_matrix,
    eigen_decompose,
    market_mode_stats,
    overlap_singular_values,
    random_overlap_baseline,
)
from .synth import (
    GeneratorManifest,
    gaussian_iid_panel,
    generate_market,
    read_manifest,
    write_manifest,
)

# The public API is every class and function imported above.
__all__ = ["__version__"] + [
    name
    for name, value in list(globals().items())
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
