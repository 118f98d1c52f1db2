"""Polarization-data Kirchhoff migration toolkit.

Simulates coherency-matrix measurements of small polarizable scatterers,
preprocesses them into approximate full-field data, forms electromagnetic
Kirchhoff migration images, and recovers projected polarizability tensors.
"""

from .dataset import ArrayDataSet, ImageField
from .emcore import (
    CROSS_RANGE_BASIS,
    StokesVec,
    coherency_from_stokes,
    dyadic_green,
    projected_green_condition,
    projector,
    scalar_green,
    source_basis,
    stokes_from_coherency,
)
from .errors import (
    CoincidentPointsError,
    ConfigError,
    DatasetFormatError,
    DegenerateGeometryError,
    NumericalError,
    PolarmigError,
)
from .forward import (
    born_response,
    coherency_synthesize,
    projected_incident,
    projected_response,
    response_synthesize,
    second_born_response,
)
from .migrate import (
    RegionCheck,
    cross_range_null_offset,
    h_r,
    h_r_fraunhofer,
    h_s,
    h_s_fraunhofer,
    kirchhoff_band,
    kirchhoff_single,
    line_profile,
    phase_correct,
    plane_grid,
    recover_alpha_band,
    recover_alpha_field,
    recover_alpha_single,
    region_check,
    region_slope,
    volume_grid,
)
from .config import (
    ExperimentConfig,
    parse_config,
    placement_report,
    preset,
    regime_report,
)
from .glyphs import EllipseGlyph, axis_deviation, ellipse_glyph, emit_glyphs
from .pipeline import run_pipeline, simulate_stage
from .preprocess import PreprocessReport, expected_error, gtilde, preprocess
from .scene import (
    ArrayGeom,
    FrequencyBand,
    ImagingWindow,
    Scatterer,
    Scene,
    SourceSpec,
    build_cube_scene,
)
from .stochastic import (
    ErgodicityProbe,
    SourceProcessSpec,
    ergodicity_probe,
    stochastic_coherency_dataset,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
