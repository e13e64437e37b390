"""Star-shaped distributions and group-invariant matrix-pair models.

The pieces: gauges (length functions and their geometry), radial profiles
and the length marginal, the direction law on the sphere, their assembly
into full star-shaped distributions with exact samplers and within-orbit
maps, triangular/general-linear decompositions of positive-definite matrix
pairs, and a small goodness-of-fit harness.
"""

from .direction import (
    C0Estimate,
    DirectionDraws,
    SphereIntegral,
    angle_bin_probs,
    cross_section_mass,
    cross_section_measure_density,
    cross_section_measure_densities,
    direction_constant,
    direction_densities,
    direction_density,
    direction_integral,
    direction_sample,
    gauge_from_direction_density,
)
from .errors import StarshapeError
from .gauge import (
    DirectionDerivedGauge,
    EllipticalGauge,
    Gauge,
    L1NormGauge,
    PolytopeGauge,
    SphereBounds,
    SupNormGauge,
    TabulatedRadialGauge,
    gauge_from_dict,
    sphere_surface,
    unit_angles,
)
from .matrixmodels import (
    CrossSectionReport,
    GLDecomposition,
    LTDecomposition,
    cholesky_factor,
    check_sign_invariance,
    congruence_roots,
    eigenvalue_density,
    equivariant_density_lt,
    gl_decompose_batch,
    gl_orbital_decompose,
    lt_decompose_batch,
    lt_orbital_decompose,
    matrix_beta_density,
    multivariate_beta,
    sign_matrices,
    validate_pd_pair,
    verify_global_cross_section,
    wishart_sample,
)
from .radial import (
    ExponentialProfile,
    GaussianProfile,
    HeavyTailProfile,
    KotzProfile,
    RadialProfile,
    RadialTable,
    profile_from_dict,
    radial_constant,
    radial_density,
)
from .rng import uniform_sphere
from .starshaped import (
    OrbitalRecord,
    StarDistribution,
    planar_angles,
    pushforward_densities,
    pushforward_density,
    within_orbit_map,
    within_orbit_map_many,
)
from .stats import (
    TestReport,
    chisq_gof,
    independence_chisq,
    kolmogorov_sf,
    ks_test,
    two_sample_ks,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
