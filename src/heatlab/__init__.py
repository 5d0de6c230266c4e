"""heatlab: desk-scale numerics for heat kernels of higher-order elliptic
operators -- sharp Gaussian constants, Finsler distances, Kato-class
potentials and exponential twisting."""

__version__ = "0.1.0"

from .symbols import (  # noqa: F401
    ConstantField,
    DomainSpec,
    ExprField,
    SharpConstants,
    SymbolSpec,
    ellipticity_constant,
    eval_symbol,
    gamma_coefficients,
    gamma_form,
    is_strongly_convex,
    sharp_constants,
)
from .discretize import Grid, DiscreteOperator, assemble  # noqa: F401
from .heatkernel import eigendecompose, fourier_oracle, kernel, semigroup_check  # noqa: F401
from .finsler import distance_1d, distance_dm_1d, distance_lattice_2d  # noqa: F401
from .twist import TwistProfile, growth_fit, lower_bound_k  # noqa: F401
from .experiments import fit_gaussian_exponent, verify_perturbed_bound, verify_sharp_bound  # noqa: F401
from .config import RunConfig, load_config  # noqa: F401
