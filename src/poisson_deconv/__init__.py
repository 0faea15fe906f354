"""Deconvolution of Poisson-noisy images.

Implements the classic Richardson-Lucy multiplicative iteration, a sparse
variant that updates nonnegative representation coefficients of an
overcomplete dictionary (Haar boxes, B-spline pyramids, or file-loaded
patch atoms), and a total-variation regularized RL, together with the
simulation and metric machinery to compare them over seeded trials.
"""

from .core import EPS_DIV, l1_norm, safe_div
from .metrics import MetricReport, average_trials, nmse, ssim
from .operators import (
    ColumnFilter,
    ConvKernel,
    ForwardModel,
    FourierFilter,
    HaarBoxDictionary,
    PatchDictionary,
    SplineDictionary,
    blur_operator,
    conv_adjoint,
    conv_forward,
    gaussian_kernel_1d,
    inverse_quadratic_kernel,
    make_kernel,
    spline_generator,
    spline_generators,
)
from .simulate import (
    make_phantom,
    poisson_sample,
    rng_for_trial,
    scale_to_snr,
    snr_db,
    synth_sparse_signal,
)
from .solvers import (
    SolverConfig,
    SolverResult,
    SolverTrace,
    map_objective,
    ml_objective,
    rl_step,
    rltv_step,
    run_solver,
    srl_step,
    tv_curvature,
    tv_norm,
)

__version__ = "0.1.0"
