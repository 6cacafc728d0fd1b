"""Adjoint sensitivity analysis for 3-D power grids.

One forward VP solve plus one *reverse* VP solve on the transposed
cached plane factors yields the gradient of an IR-drop metric over every
design parameter at once -- wire widths, individual edge conductances,
TSV sizes, pad strengths, load currents.  See
:mod:`repro.sensitivity.adjoint` for the math and
:mod:`repro.sensitivity.params` for the parameterization layer; the
gradients feed the optimizers in :mod:`repro.optimize`.
"""

from repro.sensitivity.adjoint import (
    AdjointResult,
    AdjointVPSolver,
    DropMetric,
    GradientResult,
    NodeDrop,
    SensitivityConfig,
    SmoothWorstDrop,
    WeightedDrop,
    adjoint_gradient,
    make_metric,
    net_sign,
)
from repro.sensitivity.fd import compare_gradients, finite_difference_gradient
from repro.sensitivity.params import (
    EdgeConductanceParam,
    LoadCurrentParam,
    MetalWidthParam,
    PadResistanceParam,
    Parameter,
    ParameterSpace,
    TSVConductanceParam,
)

__all__ = [
    "AdjointResult",
    "AdjointVPSolver",
    "DropMetric",
    "EdgeConductanceParam",
    "GradientResult",
    "LoadCurrentParam",
    "MetalWidthParam",
    "NodeDrop",
    "PadResistanceParam",
    "Parameter",
    "ParameterSpace",
    "SensitivityConfig",
    "SmoothWorstDrop",
    "TSVConductanceParam",
    "WeightedDrop",
    "adjoint_gradient",
    "compare_gradients",
    "finite_difference_gradient",
    "make_metric",
    "net_sign",
]
