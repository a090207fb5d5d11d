"""Exact Gaussian states of the damped (Caldirola-Kanai) harmonic oscillator.

The package has two layers that deliberately do not share numerics: a
closed-form layer (:mod:`ckstates.modes`, :mod:`ckstates.states`,
:mod:`ckstates.observables`) built on complex mode functions of the
classical damped equation of motion, and an independent numerical oracle
(:mod:`ckstates.oracle`) that re-derives every claim from sampled wave
functions by quadrature, spectral derivatives, time stencils and
Crank-Nicolson propagation.  :func:`ckstates.oracle.validate` cross-checks the two.
"""

from . import modes, observables, oracle, states
from .modes import *  # noqa: F403
from .observables import *  # noqa: F403
from .oracle import *  # noqa: F403
from .states import *  # noqa: F403

__version__ = oracle.REPORT_VERSION

__all__ = [
    "__version__",
    *modes.__all__,
    *states.__all__,
    *observables.__all__,
    *oracle.__all__,
]
