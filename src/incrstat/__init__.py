"""Increment-stationary random point sets: numerics for the translation dichotomy.

The package solves the regularized corrector equation on lattice tori,
tabulates Green's functions of mu - laplacian, measures how E[phi_mu^2]
scales as mu -> 0 (bounded second moments mean the underlying point set
is stationary up to translation; d = 1 and d = 2 diverge), and handles
genuine point sets: renewal processes on the line, perturbed lattices,
pair energies and their thermodynamic densities.
"""

from . import corrector, errors, green, lattice, pointsets, randfields, seeding
from .corrector import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .green import *  # noqa: F401,F403
from .lattice import *  # noqa: F401,F403
from .pointsets import *  # noqa: F401,F403
from .randfields import *  # noqa: F401,F403
from .seeding import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (lattice, green, randfields, corrector, pointsets, seeding, errors)
    for name in module.__all__
] + ["__version__"]
