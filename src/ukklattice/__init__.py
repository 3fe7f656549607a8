"""Finite-dimensional atomic lattice geometry experiments.

Exact vector lattice operations, truncation, norm oracles with axiom
audits, disjointness constant estimation, the disjoint-decomposition
renorm, and separated-sequence trial campaigns.

The public API is the union of the modules' ``__all__`` lists; a name
is made public by listing it there and nowhere else.  The package-level
``renorm`` is the function, which shadows the ``renorm`` submodule.
"""

import sys as _sys

from .vectors import *  # noqa: F401,F403
from .norms import *  # noqa: F401,F403
from .partitions import *  # noqa: F401,F403
from .sampling import *  # noqa: F401,F403
from .renorm import *  # noqa: F401,F403
from .estimates import *  # noqa: F401,F403
from .ukk import *  # noqa: F401,F403
from .config import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in ("vectors", "norms", "partitions", "sampling", "renorm", "estimates", "ukk", "config")
    for name in _sys.modules[f"{__name__}.{module}"].__all__
] + ["__version__"]
