"""R-curve analysis and entanglement-of-formation bounds for bipartite states.

Each module's ``__all__`` is its public API; the package re-exports exactly
those names, in the order core, analysis, quantum.
"""

from . import analysis, core, quantum
from .core import *
from .analysis import *
from .quantum import *

__all__ = core.__all__ + analysis.__all__ + quantum.__all__

__version__ = "0.1.0"
