"""Delay-jitter regime classification.

Fit competing per-packet jitter models (exponential and gamma) with
hard-assignment EM, watch a stream for regime changes with a sliding
window, and exchange the verdict as a compact binary announcement.

Each module's ``__all__`` is its list of public names; the package
re-exports every one of them.
"""

from . import announce, distributions, em, errors, scan, special, traceio
from .announce import *
from .distributions import *
from .em import *
from .errors import *
from .scan import *
from .special import *
from .traceio import *

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += distributions.__all__
__all__ += special.__all__
__all__ += em.__all__
__all__ += scan.__all__
__all__ += traceio.__all__
__all__ += announce.__all__
__all__ += errors.__all__
