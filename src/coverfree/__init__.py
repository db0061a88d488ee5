"""Cover-free families: construction, verification, size bounds, and
non-adaptive group testing on the resulting pooling matrices."""

from . import bounds, construct, core, gf, grouptest, verify
from .bounds import *
from .construct import *
from .core import *
from .gf import *
from .grouptest import *
from .verify import *

__version__ = "0.1.0"

__all__ = [
    *bounds.__all__,
    *construct.__all__,
    *core.__all__,
    *gf.__all__,
    *grouptest.__all__,
    *verify.__all__,
]
