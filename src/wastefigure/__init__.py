"""Waste-factor analysis for cascaded wireless systems.

Quantifies how much power a signal chain burns per watt of delivered
signal (waste factor W, waste figure in dB), folds that into
energy-per-bit and consumption-factor figures, and answers deployment
questions built on them: how far a link stays efficient, whether a
relay or access point saves energy, and where in space it does.

Each module's ``__all__`` is the one list of its public names; the
package republishes them all.
"""

from . import cascade, channel, config, energy, fwa, region, relay, units  # config binds echoes
from .cascade import *  # noqa: F401,F403
from .channel import *  # noqa: F401,F403
from .energy import *  # noqa: F401,F403
from .fwa import *  # noqa: F401,F403
from .region import *  # noqa: F401,F403
from .relay import *  # noqa: F401,F403
from .units import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += cascade.__all__
__all__ += channel.__all__
__all__ += energy.__all__
__all__ += fwa.__all__
__all__ += region.__all__
__all__ += relay.__all__
__all__ += units.__all__
