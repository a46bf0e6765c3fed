"""Clark measures of inner functions on the disc, bidisc, and polydisc.

The public names are those listed in each submodule's __all__; this package
re-exports them all.
"""

from . import clark1d, cli, embed, inner1d, product2d, rif2d, torus_core, verify
from .clark1d import *  # noqa: F403
from .cli import *  # noqa: F403
from .embed import *  # noqa: F403
from .inner1d import *  # noqa: F403
from .product2d import *  # noqa: F403
from .rif2d import *  # noqa: F403
from .torus_core import *  # noqa: F403
from .verify import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (torus_core, inner1d, clark1d, embed, product2d, rif2d, verify, cli)
    for name in module.__all__
] + ["__version__"]
