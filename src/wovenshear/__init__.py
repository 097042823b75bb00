"""Fiber-angle elastoplasticity for woven fabrics in shear.

The fiber-angle kinematics of two fiber families on their fiber metric,
with the elastic/plastic angle split and the picture-frame map, a
one-dimensional elastoplastic return map on the fiber-angle cosine, a
closed-form picture-frame solution, a membrane finite-element verifier,
and a calibration fitter for shear-frame force curves.

The package re-exports the public names of each module; a module's
``__all__`` is the one list of them.
"""

from . import analytic, calibrate, fe, kinematics, material
from .kinematics import *  # noqa: F401,F403
from .material import *  # noqa: F401,F403
from .analytic import *  # noqa: F401,F403
from .fe import *  # noqa: F401,F403
from .calibrate import *  # noqa: F401,F403

__all__ = [*kinematics.__all__, *material.__all__, *analytic.__all__,
           *fe.__all__, *calibrate.__all__]

__version__ = "0.1.0"
