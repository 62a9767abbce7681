"""Exact computations with unitriangular integer matrix groups.

The package builds matrix representations of finitely generated
torsion-free nilpotent groups (group-ring and coordinate-function
constructions), measures how distorted a subgroup's word metric is
inside the ambient unitriangular group, and constructs subgroups with
any prescribed rational distortion degree.

The public surface is the ``__all__`` of the five library modules,
each re-exported here: matgroup (matrices, the immutable-record base
and the size guard), presentation, distortion, jennings and nickel.
"""

from . import distortion, jennings, matgroup, nickel, presentation
from .distortion import *  # noqa: F403
from .jennings import *  # noqa: F403
from .matgroup import *  # noqa: F403
from .nickel import *  # noqa: F403
from .presentation import *  # noqa: F403

__version__ = "0.1.0"

__all__ = sorted(distortion.__all__ + jennings.__all__ + matgroup.__all__
                 + nickel.__all__ + presentation.__all__) + ["__version__"]
