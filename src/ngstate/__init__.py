"""Large-N toolkit for non-Gaussian density operators.

From measured Gaussian moments (F, K, R) and a connected quartic
correlator to the state's entropy, purity, position-basis matrix
elements, Wigner function, and coherent-state coherence structure —
with brute-force validators for every closed form.

The package exports each module's ``__all__`` and the ``errors`` classes:
a public name is listed once, by the module that defines it.
"""

__version__ = "0.1.0"

from .errors import *
from .statemap import *
from .observables import *
from .densmat import *
from .wigner import *
from .coherence import *
from .oracle import *
