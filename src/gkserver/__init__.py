"""Memoryless algorithms for generalized k-server on uniform metrics.

Library layout:

* harmonic  - exact arithmetic, the harmonic recursion a(l) and bounds
* chains    - birth-death chains, exact extinction times, named chains
* subsets   - the 2^k subset-state system: build, solve, verify bounds
* simulate  - adaptive adversaries, seeded runs, traces, ratio estimates
* potential - potential-function audit of traces
* cli       - `gkserver` command-line entry point

The package re-exports each library module's `__all__`. `gkserver.potential`
is the function; import the module's names with `from gkserver.potential import`.
"""

from .harmonic import *
from .chains import *
from .subsets import *
from .simulate import *
from .potential import *

__version__ = "0.1.0"
