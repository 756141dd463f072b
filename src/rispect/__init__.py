"""Dilation indices and doubling-operator spectra of rearrangement-invariant
function spaces, computed from fundamental functions on dyadic blocks.

The package has three layers:

* step functions and block sequences, each read as its dyadic step
  function (`steps`), and the shift operators and window constructions on
  them (`shifts`);
* space definitions with exact norms (`spaces`) and the six dilation
  indices with measured or closed-form values (`indices`);
* spectral assembly, probe experiments (`spectra`), disjoint-copy witness
  families (`witness`), and the `rispect` command line (`cli`).

The package re-exports exactly the names in the `__all__` of each of these
modules but `cli`.
"""

from . import indices, shifts, spaces, spectra, steps, witness
from .indices import *
from .shifts import *
from .spaces import *
from .spectra import *
from .steps import *
from .witness import *

__version__ = "0.1.0"

__all__ = [n for m in (indices, shifts, spaces, spectra, steps, witness) for n in m.__all__]
__all__.append("__version__")
