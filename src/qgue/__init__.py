"""Exact symbolic moments for a q-deformed Gaussian unitary ensemble.

Layers, bottom up:

  exactq    the field Q(q) of rational functions with exact arithmetic
  qxpoly    polynomials in x over Q(q); q-Hermite and shadow families
  symschur  partitions, Schur polynomials, determinantal families, and
            the coordinatewise brute-force integral
  moments   the normalized ensemble integral, verbatim printed closed
            forms, map-counting genus tables at q = 1
  verify    the errata harness comparing closed forms against oracles
  cli       the qgue command-line tool (moment / verify / table)

Each library module's `__all__` is its public API; the package re-exports them.
"""

from .exactq import *
from .qxpoly import *
from .symschur import *
from .moments import *
from .verify import *

__version__ = "0.1.0"
