"""Exact computation in the q-Brauer algebra.

Subpackages build on each other roughly bottom-up:

- :mod:`qbrauer.coefficients`: exact Laurent/rational/cyclotomic scalars
- :mod:`qbrauer.symgrp`: permutations, partitions, tableaux, B_{k,n}
- :mod:`qbrauer.hecke`: Hecke algebras on a letter window, Murphy basis
- :mod:`qbrauer.qbrauer`: the q-Brauer algebra and its normal basis
- :mod:`qbrauer.cellular`: cellular basis, Gram matrices, semisimplicity
- :mod:`qbrauer.cli`: command line entry points
- :mod:`qbrauer.brauerdiag`: Brauer diagrams, the q = 1 oracle; not on
  the construction path (only the ``verify`` suites and tests use it)
"""

__version__ = "0.1.0"
