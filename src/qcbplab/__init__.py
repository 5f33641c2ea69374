"""Exact-arithmetic workbench for quadratically constrained basis pursuit.

Everything that carries a guarantee is computed over arbitrary-precision
rationals; floats appear only in the generic numerical solver and the toy
network, and every float result that matters is re-certified a posteriori
in exact arithmetic.
"""

__version__ = "0.1.0"
