"""Numerical laboratory for a linear parabolic SPDE with fractional noise.

Simulates a heat-type equation on (0,1) and (0,1)^2 driven by spatially
colored cylindrical Wiener noise (a negative fractional power of I - Lap,
realized by sinc quadrature) scaled by a rough scalar process with no
finite second moment, and measures pathwise convergence rates, truncated
moment inequalities, and trajectory Hölder regularity by Monte Carlo.
"""

__version__ = "0.1.0"
