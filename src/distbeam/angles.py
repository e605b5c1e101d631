"""Canonical angle normalization shared by every module.

All phases in this package live in the half-open interval [-pi, pi).
Keeping one wrap routine avoids inconsistent wraparound conventions
between the channel model, the bisection search and the protocol.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi


def wrap_angle(x):
    """Map an angle (scalar or ndarray) into [-pi, pi)."""
    if isinstance(x, np.ndarray):
        t = np.asarray(x + math.pi)     # asarray keeps a 0-d input an array
        # the scalar path's steps, and np.mod's rule bit for bit at less
        # cost: fmod is exact, and np.mod only adds 2*pi to a negative
        # remainder and turns a zero into +0.0, which the - pi erases
        # (+-0 - pi is -pi)
        np.fmod(t, TWO_PI, out=t)
        neg = t < 0.0
        if np.count_nonzero(neg):
            np.add(t, TWO_PI, out=t, where=neg)
        t -= math.pi
        # the + 2*pi can round up to 2*pi for inputs a hair below -pi; each
        # fix-up runs only when some element needs it
        up = t >= math.pi
        if np.count_nonzero(up):
            t[up] -= TWO_PI
        return t
    r = math.fmod(x + math.pi, TWO_PI)
    if r < 0.0:
        r += TWO_PI
    r -= math.pi
    if r >= math.pi:
        r -= TWO_PI
    return r


def circular_distance(a: float, b: float) -> float:
    """Shortest angular distance between two phases, in [0, pi]."""
    return abs(wrap_angle(a - b))
