"""Uniform 1-D grids, trapezoidal quadrature weights and long dot products."""

from __future__ import annotations

import numpy as np

from .errors import GridTooSmall, frozen


@frozen
class Grid1D:
    """Uniform grid x0, x0+dx, ..., x0+(n-1)*dx."""

    x0: float
    dx: float
    n: int

    def __post_init__(self):
        if self.n < 2:
            raise GridTooSmall(f"need at least 2 points, got {self.n}")
        if self.dx <= 0:
            raise GridTooSmall(f"grid spacing must be positive, got {self.dx}")

    def points(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.n)

    @property
    def x_max(self) -> float:
        return self.x0 + self.dx * (self.n - 1)

    @classmethod
    def from_interval(cls, x0: float, x1: float, n: int) -> "Grid1D":
        if n < 2:
            raise GridTooSmall(f"need at least 2 points, got {n}")
        return cls(x0, (x1 - x0) / (n - 1), n)


def trapezoid_weights(n: int, dx: float) -> np.ndarray:
    """Composite trapezoid quadrature weights on a uniform grid."""
    w = np.full(n, dx)
    w[0] = 0.5 * dx
    w[-1] = 0.5 * dx
    return w


# OpenBLAS spreads a dot product of more than 10000 values over its
# threads, whose hand-off costs more than the product at these sizes (three
# times the time at n_x = 10002 on two cores, and more in a forked process,
# whose threads wait for a free core): longer vectors are dotted in pieces
# of at most DOT_PIECE values
DOT_PIECE = 8192


def long_dot(a: np.ndarray, b: np.ndarray) -> float:
    """np.dot of two vectors, bit for bit up to DOT_PIECE values, else the
    sum of the dots of their pieces of DOT_PIECE values in order."""
    if len(a) <= DOT_PIECE:
        return np.dot(a, b)
    total = 0
    for i in range(0, len(a), DOT_PIECE):
        total += np.dot(a[i:i + DOT_PIECE], b[i:i + DOT_PIECE])
    return total
