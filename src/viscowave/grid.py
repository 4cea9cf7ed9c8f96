"""Discrete rectangular domain with homogeneous Dirichlet boundary.

Fields are plain numpy arrays over the interior nodes: shape ``(n,)`` in 1-D
and ``(nx, ny)`` in 2-D.  All operators use second-order centered stencils and
midpoint quadrature so that summation-by-parts holds exactly:

    -inner(laplacian(f), f) == h1_seminorm_sq(f)

which makes the discrete energy identity a pure time-quadrature statement.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import solveh_banded
from scipy import sparse
from scipy.sparse.linalg import splu


class GridError(ValueError):
    """Raised for mismatched fields or ill-formed grid parameters."""


def _along(axis: int, start, stop) -> tuple:
    """Index taking ``start:stop`` along ``axis`` and all of earlier axes."""
    return (slice(None),) * axis + (slice(start, stop),)


@dataclass(frozen=True)
class SpatialGrid:
    """Interior nodes of an interval or rectangle, Dirichlet boundary."""

    extents: tuple[float, ...]
    n: tuple[int, ...]

    def __post_init__(self):
        if len(self.extents) not in (1, 2) or len(self.extents) != len(self.n):
            raise GridError("grid must be 1-D or 2-D with matching extents/counts")
        if any(L <= 0 for L in self.extents):
            raise GridError("extents must be positive")
        if any(k < 3 for k in self.n):
            raise GridError("need at least 3 interior nodes per axis")

    @classmethod
    def line(cls, length: float, n: int) -> "SpatialGrid":
        return cls(extents=(float(length),), n=(int(n),))

    @classmethod
    def rectangle(cls, extents, n) -> "SpatialGrid":
        return cls(extents=tuple(float(L) for L in extents),
                   n=tuple(int(k) for k in n))

    @property
    def dim(self) -> int:
        return len(self.n)

    @cached_property
    def h(self) -> tuple[float, ...]:
        return tuple(L / (k + 1) for L, k in zip(self.extents, self.n))

    @cached_property
    def cell_volume(self) -> float:
        out = 1.0
        for hi in self.h:
            out *= hi
        return out

    @property
    def shape(self) -> tuple[int, ...]:
        return self.n

    @property
    def size(self) -> int:
        out = 1
        for k in self.n:
            out *= k
        return out

    def coords(self):
        """Interior node coordinates; 1-D: array, 2-D: meshgrid pair (ij)."""
        axes = [np.arange(1, k + 1) * hi for k, hi in zip(self.n, self.h)]
        if self.dim == 1:
            return axes[0]
        return np.meshgrid(*axes, indexing="ij")

    def zeros(self) -> np.ndarray:
        return np.zeros(self.shape)

    def check(self, f: np.ndarray) -> np.ndarray:
        f = np.asarray(f, dtype=float)
        if f.shape != self.shape:
            raise GridError(f"field shape {f.shape} does not match grid {self.shape}")
        return f

    # -- differential operators --------------------------------------------

    def laplacian(self, f: np.ndarray) -> np.ndarray:
        """Centered second-difference Laplacian with zero exterior values."""
        f = self.check(f)
        out = None
        for axis, hi in enumerate(self.h):
            lo, up = _along(axis, None, -1), _along(axis, 1, None)
            d = -2.0 * f
            d[up] += f[lo]
            d[lo] += f[up]
            d /= hi ** 2
            out = d if out is None else out + d
        return out

    def h1_seminorm_sq(self, f: np.ndarray) -> float:
        """Sum over edges (incl. boundary edges) of squared differences.

        Equals ``-inner(laplacian(f), f)`` exactly for the stencil above.
        """
        f = self.check(f)
        total = 0.0
        for axis, hi in enumerate(self.h):
            shape = list(f.shape)
            shape[axis] += 1
            # the n + 1 edges along the axis, two of them to the zero exterior
            d = np.zeros(shape)
            d[_along(axis, None, -1)] = f
            d[_along(axis, 1, None)] -= f
            d /= hi
            # each edge carries the edge length hi times the transverse measure
            total += float(np.sum(d * d)) * self.cell_volume
        return total

    def inner(self, f: np.ndarray, g: np.ndarray) -> float:
        """Midpoint-quadrature L2 inner product."""
        return float(np.sum(self.check(f) * self.check(g))) * self.cell_volume

    def l2_norm_sq(self, f: np.ndarray) -> float:
        return self.inner(f, f)

    def lp_norm_pow(self, f: np.ndarray, q: float) -> float:
        """||f||_q^q by midpoint quadrature; requires q >= 1."""
        if q < 1:
            raise GridError(f"lp_norm_pow needs q >= 1, got {q}")
        f = self.check(f)
        return float(np.sum(np.abs(f) ** q)) * self.cell_volume

    # -- elliptic solve -----------------------------------------------------

    @cached_property
    def _banded_1d(self) -> np.ndarray:
        h = self.h[0]
        n = self.n[0]
        ab = np.zeros((2, n))
        ab[0, 1:] = -1.0 / h ** 2
        ab[1, :] = 2.0 / h ** 2
        return ab

    @cached_property
    def _lu_2d(self):
        ops = []
        for k, hi in zip(self.n, self.h):
            main = 2.0 / hi ** 2 * np.ones(k)
            off = -1.0 / hi ** 2 * np.ones(k - 1)
            ops.append(sparse.diags([off, main, off], [-1, 0, 1]))
        eye = [sparse.identity(k) for k in self.n]
        A = sparse.kron(ops[0], eye[1]) + sparse.kron(eye[0], ops[1])
        return splu(sparse.csc_matrix(A))

    def poisson_solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve -laplacian(f) = rhs with the Dirichlet stencil above."""
        rhs = self.check(rhs)
        if self.dim == 1:
            return solveh_banded(self._banded_1d, rhs)
        flat = self._lu_2d.solve(rhs.ravel())
        return flat.reshape(self.shape)

    def first_eigenmode(self) -> np.ndarray:
        """Product-of-sines lowest Dirichlet mode, normalized in max norm."""
        if self.dim == 1:
            x = self.coords()
            return np.sin(np.pi * x / self.extents[0])
        X, Y = self.coords()
        return (np.sin(np.pi * X / self.extents[0])
                * np.sin(np.pi * Y / self.extents[1]))
