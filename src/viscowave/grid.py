"""Discrete rectangular domain with homogeneous Dirichlet boundary.

Fields are plain numpy arrays over the interior nodes: shape ``(n,)`` in 1-D
and ``(nx, ny)`` in 2-D.  All operators use second-order centered stencils and
midpoint quadrature so that summation-by-parts holds exactly:

    -inner(laplacian(f), f) == h1_seminorm_sq(f)

which makes the discrete energy identity a pure time-quadrature statement;
a step that holds lap u takes ||grad u||^2 from it (``h1_by_parts``).

The Dirichlet Poisson solve needs NumPy alone: it works in the sine basis,
which diagonalises the stencil exactly, and refines once on the residual.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np


class GridError(ValueError):
    """Raised for mismatched fields or ill-formed grid parameters."""


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

    @cached_property
    def _stencils(self) -> tuple:
        """Per axis, indexed from the last axis so that fields may carry
        leading stack axes: the indices of all nodes but the last and all but
        the first along it, and of its first and last node, h_i^2, and
        whether the Laplacian shifts along it on the flat rows (the last axis
        of a 2-D grid)."""
        def along(axis, start, stop):
            return ((Ellipsis, slice(start, stop))
                    + (slice(None),) * (self.dim - 1 - axis))

        return tuple((along(axis, None, -1), along(axis, 1, None),
                      along(axis, None, 1), along(axis, -1, None), hi ** 2,
                      axis == 1)
                     for axis, hi in enumerate(self.h))

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
        if f.shape != self.n:
            raise GridError(f"field shape {f.shape} does not match grid {self.shape}")
        return f

    # -- differential operators --------------------------------------------

    def laplacian(self, f: np.ndarray, out=None) -> np.ndarray:
        """Centered second-difference Laplacian with zero exterior values,
        into ``out`` (of f's shape) if given, else into a new array.

        ``f`` may carry leading stack axes, shape ``(..., *grid.shape)``:
        each field of the stack is differenced on its own, with the same
        elementwise arithmetic as one call per field, so one call takes the
        Laplacian of all the memory's support rows.

        The grid keeps its last float ``f`` and ``out`` with their
        ``_plan`` and reruns it while both are the same objects: a step
        taking lap u into one buffer builds no view.  The plan reads f's
        memory, so it sees f change in place; a plan that copies f is not
        kept.
        """
        bound = self.__dict__.get("_bound")
        if bound is not None and bound[0] is f and bound[1] is out:
            for step in bound[2]:
                step()
            return out
        a = np.asarray(f, dtype=float)
        if a.shape[a.ndim - self.dim:] != self.n:
            raise GridError(f"field shape {a.shape} does not match grid "
                            f"{self.shape}")
        keep = out is not None and a is f
        if out is None:
            out = np.empty(a.shape)
        elif out.shape != a.shape:
            raise GridError(f"out shape {out.shape} does not match {a.shape}")
        steps, views_f = self._plan(a, out)
        for step in steps:
            step()
        if keep and views_f:
            self.__dict__["_bound"] = (f, out, steps)
        return out

    def _plan(self, f: np.ndarray, out: np.ndarray) -> tuple:
        """The ufunc calls, as bound partials, that take lap f into out, and
        whether they read f's own memory.  The first axis differences into
        out.  Along the last axis of a 2-D grid both shifted adds run on
        each field's flat C-order row (a copy unless each field is
        contiguous), one pass each, into a scratch field added to out; the
        first column picks up the last node of the row before and the last
        column the first node of the row after, so each is saved before its
        add and restored after it: bit for bit the slice stencil.
        """
        steps, views_f = [], True
        for lo, up, first, last, h2, flat in self._stencils:
            if flat:
                fv = f.reshape(f.shape[:-2] + (-1,))
                views_f = np.may_share_memory(fv, f)
                dv = np.empty(fv.shape)
                d = dv.reshape(f.shape)
                edges = np.empty(d[first].shape), np.empty(d[last].shape)
                steps += [partial(np.multiply, fv, -2.0, dv),
                          partial(np.copyto, edges[0], d[first]),
                          partial(np.add, dv[..., 1:], fv[..., :-1],
                                  dv[..., 1:]),
                          partial(np.copyto, d[first], edges[0]),
                          partial(np.copyto, edges[1], d[last]),
                          partial(np.add, dv[..., :-1], fv[..., 1:],
                                  dv[..., :-1]),
                          partial(np.copyto, d[last], edges[1])]
            else:
                # the first axis, whose array is out
                d = out
                steps += [partial(np.multiply, f, -2.0, d),
                          partial(np.add, d[up], f[lo], d[up]),
                          partial(np.add, d[lo], f[up], d[lo])]
            steps.append(partial(np.divide, d, h2, d))
            if d is not out:
                steps.append(partial(np.add, out, d, out))
        return tuple(steps), views_f

    def h1_seminorm_sq(self, f: np.ndarray) -> float:
        """Sum over edges (incl. boundary edges) of squared differences.

        Equals ``-inner(laplacian(f), f)`` exactly for the stencil above.
        """
        f = self.check(f)
        total = 0.0
        for lo, up, first, last, h2, _ in self._stencils:
            # the n - 1 inner edges along the axis, and the two edges to the
            # zero exterior, whose differences are the first and last nodes
            d = f[up] - f[lo]
            if self.dim == 1:
                # single nodes: their products equal the length-1 dot products
                a, b = f.item(0), f.item(-1)
                sq = np.vdot(d, d) + a * a + b * b
            else:
                a, b = f[first], f[last]
                sq = np.vdot(d, d) + np.vdot(a, a) + np.vdot(b, b)
            # each edge carries the edge length hi times the transverse measure
            total += float(sq) / h2 * self.cell_volume
        return total

    def h1_by_parts(self, f: np.ndarray, lap_f: np.ndarray) -> float:
        """||grad f||^2 as -inner(lap_f, f) for lap_f = laplacian(f), one dot
        product.  The product is never positive but by rounding, so its
        magnitude is taken: never below 0, and +0.0 for f = 0."""
        return abs(float(np.vdot(lap_f, f))) * self.cell_volume

    def l2_norm_sq(self, f: np.ndarray) -> float:
        """||f||^2 by midpoint quadrature."""
        f = self.check(f)
        return float(np.add.reduce(f * f, axis=None)) * self.cell_volume

    def lp_norm_pow(self, f: np.ndarray, q: float) -> float:
        """||f||_q^q by midpoint quadrature; requires q >= 1."""
        if q < 1:
            raise GridError(f"lp_norm_pow needs q >= 1, got {q}")
        f = self.check(f)
        # from q = 2 on the square goes first, and at q = 4 it is squared
        # again as a product, as pow rounds it; below 2 f*f could overflow
        x, e = (np.multiply(f, f), 0.5 * q) if q >= 2.0 else (np.abs(f), q)
        if e == 2.0:
            np.multiply(x, x, out=x)
        elif e != 1.0:
            x **= e
        return float(np.add.reduce(x, axis=None)) * self.cell_volume

    # -- elliptic solve -----------------------------------------------------

    @cached_property
    def _sine_basis(self) -> tuple:
        """Per axis the orthonormal, symmetric sine matrix
        S_jk = sqrt(2/(n+1)) sin(pi jk/(n+1)), and on the grid's shape the
        eigenvalues of -laplacian, sum_i (2 sin(pi k_i/(2(n_i+1)))/h_i)^2."""
        bases, lams = [], []
        for k, hi in zip(self.n, self.h):
            j = np.arange(1, k + 1)
            # S_jk takes the 2(n+1) values sin(pi m/(n+1)), m = jk mod 2(n+1)
            m = np.arange(2 * (k + 1))
            table = math.sqrt(2.0 / (k + 1)) * np.sin(np.pi / (k + 1) * m)
            bases.append(table[np.outer(j, j) % (2 * (k + 1))])
            lams.append((2.0 * np.sin(np.pi * j / (2 * (k + 1))) / hi) ** 2)
        return bases, lams[0] if self.dim == 1 else np.add.outer(*lams)

    def _sine_solve(self, rhs: np.ndarray) -> np.ndarray:
        """S (S rhs / lam), S being its own inverse: S acts on axis 0 from
        the left and, being symmetric, on axis 1 from the right."""
        bases, lam = self._sine_basis
        c = bases[0] @ rhs if self.dim == 1 else bases[0] @ rhs @ bases[1]
        c /= lam
        return bases[0] @ c if self.dim == 1 else bases[0] @ c @ bases[1]

    def poisson_solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve -laplacian(f) = rhs with the Dirichlet stencil above.

        The discrete sine transform diagonalises the stencil exactly
        (Buzbee, Golub & Nielson 1970): the solve transforms along every
        axis, divides by the eigenvalues and transforms back.  One pass
        leaves a relative residual of about 1e-11 at n = 800, so one step of
        iterative refinement, f += solve(rhs + laplacian(f)), follows; it
        brings the residual to that of a banded or sparse direct solve.
        """
        rhs = self.check(rhs)
        f = self._sine_solve(rhs)
        f += self._sine_solve(rhs + self.laplacian(f))
        return f

    def first_eigenmode(self) -> np.ndarray:
        """Product-of-sines lowest Dirichlet mode, normalized in max norm."""
        if self.dim == 1:
            x = self.coords()
            return np.sin(np.pi * x / self.extents[0])
        X, Y = self.coords()
        return (np.sin(np.pi * X / self.extents[0])
                * np.sin(np.pi * Y / self.extents[1]))
