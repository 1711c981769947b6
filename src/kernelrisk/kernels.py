"""Kernels, Gram matrices, and finite kernel expansions.

Every kernel is normalized so that k(x, x) <= 1 on its domain box, which
makes the embedding of the induced Hilbert space into the bounded continuous
functions have norm one: ||f||_inf <= ||f||_H.  All bound calculators in
this package rely on that convention, and
:meth:`KernelExpansion.sup_norm_bound` returns the certified upper bound
||f||_H wherever a sup-norm is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Box",
    "Kernel",
    "KernelExpansion",
    "DomainError",
    "IndefiniteGramError",
    "kernel_matrix",
    "combine_expansions",
    "kernel_from_config",
]

# Quadratic forms c'Kc more negative than this indicate a genuinely broken
# Gram matrix rather than rounding noise.
_NORM_CLAMP = -1e-10


def _clamped_square_norm(q: float) -> float:
    """A computed c'Kc as a squared norm: rounding noise below 0 becomes 0."""
    if q < _NORM_CLAMP:
        raise IndefiniteGramError(f"quadratic form c'Kc = {q} < {_NORM_CLAMP}")
    return max(q, 0.0)


class DomainError(ValueError):
    """A point lies outside the kernel's domain box."""


class IndefiniteGramError(ArithmeticError):
    """A Gram quadratic form came out negative beyond rounding tolerance."""


@dataclass(frozen=True)
class Box:
    """Axis-aligned compact box in R^d, the input domain X."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self):
        lo = tuple(float(v) for v in self.lower)
        hi = tuple(float(v) for v in self.upper)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if len(lo) != len(hi) or not lo:
            raise ValueError("box needs matching, nonempty lower/upper bounds")
        if not all(l < u and u - l < math.inf for l, u in zip(lo, hi)):
            raise ValueError("box needs finite bounds with lower < upper "
                             "on every axis")

    @property
    def dim(self) -> int:
        return len(self.lower)

    @property
    def volume(self) -> float:
        return float(np.prod(np.subtract(self.upper, self.lower)))

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = as_points(points, self.dim)
        lo = np.asarray(self.lower) - 1e-9
        hi = np.asarray(self.upper) + 1e-9
        return np.all((pts >= lo) & (pts <= hi), axis=1)

    def corners(self) -> np.ndarray:
        grids = np.meshgrid(*[(l, u) for l, u in zip(self.lower, self.upper)],
                            indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)

    def to_config(self) -> dict:
        return {"lower": list(self.lower), "upper": list(self.upper)}

    @staticmethod
    def from_config(cfg: dict) -> "Box":
        return Box(tuple(cfg["lower"]), tuple(cfg["upper"]))


def as_points(x, dim: int) -> np.ndarray:
    """Coerce scalars / 1-d arrays / (n, d) arrays to an (n, dim) float array."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        # A 1-d array is a list of scalar points when dim == 1, else one point.
        arr = arr.reshape(-1, 1) if dim == 1 else arr.reshape(1, -1)
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise ValueError(f"expected points in R^{dim}, got shape {arr.shape}")
    return arr


def _matern_poly_coeffs(k: int) -> np.ndarray:
    """Polynomial coefficients of the half-integer Matern closed form.

    For smoothness nu = k + 1/2 the kernel is exp(-z/2) * sum_j b_j z^j with
    z = 2 sqrt(2 nu) r / length_scale; this returns the b_j.
    """
    fact = math.factorial
    coeffs = np.zeros(k + 1)
    for i in range(k + 1):
        coeffs[k - i] = fact(k) / fact(2 * k) * (fact(k + i) / (fact(i) * fact(k - i)))
    return coeffs


@dataclass(frozen=True)
class Kernel:
    """A normalized kernel on a box domain.

    Families
    --------
    gaussian : k(x, x') = exp(-||x - x'||^2 / width^2)
    matern   : half-integer Matern indexed by Sobolev order m and the box
               dimension d; the smoothness is nu = m - d/2, which must be a
               positive half-integer (m = 1, d = 1 gives the exponential
               kernel exp(-r / length_scale)).  The induced space is
               norm-equivalent to a Sobolev space of order m.
    linear   : k(x, x') = <x, x'> / sup_box ||x||^2
    """

    family: str
    domain: Box
    width: float | None = None
    sobolev_order: float | None = None
    length_scale: float | None = None

    def __post_init__(self):
        if self.family == "gaussian":
            if self.width is None or not self.width > 0:
                raise ValueError("gaussian kernel needs width > 0")
        elif self.family == "matern":
            if self.length_scale is None or not self.length_scale > 0:
                raise ValueError("matern kernel needs length_scale > 0")
            order = self.sobolev_order
            if order is None or not 1 <= order < math.inf:
                raise ValueError("matern kernel needs finite sobolev_order >= 1")
            nu = order - self.domain.dim / 2.0
            k = nu - 0.5
            if nu <= 0 or abs(k - round(k)) > 1e-12:
                raise ValueError(
                    f"sobolev_order - dim/2 = {nu} must be a positive half-integer"
                )
        elif self.family == "linear":
            pass
        else:
            raise ValueError(f"unknown kernel family {self.family!r}")

    @property
    def dim(self) -> int:
        return self.domain.dim

    @property
    def nu(self) -> float:
        """Matern smoothness exponent nu = sobolev_order - dim/2."""
        if self.family != "matern":
            raise AttributeError("nu is only defined for matern kernels")
        return self.sobolev_order - self.dim / 2.0

    @cached_property
    def _linear_scale(self) -> float:
        sup = float(np.max(np.sum(self.domain.corners() ** 2, axis=1)))
        return sup if sup > 0 else 1.0

    def pairwise(self, xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
        """Matrix of kernel values k(xa_i, xb_j); no domain validation.

        Every elementwise step after the first n x m array runs in place.
        """
        xa = as_points(xa, self.dim)
        xb = as_points(xb, self.dim)
        if self.family == "linear":
            out = xa @ xb.T
            out /= self._linear_scale
            return out
        if self.dim == 1:
            out = xa - xb.T
            np.abs(out, out=out)
            if self.family == "gaussian":
                out *= out
        else:
            cross = xa @ xb.T
            cross *= 2.0
            out = np.add.outer(np.sum(xa**2, axis=1), np.sum(xb**2, axis=1))
            out -= cross
            np.maximum(out, 0.0, out=out)
            if self.family != "gaussian":
                np.sqrt(out, out=out)
        # out now holds squared distances (gaussian) or distances (matern)
        if self.family == "gaussian":
            np.negative(out, out=out)
            out /= self.width**2
            return np.exp(out, out=out)
        k = int(round(self.nu - 0.5))
        out *= 2.0 * math.sqrt(2.0 * self.nu) / self.length_scale
        if k == 0:  # exponential kernel: the polynomial factor is 1
            out *= -0.5
            return np.exp(out, out=out)
        poly = np.polynomial.polynomial.polyval(out, _matern_poly_coeffs(k))
        out *= -0.5
        np.exp(out, out=out)
        out *= poly
        return out

    def to_config(self) -> dict:
        params: dict = {}
        if self.family == "gaussian":
            params["width"] = self.width
        elif self.family == "matern":
            params["sobolev_order"] = self.sobolev_order
            params["length_scale"] = self.length_scale
        return {"family": self.family, "params": params,
                "domain": self.domain.to_config()}


def kernel_from_config(cfg: dict) -> Kernel:
    return Kernel(family=cfg["family"], domain=Box.from_config(cfg["domain"]),
                  **cfg.get("params", {}))


def kernel_matrix(kernel: Kernel, points) -> np.ndarray:
    """Gram matrix K[i, j] = k(points_i, points_j), exactly symmetric.

    Points must lie inside the kernel's domain box.  The result is
    positive semidefinite up to rounding (min eigenvalue >= -1e-8 * trace).
    Symmetry holds bit for bit, as the solver's in-place factorization of
    K.T needs: x_i - x_j is exactly -(x_j - x_i), numpy forms ``pts @ pts.T``
    as a symmetric rank-k update, and ``np.add.outer`` is commutative.
    """
    pts = as_points(points, kernel.dim)
    inside = kernel.domain.contains(pts)
    if not np.all(inside):
        bad = pts[~inside][0]
        raise DomainError(f"point {bad} outside domain box {kernel.domain}")
    return kernel.pairwise(pts, pts)


# Above this many kernel evaluations (n centers times m points), expansion
# evaluation and the norm switch to the exact exponential-kernel scan when the
# kernel is the 1-d exponential one: O(n + m) after an O(n log n) sort of the
# centers.
_SCAN_THRESHOLD = 1 << 14
# Exponent span of one block of the scan's partial sums.  The end of a block,
# s_lo + span * l, rounds up by at most span * l itself, so no exponent inside
# a block exceeds twice this: far below exp's overflow at 709.
_BLOCK_SPAN = 256.0


@dataclass(frozen=True)
class KernelExpansion:
    """A function f = sum_i c_i k(center_i, .) in the kernel's Hilbert space."""

    kernel: Kernel
    centers: np.ndarray
    coefficients: np.ndarray

    def __post_init__(self):
        pts = as_points(self.centers, self.kernel.dim).copy()
        coefs = np.asarray(self.coefficients, dtype=float).reshape(-1).copy()
        if len(pts) != len(coefs):
            raise ValueError("centers and coefficients must have equal length")
        if len(pts) and not np.all(self.kernel.domain.contains(pts)):
            raise DomainError("expansion center outside domain box")
        pts.setflags(write=False)
        coefs.setflags(write=False)
        object.__setattr__(self, "centers", pts)
        object.__setattr__(self, "coefficients", coefs)

    def __len__(self) -> int:
        return len(self.coefficients)

    def __call__(self, x) -> np.ndarray:
        """Evaluate f at one or many points (exact finite sum)."""
        pts = as_points(x, self.kernel.dim)
        if not len(self):
            return np.zeros(len(pts))
        if self._uses_scan(len(pts)):
            return _exponential_scan_eval(self, pts[:, 0])
        return self.kernel.pairwise(pts, self.centers) @ self.coefficients

    def on_grid(self, nodes, shape: tuple[int, ...]) -> np.ndarray:
        """f at ``nodes``, the ``ij``-ordered tensor grid of ``shape``, as
        :meth:`__call__` returns it.

        A Gaussian kernel is a product over coordinates, so in d >= 2 the sum
        over the n centers is built from one m_j x n table of factors per
        axis: sum_j m_j * n exponentials, not prod_j m_j * n.  Other kernels
        are evaluated point by point.
        """
        pts = as_points(nodes, self.kernel.dim)
        d = self.kernel.dim
        if self.kernel.family != "gaussian" or d == 1 or not len(self):
            return self(pts)
        grid = pts.reshape(*shape, d)
        factors = []
        for j in range(d):
            axis = grid[(0,) * j + (slice(None),) + (0,) * (d - 1 - j) + (j,)]
            sq = np.subtract.outer(axis, self.centers[:, j])
            sq *= sq
            np.negative(sq, out=sq)
            sq /= self.kernel.width**2
            factors.append(np.exp(sq, out=sq))
        rows = factors[0] * self.coefficients
        for table in factors[1:-1]:
            rows = (rows[:, None, :] * table).reshape(-1, len(self))
        return (rows @ factors[-1].T).ravel()

    def _uses_scan(self, points: int) -> bool:
        kernel = self.kernel
        return (kernel.family == "matern" and kernel.dim == 1
                and abs(kernel.nu - 0.5) < 1e-12
                and len(self) * points > _SCAN_THRESHOLD)

    @cached_property
    def _squared_norm(self) -> float:
        if not len(self):
            return 0.0
        if self._uses_scan(len(self)):
            # sum_k c_k f(s_k), where f(s_k) = L_k + R_k - c_k counts the
            # center itself once
            _, c, left, right = _exponential_partial_sums(self)
            q = float(c @ (left + right - c))
        else:
            K = self.kernel.pairwise(self.centers, self.centers)
            q = float(self.coefficients @ (K @ self.coefficients))
        return _clamped_square_norm(q)

    def rkhs_norm(self) -> float:
        """||f||_H = sqrt(c' K c), with tiny negative forms clamped to zero."""
        return math.sqrt(self._squared_norm)

    def sup_norm_bound(self) -> float:
        """Certified upper bound on ||f||_inf (equals ||f||_H; see module doc)."""
        return self.rkhs_norm()


def _exponential_partial_sums(f: KernelExpansion):
    """Sorted centers s, their coefficients c and the partial sums

        L_k = sum_{j <= k} c_j exp(-(s_k - s_j) / l),
        R_k = sum_{j >= k} c_j exp(-(s_j - s_k) / l)

    of a 1-d exponential-kernel expansion; tied centers count on both sides
    in sorted order.
    """
    ell = f.kernel.length_scale
    order = np.argsort(f.centers[:, 0], kind="stable")
    s = f.centers[order, 0]
    c = f.coefficients[order]
    left = _left_sums(s, c, ell)
    right = _left_sums(-s[::-1], c[::-1], ell)[::-1]
    return s, c, left, right


def _left_sums(s: np.ndarray, c: np.ndarray, ell: float) -> np.ndarray:
    """L_k = sum_{j <= k} c_j exp(-(s_k - s_j) / ell) for nondecreasing s.

    The centers within _BLOCK_SPAN * ell of a block's first center are summed
    at once against that center.  The last sum of a block carries into the
    next through the one ratio exp(-(s_lo - s_{lo-1}) / ell), as in the
    recursion L_k = c_k + L_{k-1} exp(-(s_k - s_{k-1}) / ell), so every
    exponent stays bounded whatever the length scale.
    """
    n = len(s)
    out = np.empty(n)
    lo = 0
    while lo < n:
        hi = int(np.searchsorted(s, s[lo] + _BLOCK_SPAN * ell, side="right"))
        decay = np.exp((s[lo] - s[lo:hi]) / ell)
        carry = out[lo - 1] * math.exp((s[lo - 1] - s[lo]) / ell) if lo else 0.0
        out[lo:hi] = decay * (carry + np.cumsum(c[lo:hi] / decay))
        lo = hi
    return out


def _locate(s: np.ndarray, x: np.ndarray) -> np.ndarray:
    """np.searchsorted(s, x, side="right") for sorted s and any non-NaN x.

    A uniform table of 4n buckets over [s_0, s_{n-1}] gives the number of
    centers in the buckets before x's bucket, and a branch-free binary search
    over the centers of x's own bucket adds those <= x.  The bucket key is
    nondecreasing in its argument, so every center in an earlier bucket is
    below x and every center in a later one above it, ties included.  The
    search takes log2 of the fullest bucket's count in steps over all m
    points: a step or two for evenly spread centers, log2(n) at worst.
    """
    n = len(s)
    buckets = 4 * n
    span = s[-1] - s[0]
    scale = buckets / span if span > 0 else 0.0

    def bucket(v):
        key = v - s[0]
        with np.errstate(invalid="ignore"):  # inf * 0 is NaN ...
            key *= scale
        np.fmax(key, 0.0, out=key)  # ... and fmax sends NaN to bucket 0
        np.fmin(key, buckets - 1, out=key)
        return key.astype(np.intp)

    first = np.searchsorted(bucket(s), np.arange(buckets + 1))
    depth = int(np.max(np.diff(first))).bit_length()
    # NaN padding compares false, so the search never runs past the centers
    padded = np.concatenate((s, np.full(1 << depth, np.nan)))
    probe = bucket(x)
    idx = first.take(probe)
    # Buffers are reused: a fresh array of m values costs more than the
    # arithmetic on it.  Probes are always in range; mode="clip" only spares
    # take a copy of its output.
    value = np.empty(len(x))
    hit = np.empty(len(x), dtype=bool)
    for k in reversed(range(depth)):
        step = 1 << k
        np.add(idx, step - 1, out=probe)
        padded.take(probe, out=value, mode="clip")
        np.less_equal(value, x, out=hit)
        np.multiply(hit, step, out=probe)
        idx += probe
    return idx


def _exponential_scan_eval(f: KernelExpansion, x: np.ndarray) -> np.ndarray:
    """Exact evaluation of a 1-d exponential-kernel expansion.

    With the centers sorted and i = #{k : s_k <= x},

        f(x) = L_{i-1} exp(-(x - s_{i-1}) / l) + R_i exp(-(s_i - x) / l),

    where L and R are the partial sums of :func:`_exponential_partial_sums`.
    Both exponents are <= 0, so no length scale overflows.  After the
    O(n log n) sort of the n centers the cost is O(n + m) for m points, up
    to the depth of :func:`_locate`'s search.
    """
    ell = f.kernel.length_scale
    s, _, left, right = _exponential_partial_sums(f)
    i = _locate(s, x)
    # Centers at -inf and +inf with zero sums stand in for a missing side.
    # The arithmetic runs in place: fresh arrays of m values are slow.
    out = np.concatenate(([-np.inf], s)).take(i)
    out -= x
    out /= ell
    np.exp(out, out=out)
    out *= np.concatenate(([0.0], left)).take(i)
    part = np.concatenate((s, [np.inf])).take(i)
    np.subtract(x, part, out=part)
    part /= ell
    np.exp(part, out=part)
    part *= np.concatenate((right, [0.0])).take(i)
    out += part
    return out


def combine_expansions(f: KernelExpansion, g: KernelExpansion,
                       a: float = 1.0, b: float = 1.0) -> KernelExpansion:
    """The expansion a*f + b*g (both must share a kernel)."""
    if f.kernel != g.kernel:
        raise ValueError("cannot combine expansions over different kernels")
    if not len(g):
        return KernelExpansion(f.kernel, f.centers, a * f.coefficients)
    if not len(f):
        return KernelExpansion(g.kernel, g.centers, b * g.coefficients)
    centers = np.vstack([f.centers, g.centers])
    coefs = np.concatenate([a * f.coefficients, b * g.coefficients])
    return KernelExpansion(f.kernel, centers, coefs)

