"""Core data types and objective evaluation.

A problem instance is the regularized least-squares program

    min_W  0.5 * ||Y - B W||_2^2  +  lam * sum_i ||w_i||_q

where ``W`` splits into ``s`` contiguous, non-overlapping groups ``w_i`` and
``q >= 1`` (q = inf allowed).  This module holds the group layout
(:class:`GroupPartition`), the vector-with-layout pair
(:class:`GroupedVector`), the immutable :class:`ProblemInstance`, the
matrix-free multi-response design (:class:`StackedDesign`) with its layout,
and the norm / objective helpers everything else is built on.

All numerical work is float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import DimensionError, InputError, InvalidExponentError, InvalidParameterError

# a group whose lq norm is at most this counts as zero
ZERO_GROUP_NORM = 1e-6


class QKind(Enum):
    """Exact dispatch tag for the norm exponent.

    Closed-form branches (q = 1, 2, inf) are selected by exact comparison,
    never by a float tolerance; everything else in (1, inf) is GENERAL.
    """

    ONE = "one"
    TWO = "two"
    INF = "inf"
    GENERAL = "general"


def classify_q(q: float) -> QKind:
    """Tag an exponent, validating q >= 1.  q = math.inf is its own tag."""
    if q == 1:
        return QKind.ONE
    if q == 2:
        return QKind.TWO
    if q == math.inf:
        return QKind.INF
    if isinstance(q, (int, float)) and 1 < q < math.inf:
        return QKind.GENERAL
    raise InvalidExponentError(f"norm exponent must satisfy q >= 1, got {q!r}")


def dual_exponent(q: float) -> float:
    """Conjugate exponent qbar with 1/q + 1/qbar = 1.

    Conventions: q = 1 -> qbar = inf, q = inf -> qbar = 1.
    """
    kind = classify_q(q)
    if kind is QKind.ONE:
        return math.inf
    if kind is QKind.INF:
        return 1.0
    return q / (q - 1.0)


def lq_norm(v: np.ndarray, q: float) -> float:
    """lq norm of a 1-d vector for any q in [1, inf].

    The general-q branch rescales by the max entry before exponentiating so
    large q does not overflow.
    """
    kind = classify_q(q)
    a = np.abs(np.asarray(v, dtype=np.float64)).ravel()
    if a.size == 0:
        return 0.0
    if kind is QKind.ONE:
        return float(a.sum())
    if kind is QKind.TWO:
        return float(np.sqrt(np.dot(a, a)))
    if kind is QKind.INF:
        return float(a.max())
    amax = float(a.max())
    if amax == 0.0:
        return 0.0
    return float(amax * np.power(np.power(a / amax, q).sum(), 1.0 / q))


@dataclass(frozen=True)
class GroupPartition:
    """Contiguous, non-overlapping split of ``p`` coordinates into groups.

    ``sizes[i]`` is the length of group i; group i occupies the half-open
    index range ``[offsets[i], offsets[i+1])``.
    """

    sizes: tuple[int, ...]

    def __post_init__(self):
        try:
            sizes = tuple(int(s) for s in self.sizes)
        except (TypeError, ValueError) as exc:
            raise DimensionError(f"group sizes must be integers, got {self.sizes!r}") from exc
        if len(sizes) == 0:
            raise DimensionError("a partition needs at least one group")
        if any(s < 1 for s in sizes):
            raise DimensionError(f"group sizes must be positive, got {sizes}")
        object.__setattr__(self, "sizes", sizes)

    @cached_property
    def offsets(self) -> np.ndarray:
        """Prefix sums; offsets has length s+1 and offsets[-1] == p."""
        return np.concatenate(([0], np.cumsum(self.sizes))).astype(np.intp)

    @cached_property
    def p(self) -> int:
        return int(self.offsets[-1])

    @property
    def s(self) -> int:
        return len(self.sizes)

    def slice(self, i: int) -> slice:
        off = self.offsets
        return slice(int(off[i]), int(off[i + 1]))

    @cached_property
    def starts(self) -> np.ndarray:
        """Group start indices, the reduceat index array."""
        return self.offsets[:-1]

    @cached_property
    def sizes_array(self) -> np.ndarray:
        """``sizes`` as a read-only index array."""
        sizes = np.asarray(self.sizes, dtype=np.intp)
        sizes.flags.writeable = False
        return sizes


@dataclass
class GroupedVector:
    """A float64 vector together with its group layout.

    ``group(i)`` returns a live numpy view of group i's coordinates, so
    in-place edits through the view are visible on ``values``.
    """

    values: np.ndarray
    partition: GroupPartition

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.float64).ravel()
        if self.values.shape != (self.partition.p,):
            raise DimensionError(
                f"vector length {self.values.shape[0]} does not match partition "
                f"total {self.partition.p}"
            )

    def group(self, i: int) -> np.ndarray:
        return self.values[self.partition.slice(i)]


def group_norms(values: np.ndarray, partition: GroupPartition, q: float) -> np.ndarray:
    """Per-group lq norms of a flat length-p vector, vectorized via reduceat."""
    # q = 2 is the solver's hot path: tested before the general validation,
    # and v * v equals |v| * |v| bit for bit, so it takes no abs
    kind = QKind.TWO if q == 2.0 else classify_q(q)
    a = np.asarray(values, dtype=np.float64).ravel()
    if a.shape != (partition.p,):
        raise DimensionError(f"expected length {partition.p}, got {a.shape[0]}")
    starts = partition.starts
    if kind is QKind.TWO:
        return np.sqrt(np.add.reduceat(a * a, starts))
    a = np.abs(a)
    if kind is QKind.ONE:
        return np.add.reduceat(a, starts)
    if kind is QKind.INF:
        return np.maximum.reduceat(a, starts)
    gmax = np.maximum.reduceat(a, starts)
    scale = np.where(gmax > 0.0, gmax, 1.0)
    scaled = a / np.repeat(scale, partition.sizes_array)
    sums = np.add.reduceat(np.power(scaled, q), starts)
    return gmax * np.power(sums, 1.0 / q)


def mixed_norm(W: GroupedVector, q: float) -> float:
    """The l1/lq mixed norm: sum over groups of the group's lq norm."""
    return float(group_norms(W.values, W.partition, q).sum())


class StackedDesign:
    """The design of a k-response problem, kept as its m x d matrix A.

    The multi-response program

        min_W  0.5 * ||Y - A W||_F^2  +  lam * sum_i ||row_i(W)||_q

    is a grouped single-response program in the stacked layout
    w = W.ravel() (group i, of size k, is row i of W) and y = Y.T.ravel()
    (response t fills rows t*m .. t*m + m - 1).  Its (m*k) x (d*k) design
    has entry A[j, i] at (t*m + j, i*k + t) for every t and zeros elsewhere,
    k^2 times the memory of A; this class never builds it.  It offers what
    the package uses: ``B @ w``, ``B.T @ r``, column and block norms and the
    selection of groups.
    """

    ndim = 2

    def __init__(self, A: np.ndarray, k: int):
        A = np.ascontiguousarray(A, dtype=np.float64)
        if A.ndim != 2 or k < 1:
            raise DimensionError(f"need a 2-d A and k >= 1, got shape {A.shape} and k={k}")
        self.A, self.k = A, int(k)

    @property
    def shape(self) -> tuple[int, int]:
        m, d = self.A.shape
        return m * self.k, d * self.k

    @property
    def nbytes(self) -> int:
        return self.A.nbytes

    @property
    def T(self) -> "_StackedTranspose":
        return _StackedTranspose(self)

    def __matmul__(self, w: np.ndarray) -> np.ndarray:
        """B @ w = (A @ W).T.ravel() with W the d x k matrix of w."""
        return (self.A @ np.reshape(w, (self.A.shape[1], self.k))).T.ravel()

    def column_norms(self) -> np.ndarray:
        """Column (i, t) of B holds column i of A and zeros."""
        return np.repeat(self.block_norms(), self.k)

    def block_norms(self) -> np.ndarray:
        """Spectral norm of each group's block: ||a_i||, since the k columns
        of block i are copies of column i of A on disjoint rows."""
        return np.sqrt(np.sum(self.A * self.A, axis=0))

    def select_groups(self, keep: np.ndarray) -> "StackedDesign":
        """The design of the kept groups (a boolean mask or indices over A's columns)."""
        return StackedDesign(self.A[:, keep], self.k)

    def block(self, i: int) -> "StackedDesign":
        return self.select_groups(slice(i, i + 1))

    def toarray(self) -> np.ndarray:
        """The dense (m*k) x (d*k) matrix, for writing it out."""
        m = self.A.shape[0]
        B = np.zeros(self.shape)
        for t in range(self.k):
            B[t * m:(t + 1) * m, t::self.k] = self.A
        return B


class _StackedTranspose:
    """``B.T`` of a :class:`StackedDesign`; it only multiplies vectors."""

    def __init__(self, design: StackedDesign):
        self.A, self.k = design.A, design.k

    def __matmul__(self, r: np.ndarray) -> np.ndarray:
        """B.T @ r = (A.T @ R).ravel() with R the m x k matrix of r."""
        return (self.A.T @ np.reshape(r, (self.k, self.A.shape[0])).T).ravel()


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """Immutable problem data: design B (m x p), response Y (m), layout, q, lam.

    B is a dense array, or a :class:`StackedDesign` for multi-response data.
    Only GroupedVector payloads are mutable in this package; instances are
    shared freely across path steps via :func:`dataclasses.replace`.
    """

    B: np.ndarray | StackedDesign
    Y: np.ndarray
    partition: GroupPartition
    q: float
    lam: float

    def __post_init__(self):
        B = self.B
        if not isinstance(B, StackedDesign):
            B = np.ascontiguousarray(B, dtype=np.float64)
        Y = np.ascontiguousarray(self.Y, dtype=np.float64).ravel()
        if B.ndim != 2:
            raise DimensionError(f"design matrix must be 2-d, got shape {B.shape}")
        if B.shape[1] != self.partition.p:
            raise DimensionError(
                f"design has {B.shape[1]} columns but the partition covers "
                f"{self.partition.p}"
            )
        if Y.shape[0] != B.shape[0]:
            raise DimensionError(
                f"response length {Y.shape[0]} does not match {B.shape[0]} rows"
            )
        classify_q(self.q)
        if not (isinstance(self.lam, (int, float)) and self.lam >= 0 and math.isfinite(self.lam)):
            raise InvalidParameterError(f"lambda must be a finite nonnegative real, got {self.lam!r}")
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "q", float(self.q))

    @property
    def m(self) -> int:
        return self.B.shape[0]

    @property
    def p(self) -> int:
        return self.B.shape[1]

    def block(self, i: int) -> np.ndarray | StackedDesign:
        """Columns of B belonging to group i (a view of a dense B)."""
        if isinstance(self.B, StackedDesign):
            return self.B.block(i)
        return self.B[:, self.partition.slice(i)]

    def column_norms(self) -> np.ndarray:
        """Euclidean norm of every column of B."""
        if isinstance(self.B, StackedDesign):
            return self.B.column_norms()
        return np.sqrt(np.sum(self.B * self.B, axis=0))

    def block_norms(self) -> np.ndarray:
        """Spectral norm ||B_i||_2 of every group's block of columns."""
        if isinstance(self.B, StackedDesign):
            return self.B.block_norms()
        return np.array([np.linalg.norm(self.block(i), 2) for i in range(self.partition.s)])

    def select_groups(self, keep: np.ndarray) -> np.ndarray | StackedDesign:
        """The columns of B in the groups where the boolean ``keep`` is True."""
        if isinstance(self.B, StackedDesign):
            return self.B.select_groups(keep)
        return self.B[:, np.repeat(keep, self.partition.sizes_array)]

    def with_lam(self, lam: float) -> "ProblemInstance":
        return replace(self, lam=lam)


def stacked_instance(A: np.ndarray, Y: np.ndarray, q: float, lam: float) -> ProblemInstance:
    """Single-response form of the multi-response problem with design A and
    responses Y (m x k, or length m for k = 1), on a :class:`StackedDesign`."""
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim == 1:
        Y = Y[:, None]
    if Y.ndim != 2:
        raise DimensionError(f"responses must be 1-d or 2-d, got shape {Y.shape}")
    B = StackedDesign(A, Y.shape[1])
    return ProblemInstance(B, Y.T.ravel(), GroupPartition((B.k,) * B.A.shape[1]), q, lam)


def dual_feasibility_scale(inst: ProblemInstance, theta: np.ndarray) -> float:
    """max(1, max_i ||B_i^T theta||_qbar); dividing theta by it lands in the
    dual feasible set {theta : ||B_i^T theta||_qbar <= 1 for all i}."""
    norms = group_norms(inst.B.T @ theta, inst.partition, dual_exponent(inst.q))
    return max(1.0, float(norms.max()))


def relative_gap(inst: ProblemInstance, w: np.ndarray, r: np.ndarray) -> float | None:
    """Relative duality gap (P - D) / P at w, given its residual r = Y - B w.

    The dual point is r / lam rescaled by ``dual_feasibility_scale``, that
    is theta = r / max(lam, max_i ||B_i^T r||_qbar), and
    D(theta) = 0.5 ||Y||^2 - 0.5 ||Y - lam theta||^2 <= P(w*).  None at
    lam = 0, where there is no such dual bound.
    """
    if inst.lam == 0.0:
        return None
    P = 0.5 * float(r @ r) + inst.lam * float(group_norms(w, inst.partition, inst.q).sum())
    z = r / dual_feasibility_scale(inst, r / inst.lam)  # lam * theta
    D = float(inst.Y @ z) - 0.5 * float(z @ z)
    return (P - D) / P if P > 0.0 else 0.0


def objective(inst: ProblemInstance, W: GroupedVector) -> float:
    """0.5 * ||Y - B w||_2^2 + lam * mixed_norm(w)."""
    if W.partition.sizes != inst.partition.sizes:
        raise DimensionError("vector group layout does not match the instance")
    w = W.values
    if not np.isfinite(w).all():
        raise InputError("objective evaluated at a non-finite point")
    r = inst.Y - inst.B @ w
    return float(0.5 * np.dot(r, r) + inst.lam * mixed_norm(W, inst.q))
