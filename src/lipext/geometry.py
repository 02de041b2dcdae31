"""Dimension-checked vectors, balls, V-polytopes, and simplex weights.

Vectors are plain 1-D float64 numpy arrays validated by as_vector(). The
public dot() fixes the summation order left-to-right so results are
reproducible across platforms.  row_dots() and row_norms() keep numpy's own
order for the rows of an (N, m) array, from +0.0 and left to right below 8
columns (pairwise from 8), but add whole columns: bit for bit, and several
times faster than numpy's axis=1 reduce, which walks one short row at a time.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError

SIMPLEX_REJECT = 1e-9
_BLOCK_PAIRS = 4096


def as_vector(x) -> np.ndarray:
    """Validate and return a finite 1-D float64 vector (dimension >= 1)."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector has non-finite coordinates")
    return v


def check_same_dimension(x: np.ndarray, y: np.ndarray) -> None:
    if x.shape[0] != y.shape[0]:
        raise DimensionMismatchError(
            f"dimension mismatch: {x.shape[0]} vs {y.shape[0]}"
        )


def dot(x, y) -> float:
    """Inner product x_1*y_1 + ... + x_n*y_n, summed left to right."""
    x = as_vector(x)
    y = as_vector(y)
    check_same_dimension(x, y)
    s = 0.0
    for a, b in zip(x.tolist(), y.tolist()):
        s += a * b
    return s


def norm(x) -> float:
    """Euclidean norm sqrt(<x, x>)."""
    return float(np.sqrt(dot(x, x)))


def row_dots(a, b):
    """Row sums of a * b, np.add.reduce(a * b, axis=1) bit for bit."""
    if a.shape[1] >= 8:
        return np.add.reduce(a * b, axis=1)
    s = np.zeros(a.shape[0])
    for j in range(a.shape[1]):
        s += a[:, j] * b[:, j]
    return s


def row_norms(d):
    """np.linalg.norm(d, axis=1) of a real (N, m) array, bit for bit."""
    return np.sqrt(row_dots(d, d))


def pair_index(k, i, r):
    """Rows i, ..., r - 1 of np.triu_indices(k, 1), without its k x k mask."""
    counts = k - 1 - np.arange(i, r)
    I = np.repeat(np.arange(i, r), counts)
    J = I + 1 + np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    return I, J


def pairwise(points, values, kernel):
    """Largest kernel score over the pairs i < j of a finite map, with witness.

    kernel(dp, dv) receives a block of pairs in row-major order, dp =
    points[I] - points[J] and dv = values[I] - values[J], and returns one
    score per pair.  A block holds consecutive rows i, ..., r - 1 while their
    pairs fit under _BLOCK_PAIRS (a single longer row forms its own block),
    so memory stays O(max(_BLOCK_PAIRS, k) * dim).  Returns (score, (i, j))
    for the first largest score in row-major order, or (-inf, None) when
    there are fewer than two points.
    """
    k = points.shape[0]
    best, pair = -np.inf, None
    i = 0
    while i < k - 1:
        r, size = i + 1, k - 1 - i
        while r < k - 1 and size + (k - 1 - r) <= _BLOCK_PAIRS:
            size += k - 1 - r
            r += 1
        I, J = pair_index(k, i, r)
        # take() gathers rows about ten times faster than points[I].
        dp = points.take(I, axis=0) - points.take(J, axis=0)
        scores = kernel(dp, values.take(I, axis=0) - values.take(J, axis=0))
        b = int(np.argmax(scores))
        if pair is None or scores[b] > best:
            best, pair = float(scores[b]), (int(I[b]), int(J[b]))
        i = r
    return best, pair


@dataclass(frozen=True)
class Ball:
    """Closed ball with given center and finite radius >= 0."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        center = as_vector(self.center)
        center.setflags(write=False)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", float(self.radius))
        if not (self.radius >= 0.0):
            raise ValueError(f"radius must be >= 0, got {self.radius}")
        if self.radius == np.inf:
            raise ValueError("radius must be finite, got inf")

    @property
    def dimension(self) -> int:
        return self.center.shape[0]


@dataclass(frozen=True)
class Polytope:
    """Convex hull of a non-empty vertex list (redundant vertices permitted)."""

    vertices: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise ValueError(f"expected a (k, n) vertex array, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("vertices have non-finite coordinates")
        v.setflags(write=False)
        object.__setattr__(self, "vertices", v)

    @property
    def dimension(self) -> int:
        return self.vertices.shape[1]

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]


@dataclass(frozen=True)
class SimplexWeights:
    """Barycentric weights: entries >= 0 summing to 1.

    Construction clamps round-off negatives to zero and renormalizes;
    violations beyond 1e-9 are rejected because they indicate a solver bug
    rather than round-off.
    """

    weights: np.ndarray

    def __post_init__(self):
        w = as_vector(self.weights).copy()
        if np.min(w) < -SIMPLEX_REJECT:
            raise ValueError(f"negative weight beyond tolerance: {np.min(w)}")
        total = float(np.sum(w))
        if abs(total - 1.0) > SIMPLEX_REJECT:
            raise ValueError(f"weights sum to {total}, expected 1")
        w[w < 0.0] = 0.0
        w /= np.sum(w)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return self.weights.shape[0]


def convex_combination(polytope: Polytope, weights: SimplexWeights) -> np.ndarray:
    """Return sum_i w_i * v_i for the polytope's vertex list."""
    if len(weights) != polytope.n_vertices:
        raise ValueError(
            f"{len(weights)} weights for {polytope.n_vertices} vertices"
        )
    return weights.weights @ polytope.vertices
