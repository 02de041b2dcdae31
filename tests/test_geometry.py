import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lipext.errors import DimensionMismatchError
from lipext.geometry import (
    Ball,
    Polytope,
    SimplexWeights,
    convex_combination,
    dot,
    norm,
    pairwise,
    row_dots,
    row_norms,
    _BLOCK_PAIRS,
)
from lipext.rng import SplitMix64

coords = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
vectors = st.integers(min_value=1, max_value=5).flatmap(
    lambda d: st.lists(coords, min_size=d, max_size=d)
)


def test_dot_examples():
    assert dot([1.0, 0.0], [0.0, 1.0]) == 0.0
    assert dot([1.0, 2.0], [3.0, 4.0]) == 11.0  # 1*3 + 2*4 by hand
    x = np.array([0.3, -1.7, 2.2])
    assert dot(x, x) >= 0.0


def test_dot_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        dot([1.0, 2.0], [1.0, 2.0, 3.0])


def test_norm_examples():
    assert norm([3.0, 4.0]) == 5.0  # Pythagorean triple
    assert norm([0.0, 0.0, 0.0]) == 0.0
    assert norm([1.0, 1.0, 1.0]) == pytest.approx(math.sqrt(3.0), abs=1e-15)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(vectors, vectors)
def test_cauchy_schwarz(xs, ys):
    d = min(len(xs), len(ys))
    x, y = np.array(xs[:d]), np.array(ys[:d])
    assert abs(dot(x, y)) <= norm(x) * norm(y) + 1e-12 + 1e-9 * norm(x) * norm(y)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(vectors, vectors, vectors)
def test_triangle_inequality(xs, ys, zs):
    d = min(len(xs), len(ys), len(zs))
    x, y, z = (np.array(v[:d]) for v in (xs, ys, zs))
    lhs = norm(x - z)
    rhs = norm(x - y) + norm(y - z)
    assert lhs <= rhs + 1e-12 + 1e-9 * (1.0 + rhs)


def test_vector_validation():
    with pytest.raises(ValueError):
        norm([float("nan"), 1.0])
    with pytest.raises(ValueError):
        norm([])
    with pytest.raises(ValueError):
        Ball([0.0, 0.0], -0.5)


@pytest.mark.parametrize("radius", [math.inf, -math.inf, math.nan])
def test_ball_radius_must_be_finite(radius):
    with pytest.raises(ValueError, match="radius must be"):
        Ball([0.0, 0.0], radius)


def test_convex_combination_examples():
    square = Polytope([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    w = SimplexWeights([0.25, 0.25, 0.25, 0.25])
    assert np.allclose(convex_combination(square, w), [0.5, 0.5])
    one_hot = SimplexWeights([0.0, 0.0, 1.0, 0.0])
    assert np.allclose(convex_combination(square, one_hot), [1.0, 1.0])
    tri = Polytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    w = SimplexWeights([0.5, 0.25, 0.25])
    assert np.allclose(convex_combination(tri, w), [0.25, 0.25])


def test_convex_combination_stays_in_bounds():
    from lipext.rng import SplitMix64

    rng = SplitMix64(11)
    for _ in range(40):
        verts = np.array(
            [[rng.uniform(-3, 3) for _ in range(3)] for _ in range(5)]
        )
        raw = np.array([rng.uniform(0, 1) for _ in range(5)])
        w = SimplexWeights(raw / raw.sum())
        p = convex_combination(Polytope(verts), w)
        assert np.all(p <= verts.max(axis=0) + 1e-12)
        assert np.all(p >= verts.min(axis=0) - 1e-12)


def test_simplex_weights_clamp_and_reject():
    w = SimplexWeights([1.0 + 5e-13, -5e-13])
    assert w.weights[1] == 0.0
    assert abs(w.weights.sum() - 1.0) <= 1e-12
    with pytest.raises(ValueError):
        SimplexWeights([0.5, 0.5 - 1e-6, 1e-6 * 0 - 1e-6])  # negative beyond 1e-9
    with pytest.raises(ValueError):
        SimplexWeights([0.6, 0.6])  # sum violation beyond 1e-9


def test_weight_length_mismatch():
    tri = Polytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        convex_combination(tri, SimplexWeights([0.5, 0.5]))


# Entries that stress the order of a row sum: signed zeros, subnormals,
# squares that underflow or overflow, inf and nan.
ROW_SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e200, -1e200, 1e-200, -1e-200,
                np.inf, -np.inf, np.nan]


def row_blocks(finite):
    """(N, m) blocks, N in {0, 1, 400, 4096} and m = 1, ..., 16, so that the
    widths straddle numpy's switch from left-to-right to pairwise row sums
    at 8: normal draws with about one entry in eight replaced by a special
    (finite ones only if finite), and rows 0-3 all -0.0, subnormal, 1e200
    and mixed.  Each block comes as a strided view and as a C copy."""
    rng = SplitMix64(103)
    specials = [v for v in ROW_SPECIALS if np.isfinite(v) or not finite]
    pool = np.array([rng.normal() for _ in range(4096 * 16)]).reshape(4096, 16)
    for _ in range(8192):
        pool[rng.integer(4096), rng.integer(16)] = specials[rng.integer(len(specials))]
    pool[0], pool[1], pool[2] = -0.0, 5e-324, 1e200
    pool[3] = [specials[i % len(specials)] for i in range(16)]
    for m in range(1, 17):
        for n in (0, 1, 400, 4096):
            yield pool[:n, :m]
            yield np.ascontiguousarray(pool[:n, :m])


def test_row_norms_are_numpys_row_norms():
    # numpy 2.0 meets the width-8 switch only in the CI job on the oldest
    # numpy that pyproject.toml admits.
    with np.errstate(over="ignore", invalid="ignore"):
        for d in row_blocks(finite=False):
            assert row_norms(d).tobytes() == np.linalg.norm(d, axis=1).tobytes(), d.shape


def test_row_dots_are_numpys_row_sums():
    # Finite entries, as every caller's are.  A row of -0.0 products sums to
    # +0.0, as numpy's reduce, which starts from +0.0, gives: a 1-row
    # block's row 0 is all -0.0, and b's is all +0.0.
    with np.errstate(over="ignore", invalid="ignore"):
        for a in row_blocks(finite=True):
            b = -a[::-1]
            got, expected = row_dots(a, b), np.add.reduce(a * b, axis=1)
            assert got.tobytes() == expected.tobytes(), a.shape
            assert got.tobytes() == np.sum(a * b, axis=1).tobytes(), a.shape


def brute_force_pairwise(points, values, kernel):
    """Reference scan: each pair i < j scored on its own, first largest kept."""
    best, pair = -math.inf, None
    k = points.shape[0]
    for i in range(k):
        for j in range(i + 1, k):
            score = float(
                kernel(points[i : i + 1] - points[j : j + 1],
                       values[i : i + 1] - values[j : j + 1])[0]
            )
            if pair is None or score > best:
                best, pair = score, (i, j)
    return best, pair


PAIR_KERNELS = {
    "inner": lambda dp, dv: np.sum(dp * dv, axis=1),
    "excess": lambda dp, dv: np.linalg.norm(dv, axis=1)
    - 2.0 * np.linalg.norm(dp, axis=1),
    "clash": lambda dp, dv: (np.max(np.abs(dp), axis=1) == 0.0)
    & (np.max(np.abs(dv), axis=1) > 0.0),
    "flat": lambda dp, dv: np.full(dp.shape[0], -np.inf),
}


@pytest.mark.parametrize("k", [1, 2, 7, 40])
@pytest.mark.parametrize("name", sorted(PAIR_KERNELS))
def test_pairwise_matches_brute_force(k, name):
    # Coordinates on a coarse grid plant exact ties; copied rows plant
    # duplicate points, with and without conflicting values.
    rng = SplitMix64(100 + k)
    grid = lambda: 0.5 * rng.integer(5) - 1.0
    points = np.array([[grid(), grid()] for _ in range(k)])
    values = np.array([[grid(), grid()] for _ in range(k)])
    if k >= 7:
        points[5], values[5] = points[1], values[1]
        points[6] = points[2]
    got = pairwise(points, values, PAIR_KERNELS[name])
    ref = brute_force_pairwise(points, values, PAIR_KERNELS[name])
    assert got == ref and repr(got[0]) == repr(ref[0])
    if k < 2:
        assert got == (-math.inf, None)


def per_row_pairwise(points, values, kernel):
    """The scan before blocks: one kernel call per row i over the pairs
    (i, j > i), a later row replacing the witness only when strictly larger."""
    best, pair = -math.inf, None
    for i in range(points.shape[0] - 1):
        scores = kernel(points[i] - points[i + 1 :], values[i] - values[i + 1 :])
        j = int(np.argmax(scores))
        if pair is None or scores[j] > best:
            best, pair = float(scores[j]), (i, i + 1 + j)
    return best, pair


def block_rows(k):
    """First row of every block the scan forms, mirroring its rule."""
    starts, i = [], 0
    while i < k - 1:
        starts.append(i)
        r, size = i + 1, k - 1 - i
        while r < k - 1 and size + (k - 1 - r) <= _BLOCK_PAIRS:
            size += k - 1 - r
            r += 1
        i = r
    return starts


# One block one pair under the cap and two blocks just over it; the first
# row alone at the cap, and one pair over it.  No block of two or more rows
# fills the cap exactly: 4096 is no sum of consecutive integers.
EDGE_KS = [1, 2, 3, 91, 92, 4097, 4098]


def grid_map(k, seed):
    """Points and values on a coarse grid: exact ties and duplicate rows."""
    rng = SplitMix64(seed)
    grid = lambda: 0.5 * rng.integer(5) - 1.0
    points = np.array([[grid(), grid()] for _ in range(k)])
    values = np.array([[grid(), grid()] for _ in range(k)])
    return points, values


def test_block_edges_are_exercised():
    assert sum(range(1, 91)) == _BLOCK_PAIRS - 1
    assert block_rows(91) == [0] and len(block_rows(92)) == 2
    assert len(block_rows(4097)) > 1 and block_rows(4098)[:3] == [0, 1, 2]


@pytest.mark.parametrize("k", EDGE_KS)
@pytest.mark.parametrize("name", sorted(PAIR_KERNELS))
def test_blocked_pairwise_matches_per_row_scan(k, name):
    points, values = grid_map(k, 200 + k)
    got = pairwise(points, values, PAIR_KERNELS[name])
    ref = per_row_pairwise(points, values, PAIR_KERNELS[name])
    assert got == ref and repr(got[0]) == repr(ref[0])


@pytest.mark.parametrize("across", [False, True])
def test_blocked_pairwise_keeps_first_of_tied_maxima(across):
    # Score v_i - v_j: rows a and b score 1 against every other point, so
    # (a, a + 1) and (b, b + 1) tie for the maximum.  b lies in the same
    # block as a, or in the next block.
    k = 92
    starts = block_rows(k)
    a = 3
    b = starts[1] + 2 if across else a + 5
    assert (b >= starts[1]) == across
    points = np.zeros((k, 1))
    values = np.zeros((k, 1))
    values[[a, b]] = 1.0
    kernel = lambda dp, dv: dv[:, 0]
    got = pairwise(points, values, kernel)
    assert got == per_row_pairwise(points, values, kernel) == (1.0, (a, a + 1))


def test_blocked_pairwise_memory_is_not_quadratic():
    # All 1,999,000 pairs at once would take 32 MB per difference array.
    rng = SplitMix64(7)
    points = np.array([[rng.uniform(-1, 1), rng.uniform(-1, 1)] for _ in range(2000)])
    values = points[:, :1] * 0.5
    tracemalloc.start()
    try:
        best, pair = pairwise(points, values, PAIR_KERNELS["excess"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert best < 0.0 and pair is not None
    assert peak < 3e6
