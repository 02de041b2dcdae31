"""Extending finite Lipschitz data by two independent algorithms.

Builds a small 2-D dataset sampled from a rotation (an isometry, so L = 1),
extends it to new query points with the ball-intersection Chebyshev center
and with the firmly-non-expansive resolvent pipeline, and verifies the
extension and Lipschitz properties numerically.

Run: python demos/demo_lipschitz_extension.py
"""

import numpy as np

from lipext import ExtensionModel
from lipext.gen import generate_lipschitz_data


print("=== data: 8 samples of a contraction R^2 -> R^2 (L = 1) ===")
data = generate_lipschitz_data(2, 2, 8, seed=7)
for a, b in zip(data.points, data.values):
    print(f"  f({np.round(a, 3)}) = {np.round(b, 3)}")

minimax = ExtensionModel(data, "minimax")
proxavg = ExtensionModel(data, "proxavg")

print("\n=== interpolation at the data points ===")
for i in range(data.size):
    y1, r1 = minimax.query(data.points[i])
    y2, r2 = proxavg.query(data.points[i])
    print(
        f"  point {i}: minimax err {np.linalg.norm(y1 - data.values[i]):.2e} "
        f"(residual {r1:.1e}), proxavg err "
        f"{np.linalg.norm(y2 - data.values[i]):.2e} (residual {r2:.1e})"
    )

print("\n=== off-data queries (the two methods may legitimately differ) ===")
rng = np.random.default_rng(0)
queries = [np.array(q) for q in ([2.5, 2.5], [-3.0, 1.0], [0.2, -0.4])]
for x in queries:
    y1, _ = minimax.query(x)
    y2, _ = proxavg.query(x)
    print(f"  F({x}) = {np.round(y1, 4)} | {np.round(y2, 4)}")

print("\n=== empirical Lipschitz check over 200 random pairs ===")
for name, model in (("minimax", minimax), ("proxavg", proxavg)):
    worst = 0.0
    pts = rng.uniform(-4, 4, size=(40, 2))
    vals = [model.query(x)[0] for x in pts]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            dx = np.linalg.norm(pts[i] - pts[j])
            if dx > 1e-9:
                worst = max(worst, np.linalg.norm(vals[i] - vals[j]) / dx)
    print(f"  {name}: max ratio {worst:.6f} (must be <= {data.L})")
