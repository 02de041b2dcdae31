"""Convex-geometry toolbox: projections, certificates, and Helly checks.

Run: python demos/demo_helly_geometry.py
"""

import numpy as np

from lipext import (
    Ball,
    Polytope,
    caratheodory,
    check_k_intersection,
    helly_verify,
    jung_bound_check,
    minkowski_sum,
    project,
    radon_partition,
    separate,
)
from lipext.gen import generate_ball_family


print("=== metric projection onto a polytope ===")
square = Polytope([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
for pt in ([2.0, 0.5], [0.3, 0.4], [-1.0, 2.5]):
    p = project(np.array(pt), square)
    print(f"  p({pt}) = {np.round(p, 6)}")

print("\n=== Caratheodory: interior points need at most n+1 vertices ===")
cert = caratheodory(np.array([0.25, 0.25]), square)
print(f"  support indices {cert.indices}, weights {np.round(cert.weights.weights, 4)}")

print("\n=== Radon partition of 4 points in the plane ===")
pts = [np.array(p) for p in ([0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0])]
left, right, witness = radon_partition(pts, 2)
print(f"  sides {left} / {right}, common hull point {np.round(witness, 6)}")

print("\n=== separating two disjoint bodies ===")
h = separate(Ball([0.0, 0.0], 1.0), Ball([4.0, 0.0], 1.0))
print(f"  hyperplane normal {h.normal}, offset {h.offset}")

print("\n=== Minkowski sum of two segments is a longer segment ===")
seg = Polytope([[0.0], [1.0]])
print(f"  vertex list: {sorted(v[0] for v in minkowski_sum(seg, seg).vertices)}")

print("\n=== Helly verification on a generated ball family ===")
family = generate_ball_family(2, 8, seed=3)
rep = helly_verify(family)
print(f"  all triples intersect -> witness {np.round(np.asarray(rep.witness), 4)} "
      f"with residual {rep.residual:.1e}")

family2 = generate_ball_family(2, 6, seed=3, mode="disjoint-pair")
rep2 = check_k_intersection(family2, 2)
print(f"  planted disjoint pair -> violating subset {rep2.violating_subset}")

print("\n=== Jung's bound: diameter-1 sets fit in a ball of radius "
      "sqrt(n/(2(n+1))) ===")
tri = [np.array([0.0, 0.0]), np.array([1.0, 0.0]),
       np.array([0.5, np.sqrt(3.0) / 2.0])]
diameter, radius, bound, holds = jung_bound_check(tri)
print(f"  equilateral triangle: diameter {diameter:.3f}, enclosing radius "
      f"{radius:.6f}, bound {bound:.6f}, holds (with equality): {holds}")
