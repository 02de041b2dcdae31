"""Fenchel conjugates, infimal convolutions, and the proximal average.

Walks through the closed-form identities the function calculus reproduces
numerically: the self-conjugacy of q(x) = 1/2 ||x||^2, the coupling function
kappa and its conjugate supported on the anti-diagonal, biconjugation of
piecewise-linear functions, and Fenchel duality.

Run: python demos/demo_convex_analysis.py
"""

import numpy as np

import lipext.convex_functions as cf


print("=== q* = q (numeric conjugate vs closed form) ===")
q = cf.Quadratic(2)
q_star = cf.Conjugate(q, cf.cube(4.0, 2))
for pt in ([1.0, 1.0], [0.5, -1.5], [0.0, 0.0]):
    x = np.array(pt)
    print(f"  q*({pt}) = {cf.eval(q_star, x):.8f}   q = {0.5 * x @ x:.8f}")

print("\n=== kappa*(x*, y*): 1/2||x*||^2 on the anti-diagonal, +inf off it ===")
k_star = cf.Conjugate(cf.Kappa(1), cf.cube(3.0, 2))
print(f"  kappa*(1, -1)  = {cf.eval(k_star, np.array([1.0, -1.0])):.8f}")
print(f"  kappa*(1, 0.5) = {cf.eval(k_star, np.array([1.0, 0.5]))}")

print("\n=== biconjugation recovers a max-affine function ===")
f = cf.MaxAffine(np.array([[1.0], [-0.5], [0.2]]), np.array([0.0, 0.3, -0.1]))
f_star = cf.conjugate(f)  # exact polyhedral conjugate
f_ss = cf.Conjugate(f_star, cf.cube(2.0, 1))
for t in (-1.0, 0.0, 0.8):
    x = np.array([t])
    print(f"  f**({t:+.1f}) = {cf.eval(f_ss, x):+.8f}   "
          f"f = {cf.eval(f, x):+.8f}")

print("\n=== proximal average of q with itself is q ===")
avg = cf.prox_avg(cf.Quadratic(1), cf.Quadratic(1), cf.cube(4.0, 1))
for t in (0.5, -1.2):
    x = np.array([t])
    print(f"  psi(q,q)({t:+.1f}) = {cf.eval(avg, x):.8f}   "
          f"q = {0.5 * t * t:.8f}")

print("\n=== Fenchel duality: inf(f - g) = max(g* - f*) ===")
c = 0.8
neg_g = cf.MaxAffine(np.array([[-c]]), np.array([0.0]))  # g(x) = c x
primal, dual, gap = cf.fenchel_duality_solve(cf.Quadratic(1), neg_g,
                                             cf.cube(4.0, 1))
print(f"  f = q, g = {c} x: primal {primal:.8f}, dual {dual:.8f}, "
      f"gap {gap:.2e} (hand value {-0.5 * c * c:.8f})")
