"""Moduli of continuity and scalar extension formulas.

Covers the McShane-Whitney envelopes under a general modulus, the least
concave majorant machinery that turns an empirical modulus into an
extendable one, the uniform-continuity pipeline, and the Riesz/Tietze
continuous extension.

Run: python demos/demo_moduli_and_scalar_extensions.py
"""

import numpy as np

from lipext import (
    FiniteMapData,
    Modulus,
    affine_majorant,
    concave_majorant,
    empirical_modulus,
    extend_mcshane,
    linear_modulus,
    tietze_extend,
    uniform_extend,
)

print("=== McShane-Whitney envelopes ===")
data = FiniteMapData(np.array([[0.0], [2.0]]), np.array([[0.0], [2.0]]), 1.0)
omega = linear_modulus(1.0, 4.0)
for t in (-1.0, 0.5, 1.0, 3.0):
    lo = extend_mcshane(data, omega, np.array([t]), "lower")
    hi = extend_mcshane(data, omega, np.array([t]), "upper")
    print(f"  x = {t:+.1f}: lower {lo:+.4f} <= upper {hi:+.4f}")

print("\n=== least concave majorant of w(t) = t^2 on [0, 1] is the chord ===")
t = np.linspace(0.0, 1.0, 11)
hull = concave_majorant(Modulus(t, t ** 2))
print(f"  majorant values: {np.round(hull.values, 6)}")
print(f"  concave: {hull.is_concave}, subadditive: {hull.is_subadditive}")

print("\n=== affine majorant 2 + t/delta of a subadditive modulus ===")
omega_sqrt = Modulus(np.linspace(0.0, 4.0, 30), np.sqrt(np.linspace(0.0, 4.0, 30)))
slope, intercept = affine_majorant(omega_sqrt)
print(f"  w(t) = sqrt(t): majorant {intercept} + {slope:.4f} t")

print("\n=== uniform-continuity pipeline on sqrt-Hoelder data ===")
grid = np.array([[0.0], [0.01], [0.04], [0.09], [0.25], [1.0]])
data = FiniteMapData(grid, np.sqrt(grid))
emp = empirical_modulus(data)
print(f"  empirical modulus breakpoints: {np.round(emp.breakpoints, 3)}")
for x in (0.0, 0.04, 0.5, 1.5):
    print(f"  F({x:.2f}) = {uniform_extend(data, np.array([x])):.6f}")

print("\n=== Riesz/Tietze continuous extension (no Lipschitz claim) ===")
data = FiniteMapData(np.array([[0.0], [1.0]]), np.array([[0.0], [10.0]]))
for x in (0.0, 0.25, 0.5, 0.75, 1.0, 2.0):
    print(f"  F({x:.2f}) = {tietze_extend(data, np.array([x])):.6f}")
