"""From non-expansive data to maximal monotone operators and back.

Shows the bijections the extension pipeline is built on: non-expansive maps
<-> firmly non-expansive maps (f -> (id + f)/2), firmly non-expansive maps
<-> monotone graphs (the resolvent transform), and the Fitzpatrick function
machinery whose proximal average selects a maximal monotone extension that
the resolvent evaluates at any query.

Run: python demos/demo_monotone_operators.py
"""

import numpy as np

from lipext import (
    OperatorGraph,
    firmly_nonexpansive_check,
    fitzpatrick_conj_eval,
    fitzpatrick_eval,
    graph_of_resolvent,
    is_monotone,
    nonexpansive_to_firm,
    psi_eval,
    resolvent_eval,
    resolvent_of_graph,
)


print("=== samples of the non-expansive map f = -id ===")
pts = np.array([[0.0], [1.0], [-2.0]])
F = OperatorGraph(pts, -pts)
G = nonexpansive_to_firm(F)
print(f"  g = (id + f)/2 values: {G.values.ravel()} (identically zero)")
print(f"  firmly non-expansive: {firmly_nonexpansive_check(G).passed}")

print("\n=== a monotone graph and its resolvent transform ===")
T = OperatorGraph(np.array([[0.0], [1.0], [2.0]]), np.array([[0.0], [2.0], [5.0]]))
print(f"  monotone: {is_monotone(T).passed}")
R = resolvent_of_graph(T)
print(f"  resolvent graph points {R.points.ravel()} -> {R.values.ravel()}")
back = graph_of_resolvent(R)
print(f"  round trip exact: {np.array_equal(back.points, T.points)}")

print("\n=== Fitzpatrick function: equals <x, x*> exactly on the graph ===")
for a, astar in T.pairs():
    phi = fitzpatrick_eval(T, a, astar)
    phi_star = fitzpatrick_conj_eval(T, astar, a)
    psi = psi_eval(T, a, astar)
    print(f"  at ({a[0]:+.0f}, {astar[0]:+.0f}): Phi = {phi:.6f}, "
          f"Phi* = {phi_star:.6f}, Psi = {psi:.6f}, <x,x*> = {a[0]*astar[0]:.6f}")

print("\n=== resolvent of the selected maximal monotone extension ===")
print("  (interpolates x = a + a* -> a, firmly non-expansive in between)")
for x in (0.0, 1.5, 3.0, 7.0, -2.0):
    y, residual = resolvent_eval(T, np.array([x]))
    print(f"  G({x:+.1f}) = {y[0]:+.6f}   certificate residual {residual:.1e}")
