"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary.  Tolerances are fixed here, not configurable.
"""

import json
import math
import time

import numpy as np
import pytest

from lipext.rng import SplitMix64
from lipext.geometry import Ball, Polytope
from lipext.convex_sets import caratheodory, project, radon_partition, distance
from lipext.helly import (
    check_k_intersection,
    common_point,
    jung_ball,
    jung_bound_check,
)
import lipext.convex_functions as cf
from lipext.monotone import (
    OperatorGraph,
    autoconjugacy_check,
    firm_to_nonexpansive,
    firmly_nonexpansive_check,
    fitzpatrick_conj_eval,
    fitzpatrick_eval,
    is_monotone,
    nonexpansive_to_firm,
    psi_eval,
    resolvent_of_graph,
)
from lipext.extension import (
    ExtensionModel,
    Modulus,
    concave_majorant,
    extend_mcshane,
    linear_modulus,
)
from lipext.gen import (
    generate_ball_family,
    generate_lipschitz_data,
    generate_monotone_graph,
)
from lipext.cli import main as cli_main


def _report(name, detail):
    print(f"\nACCEPTANCE {name}: PASS ({detail})")


def test_criterion_01_kirszbraun_extension_suite():
    started = time.perf_counter()
    rng = SplitMix64(2026)
    n_datasets = 50
    pairs_per_method = 1000
    pairs_per_dataset = pairs_per_method // n_datasets
    worst_interp = 0.0
    worst_ratio_slack = -np.inf
    worst_residual = -np.inf
    for seed in range(n_datasets):
        m = 1 + seed % 3
        count = 4 + int(rng.integer(17))  # <= 20 points
        data = generate_lipschitz_data(m, m, count, 3000 + seed)
        models = {
            "minimax": ExtensionModel(data, "minimax"),
            "proxavg": ExtensionModel(data, "proxavg"),
        }
        for name, model in models.items():
            for i in range(data.size):
                y, residual = model.query(data.points[i])
                worst_interp = max(
                    worst_interp, float(np.linalg.norm(y - data.values[i]))
                )
                if name == "minimax":
                    worst_residual = max(worst_residual, residual)
            for _ in range(pairs_per_dataset):
                x1 = np.array([rng.uniform(-3, 3) for _ in range(m)])
                x2 = np.array([rng.uniform(-3, 3) for _ in range(m)])
                y1, r1 = model.query(x1)
                y2, r2 = model.query(x2)
                if name == "minimax":
                    worst_residual = max(worst_residual, r1, r2)
                dy = float(np.linalg.norm(y1 - y2))
                dx = float(np.linalg.norm(x1 - x2))
                slack = dy - (data.L * dx * (1.0 + 1e-4) + 1e-6)
                worst_ratio_slack = max(worst_ratio_slack, slack)
    elapsed = time.perf_counter() - started
    assert worst_interp <= 1e-5
    assert worst_ratio_slack <= 0.0
    assert worst_residual <= 1e-6
    assert elapsed < 120.0
    _report(
        "1 Kirszbraun extension suite",
        f"50 datasets, interp {worst_interp:.2e}, "
        f"ratio slack {worst_ratio_slack:.2e}, minimax residual "
        f"{worst_residual:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_closed_form_conjugates():
    # q* = q on a 10 x 10 grid
    q2 = cf.Quadratic(2)
    conj_q = cf.Conjugate(q2, cf.cube(4.0, 2))
    worst_q = 0.0
    for u in np.linspace(-1.5, 1.5, 10):
        for v in np.linspace(-1.5, 1.5, 10):
            x = np.array([u, v])
            worst_q = max(worst_q, abs(cf.eval(conj_q, x) - 0.5 * float(x @ x)))
    assert worst_q <= 1e-5

    # kappa* on and off the anti-diagonal
    conj_k = cf.Conjugate(cf.Kappa(1), cf.cube(3.0, 2))
    worst_k = 0.0
    for t in np.linspace(-1.2, 1.2, 10):
        got = cf.eval(conj_k, np.array([t, -t]))
        worst_k = max(worst_k, abs(got - 0.5 * t * t))
    assert worst_k <= 1e-6
    for t in (0.5, 1.0, -0.8):
        assert cf.eval(conj_k, np.array([t, t + 0.3])) == cf.INF

    # delta* identity for three anchor choices
    rng = SplitMix64(99)
    worst_d = 0.0
    for a, b in (
        (np.array([0.0]), np.array([0.0])),
        (np.array([1.0]), np.array([-0.5])),
        (np.array([0.3]), np.array([0.8])),
    ):
        samples = [
            np.array([rng.uniform(-1, 1), rng.uniform(-1, 1)]) for _ in range(10)
        ]
        worst_d = max(worst_d, cf.delta_conjugate_identity_check(a, b, samples))
    assert worst_d <= 1e-5
    _report(
        "2 closed-form conjugates",
        f"q* gap {worst_q:.2e}, kappa* gap {worst_k:.2e}, delta* gap {worst_d:.2e}",
    )


def test_criterion_03_biconjugation():
    rng = SplitMix64(314)
    worst = 0.0
    for trial in range(20):
        n = 1 + trial % 2
        pieces = 3 + int(rng.integer(8))  # <= 10
        slopes = np.array(
            [[rng.uniform(-2, 2) for _ in range(n)] for _ in range(pieces)]
        )
        offsets = np.array([rng.uniform(-1, 1) for _ in range(pieces)])
        f = cf.MaxAffine(slopes, offsets)
        samples = [
            np.array([rng.uniform(-0.7, 0.7) for _ in range(n)]) for _ in range(5)
        ]
        worst = max(worst, cf.biconjugate_check(f, samples))
    assert worst <= 1e-5
    _report("3 biconjugation", f"20 max-affine functions, max gap {worst:.2e}")


def fenchel_instances():
    """Criterion 4's ten (f, neg_g, hand-computed optimum, box half-width)."""
    instances = []
    # 1. q vs -q (optimum 0)
    instances.append((cf.Quadratic(1), cf.Quadratic(1), 0.0, 3.0))
    # 2-4. q vs affine <c, x>: optimum -1/2 c^2
    for c in (0.8, -1.3, 0.4):
        neg_g = cf.MaxAffine(np.array([[-c]]), np.array([0.0]))
        instances.append((cf.Quadratic(1), neg_g, -0.5 * c * c, 4.0))
    # 5. |x| vs -q (optimum 0)
    absf = cf.MaxAffine(np.array([[1.0], [-1.0]]), np.array([0.0, 0.0]))
    instances.append((absf, cf.Quadratic(1), 0.0, 3.0))
    # 6. translated quadratic vs affine: -1/2 c^2 - c a
    a_shift, c = 0.7, -0.6
    f6 = cf.Translate(np.array([a_shift]), np.array([0.0]), 0.0, cf.Quadratic(1))
    g6 = cf.MaxAffine(np.array([[-c]]), np.array([0.0]))
    instances.append((f6, g6, -0.5 * c * c - c * a_shift, 4.0))
    # 7. point indicator vs -q (optimum 0)
    instances.append((cf.Indicator(Polytope([[0.0]])), cf.Quadratic(1), 0.0, 2.0))
    # 8. ball indicator vs affine: -r ||c||
    r, c = 1.5, 0.9
    f8 = cf.Indicator(Ball([0.0], r))
    g8 = cf.MaxAffine(np.array([[-c]]), np.array([0.0]))
    instances.append((f8, g8, -r * abs(c), 3.0))
    # 9. scaled quadratic vs affine: -c^2/4
    f9 = cf.Scale(2.0, cf.Quadratic(1))
    g9 = cf.MaxAffine(np.array([[-0.5]]), np.array([0.0]))
    instances.append((f9, g9, -0.5 * 0.5 / 4.0 * 2.0 * 0.5, 3.0))
    # 10. 2-D q vs affine
    c2 = np.array([0.6, -0.4])
    g10 = cf.MaxAffine(np.array([-c2]), np.array([0.0]))
    instances.append((cf.Quadratic(2), g10, -0.5 * float(c2 @ c2), 4.0))
    return instances


def test_criterion_04_fenchel_duality():
    worst_gap = 0.0
    worst_primal = 0.0
    instances = fenchel_instances()
    assert len(instances) == 10
    for f, neg_g, hand_value, half in instances:
        primal, dual, gap = cf.fenchel_duality_solve(
            f, neg_g, cf.cube(half, f.dim)
        )
        worst_gap = max(worst_gap, abs(gap))
        worst_primal = max(worst_primal, abs(primal - hand_value))
    assert worst_gap <= 1e-5
    assert worst_primal <= 1e-5
    _report(
        "4 Fenchel duality",
        f"10 instances, max |gap| {worst_gap:.2e}, "
        f"max primal error {worst_primal:.2e}",
    )


def _random_monotone_graphs():
    graphs = []
    trial = 0
    while len(graphs) < 20:
        n = 1 + trial % 2
        k = 2 + trial % 7  # <= 8
        pts, vals = generate_monotone_graph(n, k, 5000 + trial, margin=0.05)
        trial += 1
        dists = [
            np.linalg.norm(pts[i] - pts[j])
            for i in range(k)
            for j in range(i + 1, k)
        ]
        if dists and min(dists) < 0.05:
            continue
        graphs.append(OperatorGraph(pts, vals))
    return graphs


def test_criterion_05_monotone_operator_identities():
    rng = SplitMix64(77)
    worst_phi = 0.0
    worst_phi_conj = 0.0
    worst_psi = 0.0
    worst_auto = 0.0
    for T in _random_monotone_graphs():
        assert is_monotone(T).passed
        n = T.dim
        for a, astar in T.pairs():
            pairing = sum(u * v for u, v in zip(a, astar))
            worst_phi = max(worst_phi, abs(fitzpatrick_eval(T, a, astar) - pairing))
            worst_phi_conj = max(
                worst_phi_conj,
                abs(fitzpatrick_conj_eval(T, astar, a) - float(a @ astar)),
            )
            worst_psi = max(
                worst_psi, abs(psi_eval(T, a, astar) - float(a @ astar))
            )
        samples = [
            np.array([rng.uniform(-2, 2) for _ in range(2 * n)]) for _ in range(10)
        ]
        worst_auto = max(worst_auto, autoconjugacy_check(T, samples))
    assert worst_phi == 0.0  # float-exact max at graph points
    assert worst_phi_conj <= 1e-8
    assert worst_psi <= 1e-5
    assert worst_auto <= 1e-4
    _report(
        "5 monotone-operator identities",
        f"20 graphs: Phi exact, Phi* {worst_phi_conj:.2e}, "
        f"Psi {worst_psi:.2e}, autoconjugacy {worst_auto:.2e}",
    )


def test_criterion_06_resolvent_correspondence():
    worst_round = 0.0
    worst_slack = np.inf
    for T in _random_monotone_graphs():
        F = resolvent_of_graph(T)
        check = firmly_nonexpansive_check(F)
        worst_slack = min(worst_slack, check.worst_value)
        assert check.passed
        f = firm_to_nonexpansive(F)
        back = nonexpansive_to_firm(f)
        worst_round = max(
            worst_round, float(np.max(np.abs(back.values - F.values)))
        )
    assert worst_round <= 1e-12
    assert worst_slack >= -1e-10
    _report(
        "6 resolvent correspondence",
        f"round-trip {worst_round:.2e}, firm slack {worst_slack:.2e}",
    )


def _grid_oracle_min(family, steps=200):
    centers = np.array([b.center for b in family.bodies])
    radii = np.array([b.radius for b in family.bodies])
    lo = (centers - radii[:, None]).min(axis=0)
    hi = (centers + radii[:, None]).max(axis=0)
    xs = np.linspace(lo[0], hi[0], steps)
    ys = np.linspace(lo[1], hi[1], steps)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    worst = np.full(X.shape, -np.inf)
    for c, r in zip(centers, radii):
        d = np.sqrt((X - c[0]) ** 2 + (Y - c[1]) ** 2) - r
        worst = np.maximum(worst, np.clip(d, 0.0, None))
    cell = math.hypot(float(xs[1] - xs[0]), float(ys[1] - ys[0]))
    return float(worst.min()), cell


def test_criterion_07_helly_suite():
    rng = SplitMix64(2718)
    passed_triples = 0
    for trial in range(100):
        count = 5 + int(rng.integer(26))  # 5..30 balls
        mode = "common-core" if trial % 2 == 0 else "disjoint-pair"
        family = generate_ball_family(2, count, 9000 + trial, mode)
        sub = check_k_intersection(family, 3)
        oracle_min, cell = _grid_oracle_min(family)
        if sub.intersects:
            passed_triples += 1
            rep = common_point(family)
            assert rep.intersects and rep.residual <= 1e-6
            # the oracle confirms a witness up to its grid resolution
            assert oracle_min <= 0.5 * cell + 1e-6
        if not sub.intersects:
            continue
        # zero false positives: we claimed intersection, the oracle agrees
        assert oracle_min <= 0.5 * cell + 1e-6
    assert passed_triples >= 40  # the common-core half all pass
    _report(
        "7 Helly suite",
        f"100 families, {passed_triples} with the 3-intersection property, "
        "all witnessed and confirmed by the 200x200 grid oracle",
    )


def test_criterion_08_geometry_certificates():
    rng = SplitMix64(161803)
    # Caratheodory on 100 random point-in-polytope instances
    worst_recon = 0.0
    for trial in range(100):
        n = 2 if trial % 2 == 0 else 3
        k = n + 2 + int(rng.integer(5))
        verts = np.array(
            [[rng.uniform(-2, 2) for _ in range(n)] for _ in range(k)]
        )
        w = np.array([rng.uniform(0, 1) for _ in range(k)])
        w /= w.sum()
        x = w @ verts
        cert = caratheodory(x, Polytope(verts))
        assert len(cert.indices) <= n + 1
        rebuilt = cert.weights.weights @ verts[list(cert.indices)]
        worst_recon = max(worst_recon, float(np.linalg.norm(rebuilt - x)))
    assert worst_recon <= 1e-8

    # Radon witnesses on 100 random (n+2)-point sets
    worst_radon = 0.0
    for trial in range(100):
        n = 2 if trial % 2 == 0 else 3
        pts = [
            np.array([rng.uniform(-2, 2) for _ in range(n)]) for _ in range(n + 2)
        ]
        left, right, witness = radon_partition(pts, n)
        for side in (left, right):
            hull = Polytope(np.array([pts[i] for i in side]))
            worst_radon = max(worst_radon, distance(witness, hull))
    assert worst_radon <= 1e-8

    # projection firm non-expansiveness over 10^3 random pairs
    poly = Polytope(
        np.array([[rng.uniform(-2, 2), rng.uniform(-2, 2)] for _ in range(6)])
    )
    worst_firm = np.inf
    for _ in range(1000):
        x = np.array([rng.uniform(-4, 4), rng.uniform(-4, 4)])
        y = np.array([rng.uniform(-4, 4), rng.uniform(-4, 4)])
        px, py = project(x, poly), project(y, poly)
        worst_firm = min(
            worst_firm,
            float((x - y) @ (px - py)) - float((px - py) @ (px - py)),
        )
    assert worst_firm >= -1e-8

    # Jung bound on 100 random sets plus the equilateral equality case
    for trial in range(100):
        n = 2 if trial % 2 == 0 else 3
        pts = [
            np.array([rng.uniform(0, 1) for _ in range(n)])
            for _ in range(3 + int(rng.integer(18)))
        ]
        ball = jung_ball(pts)
        cover = max(float(np.linalg.norm(p - ball.center)) for p in pts)
        assert cover <= ball.radius + 1e-9
        _, _, _, holds = jung_bound_check(pts)
        assert holds
    tri = [
        np.array([0.0, 0.0]),
        np.array([1.0, 0.0]),
        np.array([0.5, math.sqrt(3.0) / 2.0]),
    ]
    _, radius, bound, holds = jung_bound_check(tri)
    assert holds and abs(radius - bound) <= 1e-6
    assert radius == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-9)
    _report(
        "8 geometry certificates",
        f"caratheodory {worst_recon:.2e}, radon {worst_radon:.2e}, "
        f"firm slack {worst_firm:.2e}, Jung bound holds (equality on the "
        "equilateral triangle)",
    )


def test_criterion_09_modulus_machinery():
    rng = SplitMix64(424242)
    # concave majorant properties on random grids
    for _ in range(20):
        t = np.concatenate(
            [[0.0], np.sort(np.array([rng.uniform(0.01, 3.0) for _ in range(12)]))]
        )
        v = np.concatenate(
            [[0.0], np.sort(np.array([rng.uniform(0.0, 0.9) for _ in range(12)]))]
        )
        omega = Modulus(t, v)
        hull = concave_majorant(omega)
        assert hull.is_concave
        assert np.all(hull.values >= v - 1e-12)
        assert np.all(np.diff(hull.values) >= -1e-12)
        assert hull.is_subadditive

    # w(t) = t^2 on [0, 1]: the majorant is the chord t
    t = np.linspace(0.0, 1.0, 26)
    chord = concave_majorant(Modulus(t, t ** 2))
    worst_chord = float(np.max(np.abs(chord.values - t)))
    assert worst_chord <= 1e-9

    # McShane-Whitney envelopes respect the modulus over 10^3 sampled pairs
    data = generate_lipschitz_data(2, 1, 8, 906)
    omega = linear_modulus(1.0, 30.0)
    samples = []
    for _ in range(250):
        x = np.array([rng.uniform(-3, 3), rng.uniform(-3, 3)])
        lo = extend_mcshane(data, omega, x, "lower")
        hi = extend_mcshane(data, omega, x, "upper")
        assert lo <= hi + 1e-12
        samples.append((x, lo, hi))
    checked = 0
    worst_mod = -np.inf
    for i in range(len(samples)):
        for j in range(i + 1, min(i + 6, len(samples))):
            xi, loi, hii = samples[i]
            xj, loj, hij = samples[j]
            bound = omega(float(np.linalg.norm(xi - xj))) + 1e-6
            worst_mod = max(worst_mod, abs(loi - loj) - bound, abs(hii - hij) - bound)
            checked += 1
    assert checked >= 1000
    assert worst_mod <= 0.0
    _report(
        "9 modulus machinery",
        f"chord gap {worst_chord:.2e}, envelope modulus slack {worst_mod:.2e} "
        f"over {checked} pairs",
    )


def test_criterion_10_cli_determinism(tmp_path):
    data_path = str(tmp_path / "data.json")
    fam_path = str(tmp_path / "family.json")
    graph_path = str(tmp_path / "graph.json")
    fn_path = str(tmp_path / "fn.json")
    queries = str(tmp_path / "q.csv")
    samples = str(tmp_path / "s.csv")

    assert cli_main(["gen", "--kind", "lipschitz-data", "--m", "2", "--n", "2",
                     "--count", "8", "--seed", "4", "--out", data_path]) == 0
    assert cli_main(["gen", "--kind", "ball-family", "--n", "2", "--count", "7",
                     "--seed", "4", "--out", fam_path]) == 0
    with open(graph_path, "w") as fh:
        json.dump({"n": 1, "pairs": [[[0.0], [0.0]], [[1.0], [1.0]]]}, fh)
    with open(fn_path, "w") as fh:
        json.dump({"node": "quadratic", "n": 1}, fh)
    with open(queries, "w") as fh:
        fh.write("0.1,0.2\n-1.0,0.5\n")
    with open(samples, "w") as fh:
        fh.write("0.5\n1.5\n")

    commands = [
        ["extend", "--data", data_path, "--queries", queries,
         "--method", "minimax", "--out", str(tmp_path / "mm.csv")],
        ["extend", "--data", data_path, "--queries", queries,
         "--method", "proxavg", "--out", str(tmp_path / "pa.csv")],
        ["helly", "--family", fam_path, "--mode", "verify",
         "--out", str(tmp_path / "helly.json")],
        ["function", "--function", fn_path, "--conjugate-check", "--box", "4.0",
         "--out", str(tmp_path / "fc.json")],
        ["monotone", "--graph", graph_path, "--resolvent", samples,
         "--out", str(tmp_path / "res.csv")],
        ["gen", "--kind", "ball-family", "--n", "2", "--count", "9",
         "--seed", "123", "--out", str(tmp_path / "fam2.json")],
    ]
    for argv in commands:
        out = argv[argv.index("--out") + 1]
        rc1 = cli_main(argv)
        first = open(out, "rb").read()
        rc2 = cli_main(argv)
        assert rc1 == rc2
        assert open(out, "rb").read() == first, argv[0]
        # replaying the manifest also reproduces the bytes
        assert cli_main(["replay", out + ".manifest.json"]) == rc1
        assert open(out, "rb").read() == first, argv[0]
    _report("10 CLI determinism", f"{len(commands)} commands byte-identical on re-run")
