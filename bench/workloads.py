"""The benchmark's workloads: seeded inputs, set-up, and the op streams.

Every workload turns one integer seed into its inputs with lipext's own
SplitMix64: `inputs` returns a list of items, one per dataset or function,
and `build` makes the library objects of one item (the part `setup_s`
times).  `ops` then yields an endless, deterministic stream of ops for the
closed loop.  An op is one call into a public lipext entry point plus a
check of its output against a reference the benchmark computes itself.

Extension queries come in pairs 0.05 apart at random positions, so half of
the consecutive queries are close (they feed `lip_ratio_max`) and half are
far.  Pairs visit the datasets round-robin, so every dataset gets the same
share of a run whatever the seed.  Where a workload mixes op classes, the
classes follow a fixed cycle of pairs chosen so that neither the median nor
the 90th percentile sits on the boundary between two latency clusters, and
no class holds 40-60 % of the ops.

Each workload sets SETUP_CHUNK, ROUND_OPS and TRACE_OPS.  `setup_s` times
the builds in chunks of SETUP_CHUNK items, a few milliseconds of work or,
where one build takes microseconds, every item.  A timed run replays the
first ROUND_OPS ops of the stream in whole rounds, with fresh ops each round
so that the id()-keyed conjugate cache cannot serve one round from another.
ROUND_OPS is at least 100, so that ten latencies of a round lie above its
90th percentile.  A traced run makes TRACE_OPS ops in each of its two passes.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import lipext.convex_functions as cf
import lipext.extension as ext
from lipext.geometry import Polytope
from lipext.gen import generate_lipschitz_data
from lipext.rng import SplitMix64

RESIDUAL_TOL = 1e-6
INTERP_TOL = 1e-5
GAP_TOL = 1e-5
PAIR_STEP = 0.05
INTERP_QUERIES = 8  # data points per method queried by the interpolation pass

# Extension data comes in three kinds: `lipext gen` samples as written (L = 1,
# with slack); the same samples with the empirical L, which makes every pair
# tight because `gen` samples a linear similarity; and uniform random values
# on [-1, 1]^m with the empirical L.
KINDS = ("gen", "gen_tight", "random")


@dataclass
class Op:
    """One closed-loop operation.

    `run` returns (value vector, residual); `check` decides from those whether
    the output is correct.  Ops sharing `pair` are 0.05 apart; `lip` is the
    Lipschitz constant the method claims for that pair, or None when the
    method claims none.  `around`, if set, maps a value to (center, radius)
    of the interval known to hold the extended function's value; by default
    the value is the function's value.
    """

    kind: str
    run: Callable
    check: Callable
    x: np.ndarray
    pair: int = -1
    lip: Optional[float] = None
    around: Optional[Callable] = None


_MASK = (1 << 64) - 1


def _sub_seed(seed, *tags):
    """Derive an independent seed from the workload seed and some tags."""
    h = 0xCBF29CE484222325 ^ (seed & _MASK)
    for byte in repr(tags).encode():
        h = ((h ^ byte) * 0x100000001B3) & _MASK  # FNV-1a
    return SplitMix64(h).next_raw() >> 1


def _uniform(rng, lo, hi, shape):
    return np.array([rng.uniform(lo, hi) for _ in range(int(np.prod(shape)))]).reshape(shape)


def _unit(rng, dim):
    while True:
        v = np.array([rng.normal() for _ in range(dim)])
        norm = float(np.linalg.norm(v))
        if norm > 1e-9:
            return v / norm


def _raw_dataset(kind, m, n, k, seed):
    """(points, values, L, half_width) of one dataset; L None means empirical."""
    if kind == "random":
        rng = SplitMix64(seed)
        return _uniform(rng, -1.0, 1.0, (k, m)), _uniform(rng, -1.0, 1.0, (k, n)), None, 1.0
    data = generate_lipschitz_data(m, n, k, seed)
    return data.points, data.values, (1.0 if kind == "gen" else None), 2.0


def _raw_datasets(seed, label, m, n, k, per_kind):
    return [
        _raw_dataset(kind, m, n, k, _sub_seed(seed, label, kind, i))
        for kind in KINDS
        for i in range(per_kind)
    ]


def _finite(value, residual):
    return bool(np.all(np.isfinite(value))) and np.isfinite(residual)


def _residual_ok(value, residual):
    return _finite(value, residual) and residual <= RESIDUAL_TOL


def _interp_check(target):
    return lambda value, residual: _finite(value, residual) and float(
        np.max(np.abs(np.asarray(value, dtype=float) - target))
    ) <= INTERP_TOL


def _query(model, x):
    return lambda: model.query(x)


def _pair_points(rng, half_width, m):
    x = _uniform(rng, -1.25 * half_width, 1.25 * half_width, (m,))
    return x, x + PAIR_STEP * _unit(rng, m)


def _interp_ops(datasets, query_of, seed):
    """Untimed interpolation ops: data points of random datasets queried."""
    ops = []
    rng = SplitMix64(_sub_seed(seed, "interp"))
    for _ in range(INTERP_QUERIES):
        idx = rng.integer(len(datasets))
        data = datasets[idx]
        i = rng.integer(data.size)
        a = data.points[i].copy()
        ops.append(Op("interp", query_of(idx, a), _interp_check(data.values[i]), a))
    return ops


# ---------------------------------------------------------------- proxavg


class Proxavg:
    """The paper's resolvent pipeline: one active-set QP per query."""

    name = "proxavg"
    K = 48
    PER_KIND = 8
    SETUP_CHUNK = 4
    ROUND_OPS = 300
    TRACE_OPS = 100

    def inputs(self, seed):
        return _raw_datasets(seed, self.name, 2, 2, self.K, self.PER_KIND)

    def build(self, item):
        points, values, L, _ = item
        return ext.ExtensionModel(ext.FiniteMapData(points, values, L), "proxavg")

    def ops(self, raw, models, seed):
        rng = SplitMix64(_sub_seed(seed, "ops"))
        pair = 0
        while True:
            idx = pair % len(models)
            model = models[idx]
            for x in _pair_points(rng, raw[idx][3], 2):
                yield Op("proxavg", _query(model, x), _residual_ok, x, pair, model.data.L)
            pair += 1

    def interp(self, raw, models, seed):
        return _interp_ops(
            [m.data for m in models], lambda i, a: _query(models[i], a), seed
        )


# ---------------------------------------------------------------- project_domain


class ProjectDomain:
    """Extension from a polytope domain that contains the data, at the
    default solver settings: each query projects every data point and the
    query onto the domain (convex_sets, Frank-Wolfe over the vertices) and
    then runs the minimax extension at the projection (Frank-Wolfe duals).

    BENCHMARK.json leaves it out: the Frank-Wolfe tail of the minimax step
    (single queries of 1-4 s, against a median of 120 ms) put the spread of
    ops_per_s over ten seeds at 0.18, and at 0.28 with k = 240.  Run it by
    name for the convex_sets layer and the minimax dual solves."""

    name = "project_domain"
    K = 120
    PER_KIND = 8
    SETUP_CHUNK = 2
    ROUND_OPS = 160
    TRACE_OPS = 40

    @staticmethod
    def _domain(half_width):
        s = half_width
        corners = [(1.1 * s * a, 1.1 * s * b) for a in (-1, 1) for b in (-1, 1)]
        tips = [(1.4 * s, 0.0), (-1.4 * s, 0.0), (0.0, 1.4 * s), (0.0, -1.4 * s)]
        return np.array(corners + tips)

    def inputs(self, seed):
        return _raw_datasets(seed, self.name, 2, 2, self.K, self.PER_KIND)

    def build(self, item):
        points, values, L, half_width = item
        return ext.ExtensionModel(
            ext.FiniteMapData(points, values, L),
            "project_domain",
            domain=Polytope(self._domain(half_width)),
        )

    @staticmethod
    def _check(data, x):
        # The projection p of x is no farther than x from any data point, so
        # the minimax value at p meets every constraint ball taken at x.
        radii = data.L * np.linalg.norm(data.points - x, axis=1)

        def balls_hold(value, residual):
            gaps = np.linalg.norm(data.values - value, axis=1) - radii
            return _finite(value, residual) and float(np.max(gaps)) <= RESIDUAL_TOL

        return balls_hold

    def ops(self, raw, models, seed):
        rng = SplitMix64(_sub_seed(seed, "ops"))
        pair = 0
        while True:
            idx = pair % len(models)
            model = models[idx]
            for x in _pair_points(rng, raw[idx][3], 2):
                yield Op(
                    "project_domain", _query(model, x), self._check(model.data, x), x, pair,
                    model.data.L,
                )
            pair += 1

    def interp(self, raw, models, seed):
        return _interp_ops(
            [m.data for m in models], lambda i, a: _query(models[i], a), seed
        )


# ---------------------------------------------------------------- envelopes


class Envelopes:
    """Solver-free scalar and coordinatewise extensions, whose cost is the
    per-query re-validation of the data.

    mcshane and coordinatewise run on the `gen` and `gen_tight` datasets
    only.  On `random` data (empirical L of about 1e4 at k = 400) the
    library rejects the Lipschitz modulus L t as not subadditive, because
    `Modulus._subadditive` compares values of order L * scale with an
    absolute tolerance of 1e-12; such queries raise ValueError.  Whether a
    query raises depends on the dataset and, for coordinatewise, on the
    query point, so a share of failed ops that varied with the seed and the
    number of rounds would make two sets of runs disagree.  The defect
    stays visible: `defect_probe` queries every `random` dataset with both
    methods once per run, untimed, and the line before the result lists
    those that raised.  tietze and uniform_extend, which build no such
    modulus, run on all three kinds.
    """

    name = "envelopes"
    K = 400
    PER_KIND = 3
    K_UNIFORM = 40  # uniform_extend needs O(k^4) memory; 200 does not fit 8 GB
    SETUP_CHUNK = 1
    ROUND_OPS = 240
    TRACE_OPS = 80
    # Latency clusters, fastest first: tietze 10 %, mcshane 65 %,
    # uniform_extend 10 %, coordinatewise 15 %.  The median lies inside
    # mcshane and the 90th percentile inside coordinatewise.
    CYCLE = (
        "mcshane", "mcshane", "tietze", "mcshane", "coordinatewise",
        "mcshane", "mcshane", "uniform", "mcshane", "coordinatewise",
        "mcshane", "mcshane", "tietze", "mcshane", "coordinatewise",
        "mcshane", "mcshane", "uniform", "mcshane", "mcshane",
    )
    MODULUS_CLASSES = ("mcshane", "coordinatewise")

    def inputs(self, seed):
        return list(zip(
            [kind for kind in KINDS for _ in range(self.PER_KIND)],
            _raw_datasets(seed, "scalar", 2, 1, self.K, self.PER_KIND),
            _raw_datasets(seed, "vector", 2, 3, self.K, self.PER_KIND),
            _raw_datasets(seed, "uniform", 2, 1, self.K_UNIFORM, self.PER_KIND),
        ))

    def build(self, item):
        kind, scalar, vector, small = item
        sdata = ext.FiniteMapData(*scalar[:3])
        return {
            "mcshane": ext.ExtensionModel(sdata, "mcshane"),
            "tietze": ext.ExtensionModel(sdata, "tietze"),
            "coordinatewise": ext.ExtensionModel(ext.FiniteMapData(*vector[:3]), "coordinatewise"),
            "uniform": ext.FiniteMapData(*small[:3]),
            "half_width": scalar[3],
            "kind": kind,
        }

    def _entries(self, models, cls):
        """The model entries an op class runs on."""
        if cls in self.MODULUS_CLASSES:
            return [entry for entry in models if entry["kind"] != "random"]
        return models

    def _run(self, cls, model, x):
        if cls == "uniform":
            return lambda: (np.array([ext.uniform_extend(model, x)]), 0.0)
        return _query(model, x)

    def _check(self, cls, model, x):
        if cls != "mcshane":
            return _finite

        def lower_below_upper(value, residual):
            upper = ext.extend_mcshane(model.data, model.omega, x, "upper")
            return _finite(value, residual) and float(value[0]) <= upper + 1e-9 * (1.0 + abs(upper))

        return lower_below_upper

    def ops(self, raw, models, seed):
        rng = SplitMix64(_sub_seed(seed, "ops"))
        visits = dict.fromkeys(self.CYCLE, 0)
        pair = 0
        while True:
            cls = self.CYCLE[pair % len(self.CYCLE)]
            entries = self._entries(models, cls)
            entry = entries[visits[cls] % len(entries)]
            visits[cls] += 1
            model = entry[cls]
            # mcshane is L-Lipschitz and coordinatewise sqrt(n) L-Lipschitz;
            # tietze and uniform_extend claim no Lipschitz constant.
            lip = None
            if cls in self.MODULUS_CLASSES:
                lip = np.sqrt(model.data.n) * model.data.L
            for x in _pair_points(rng, entry["half_width"], 2):
                yield Op(cls, self._run(cls, model, x), self._check(cls, model, x), x, pair, lip)
            pair += 1

    def interp(self, raw, models, seed):
        ops = []
        for j, cls in enumerate(("mcshane", "tietze", "coordinatewise", "uniform")):
            entries = self._entries(models, cls)
            datas = [e[cls] if cls == "uniform" else e[cls].data for e in entries]
            ops += _interp_ops(
                datas, lambda i, a, cls=cls, entries=entries: self._run(cls, entries[i][cls], a),
                seed + j,
            )
        return ops

    def defect_probe(self, models, seed):
        """One mcshane and one coordinatewise op on every `random` dataset."""
        rng = SplitMix64(_sub_seed(seed, "defect"))
        ops = []
        for entry in models:
            if entry["kind"] != "random":
                continue
            for cls in self.MODULUS_CLASSES:
                x, _ = _pair_points(rng, entry["half_width"], 2)
                ops.append(Op(cls, self._run(cls, entry[cls], x), _finite, x))
        return ops


# ---------------------------------------------------------------- conjugate


class Conjugate:
    """biconjugate_check of seeded max-affine functions on R at interior
    points, as `lipext function --conjugate-check` runs it: every f**
    evaluation is a box/compass search whose every probe is one
    polyhedral-conjugate solve."""

    name = "conjugate"
    PIECES = range(3, 11)
    # Functions per piece count: every seed has the same mix of piece counts,
    # and a round meets ~100 functions, since the cost of an f** evaluation
    # varies about twofold between functions of one piece count.
    PER_PIECES = 12
    SETUP_CHUNK = len(PIECES) * PER_PIECES
    ROUND_OPS = 200
    TRACE_OPS = 24

    def inputs(self, seed):
        rng = SplitMix64(_sub_seed(seed, self.name))
        return [
            (_uniform(rng, -1.0, 1.0, (pieces, 1)), _uniform(rng, 0.0, 1.0, (pieces,)))
            for _ in range(self.PER_PIECES)
            for pieces in self.PIECES
        ]

    def build(self, item):
        return cf.MaxAffine(*item)

    @staticmethod
    def _run(f, x):
        return lambda: (np.array([cf.biconjugate_check(f, [x])]), 0.0)

    @staticmethod
    def _within_gap(exact):
        # The value is the gap |f**(x) - f(x)|, so f**(x) lies within it of
        # the exact f(x).
        return lambda value: (exact, float(value[0]))

    @staticmethod
    def _gap_ok(value, residual):
        return _finite(value, residual) and float(value[0]) <= GAP_TOL

    def ops(self, raw, models, seed):
        rng = SplitMix64(_sub_seed(seed, "ops"))
        pair = 0
        while True:
            idx = pair % len(models)
            S, o = raw[idx]
            f = models[idx]
            lip = float(np.max(np.abs(S)))
            for x in _pair_points(rng, 0.8, 1):
                around = self._within_gap(np.array([np.max(S @ x - o)]))
                yield Op("f**", self._run(f, x), self._gap_ok, x, pair, lip, around)
            pair += 1

    def interp(self, raw, models, seed):
        return []


WORKLOADS = {w.name: w for w in (Proxavg(), ProjectDomain(), Envelopes(), Conjugate())}
