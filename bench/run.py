"""Closed-loop benchmark of lipext, one workload per process.

Run from the repository root:

    python3 bench/run.py --workload proxavg --seed 1 --seconds 15 --trace 0

Workloads: proxavg, envelopes, conjugate and, outside BENCHMARK.json,
project_domain (see workloads.py).  One caller sends the next op only when
the previous one has returned, as `lipext extend` does; the library is
called directly, because the CLI's JSON/CSV I/O is negligible next to the
solvers.

--trace 0 replays the first ROUND_OPS ops of the workload's stream in whole
rounds until --seconds have passed, so that every run of every commit times
the same ops, and reports the end-to-end metrics.  --trace 1 runs the first
TRACE_OPS ops of the same stream twice, untraced and then traced
(tracing.py), and reports the per-layer metrics and the tracing overhead.

Ops and set-up are timed in CPU time of the benchmark's thread
(time.thread_time), since the loop is single-threaded with BLAS pinned to
one thread, and reported in nominal seconds: each time is scaled by
REF_NOMINAL_S over the CPU time of a fixed reference computation run just
before and just after it.  On a shared 2-vCPU VM the CPU time of one fixed
computation was seen to double for seconds at a time while other guests
loaded the host; the ratio to the reference cancels most of that, so a
nominal second is a second of a host on which the reference takes
REF_NOMINAL_S.  Per-layer times stay in CPU seconds.

Both modes first warm up on another seed, then run an untimed interpolation
pass over the data points and a self-test of the output checker.  The last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics; the line before it holds the output digest (a hash of every
value and residual of the interpolation pass and of one round), the failed
ops and, on envelopes, the ops of the probe of a known library defect
(Envelopes in workloads.py) that raised.
"""

import os

# Pin BLAS/OpenMP to one thread before numpy is imported: multithreaded
# OpenBLAS is slower on these small matrices, and the loop is single-threaded.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WARMUP_S = 1.0
WARMUP_SEED_OFFSET = 1_000_003
SETUP_REPS = 9
SETUP_BLOCK_S = 5e-3
# The reference computation: row norms of ever shorter slices of a fixed
# point set, driven from a Python loop, as lipext's pairwise data checks
# are.  Its CPU time followed the host's load on lipext's ops more closely
# than a loop of norms of fixed 60-vectors did: the spread of single op
# times over the reference fell from 0.13-0.24 to 0.09-0.16 (IQR/median,
# one op at a time, proxavg, envelopes and conjugate ops, 2-vCPU VM).  It
# takes about REF_NOMINAL_S of CPU time on an unloaded core of that VM.
REF_ROWS = 120
REF_NOMINAL_S = 1.0e-3
_REF_POINTS = (np.arange(2.0 * REF_ROWS).reshape(REF_ROWS, 2) * 0.618) % 1.0
MAX_LISTED_FAILURES = 20


class Ledger:
    """Counts and checks ops and hashes their outputs."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0  # failed ops that returned an output, as opposed to raising
        self.failures = []
        self.digest = hashlib.sha256()
        self.first_good = None  # (op, value, residual) for the self-test

    def record(self, label, op, value, residual, error):
        """Check one op's output; return True if it passed.

        An op fails if it raised (error is set), or if its output is
        non-finite or breaks its check; the latter are also counted as wrong.
        """
        self.attempted += 1
        reason = error
        if reason is None:
            try:
                if not op.check(value, residual):
                    reason = "check failed"
            except Exception as exc:  # a broken check fails the op, not the run
                reason = f"check raised {type(exc).__name__}: {exc}"
            self.wrong += reason is not None
        if error is None:
            self.digest.update(np.asarray(value, dtype=np.float64).tobytes())
            self.digest.update(np.float64(residual).tobytes())
        else:
            self.digest.update(error.encode())
        if reason is not None:
            self.failed += 1
            if len(self.failures) < MAX_LISTED_FAILURES:
                self.failures.append(
                    {"op": label, "kind": op.kind, "x": [float(v) for v in op.x], "reason": reason}
                )
            return False
        if self.first_good is None:
            self.first_good = (op, value, residual)
        return True

    def absorb(self, other):
        """Add another ledger's counts and failures to this one's."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong
        self.failures += other.failures
        self.first_good = self.first_good or other.first_good

    def self_test(self):
        """A perturbed copy of the first good output must fail its check."""
        if self.first_good is None:
            return False
        op, value, residual = self.first_good
        try:
            return not op.check(value + 1e-3, residual + 1.0)
        except Exception:  # a check that cannot judge the output has not failed it
            return False


def units():
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def reference_s():
    """CPU time of the reference computation."""
    start = time.thread_time()
    for i in range(REF_ROWS):
        np.any(np.linalg.norm(_REF_POINTS[i] - _REF_POINTS[i + 1 :], axis=1) > 2.0)
    return time.thread_time() - start


def nominal(fn):
    """Run fn; return its result, its CPU seconds and its nominal seconds."""
    before = reference_s()
    start = time.thread_time()
    out = fn()
    elapsed = time.thread_time() - start
    after = reference_s()
    return out, elapsed, elapsed * REF_NOMINAL_S / (0.5 * (before + after))


def run_op(op):
    """Run one op; return (value, residual, error, CPU seconds, nominal seconds)."""

    def attempt():
        try:
            return op.run(), None
        except Exception as exc:  # a raising op is a failed op, counted not fatal
            return None, f"{type(exc).__name__}: {exc}"

    (out, error), cpu_s, nominal_s = nominal(attempt)
    if error is not None:
        return None, None, error, cpu_s, nominal_s
    value, residual = out
    return np.atleast_1d(np.asarray(value, dtype=float)), float(residual), None, cpu_s, nominal_s


def setup(workload, raw):
    return [workload.build(item) for item in raw]


def warm_up(workload, seed):
    """Run ops of another seed so code paths are warm but no cache is."""
    raw = workload.inputs(seed + WARMUP_SEED_OFFSET)
    stream = workload.ops(raw, setup(workload, raw), seed + WARMUP_SEED_OFFSET)
    start = time.perf_counter()
    done = 0
    while done < 2 or time.perf_counter() - start < WARMUP_S:
        run_op(next(stream))
        done += 1


def check_interpolation(workload, raw, models, seed, ledger):
    for i, op in enumerate(workload.interp(raw, models, seed)):
        value, residual, error, _, _ = run_op(op)
        ledger.record(f"interp/{i}", op, value, residual, error)


def build_block(workload, items):
    """Build the items until SETUP_BLOCK_S of CPU time has passed; return
    the last models built and the number of builds."""
    start = time.thread_time()
    count = 0
    while True:
        models = setup(workload, items)
        count += 1
        if time.thread_time() - start >= SETUP_BLOCK_S:
            return models, count


def time_setup(workload, raw):
    """Nominal set-up time and the models built.

    The items are built in chunks of the workload's SETUP_CHUNK items.  Each
    chunk is timed in SETUP_REPS blocks, each block between its own two
    reference runs, so that the reference follows the host's speed at the
    scale of a few milliseconds rather than of a whole set-up.  A block
    repeats the chunk's build until it has taken SETUP_BLOCK_S, so that a
    chunk that builds in microseconds is timed warm and not at the cold
    start after the reference; single builds of conjugate's 0.2 ms set-up
    moved setup_s by 27 % between two sets of the same ten seeds.  The
    set-up time is the sum over chunks of the median time per build of
    their blocks, which drops blocks that an interruption fell into.
    """
    models = []
    total = 0.0
    for start in range(0, len(raw), workload.SETUP_CHUNK):
        chunk = raw[start : start + workload.SETUP_CHUNK]
        per_build = []
        for _ in range(SETUP_REPS):
            (models_of_chunk, count), _, seconds = nominal(lambda: build_block(workload, chunk))
            per_build.append(seconds / count)
        models += models_of_chunk
        total += statistics.median(per_build)
    return total, models


def lip_ratio(prev, cur):
    """||f(x1) - f(x2)|| / (L ||x1 - x2||) for two good ops of one close pair.

    Where an op only bounds f(x) (Op.around), the ratio is the largest one
    those bounds allow.
    """
    (op1, y1), (op2, y2) = prev, cur
    if op1.pair != op2.pair or op1.pair < 0 or not op2.lip:
        return None
    (c1, r1), (c2, r2) = (op.around(y) if op.around else (y, 0.0) for op, y in (prev, cur))
    return float((np.linalg.norm(c1 - c2) + r1 + r2) / (op2.lip * np.linalg.norm(op1.x - op2.x)))


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, raw, models, seed, seconds, ledger):
    """The timed closed loop; returns the end-to-end metrics but set-up's,
    and whether every round returned the same outputs.

    Each round builds fresh ops for the first ROUND_OPS ops of the stream
    and runs them in order.  Latency percentiles are over the ops that
    succeeded (over all ops if none did); ops_per_s divides their count by
    the nominal time of every op.  peak_rss_mb is read after the first
    round, so it covers the same work in every run.
    """
    latencies = []
    every = []
    worst_ratio = 0.0
    digests = []
    start = time.perf_counter()
    while not digests or time.perf_counter() - start < seconds:
        round_ledger = Ledger()
        prev = None
        stream = workload.ops(raw, models, seed)
        for index, op in enumerate(itertools.islice(stream, workload.ROUND_OPS)):
            value, residual, error, _, elapsed = run_op(op)
            every.append(elapsed)
            label = f"timed/{len(digests)}/{index}"
            if round_ledger.record(label, op, value, residual, error):
                latencies.append(elapsed)
                cur = (op, value)
                ratio = lip_ratio(prev, cur) if prev else None
                if ratio is not None:
                    worst_ratio = max(worst_ratio, ratio)
                prev = cur
            else:
                prev = None
        if not digests:
            ledger.digest.update(round_ledger.digest.digest())
            rss = peak_rss_mb()
        digests.append(round_ledger.digest.digest())
        ledger.absorb(round_ledger)
    sample = latencies or every
    metrics = {
        "op_p50_ms": 1e3 * statistics.median(sample),
        "op_p90_ms": 1e3 * statistics.quantiles(sample, n=10)[8],
        "ops_per_s": len(latencies) / sum(every),
        "lip_ratio_max": worst_ratio,
        "peak_rss_mb": rss,
    }
    return metrics, len(set(digests)) == 1


def end_to_end(workload, seed, seconds):
    ledger = Ledger()
    raw = workload.inputs(seed)
    setup_s, models = time_setup(workload, raw)
    check_interpolation(workload, raw, models, seed, ledger)
    metrics, rounds_identical = measure(workload, raw, models, seed, seconds, ledger)
    metrics["setup_s"] = setup_s
    return ledger, metrics, {"rounds_identical": rounds_identical}, models


def fixed_pass(workload, raw, models, seed, ledger):
    """Run the first TRACE_OPS ops of the stream; return their CPU and
    nominal seconds."""
    stream = workload.ops(raw, models, seed)
    cpu_total = nominal_total = 0.0
    for index, op in enumerate(itertools.islice(stream, workload.TRACE_OPS)):
        value, residual, error, cpu_s, nominal_s = run_op(op)
        ledger.record(f"trace/{index}", op, value, residual, error)
        cpu_total += cpu_s
        nominal_total += nominal_s
    return cpu_total, nominal_total


def per_layer(workload, seed):
    from tracing import Tracer

    ledger = Ledger()
    raw = workload.inputs(seed)
    models = setup(workload, raw)
    check_interpolation(workload, raw, models, seed, ledger)
    plain = Ledger()
    _, plain_s = fixed_pass(workload, raw, models, seed, plain)

    tracer = Tracer()
    traced = Ledger()
    tracer.install()
    try:
        with tracer.span("extension.setup"):
            models = setup(workload, raw)
        traced_cpu_s, traced_s = fixed_pass(workload, raw, models, seed, traced)
    finally:
        tracer.uninstall()

    stats = tracer.stats
    metrics = {}
    for layer, keys in (
        ("solvers.solve_qp", ("calls", "iters", "self_s", "unconverged")),
        ("solvers.fw", ("calls", "iters", "iters_max", "self_s", "unconverged")),
        ("monotone.resolvent", ("calls", "self_s")),
        ("convex_functions.eval", ("calls", "self_s")),
        ("convex_functions.polyconj", ("calls", "self_s")),
        ("convex_sets.project", ("calls", "self_s")),
        ("extension.query", ("calls", "self_s")),
        ("extension.setup", ("self_s",)),
    ):
        for key in keys:
            metrics[f"{layer}.{key}"] = float(stats[layer][key])
    # A conjugate value served from the cache makes no solver call.
    polyconj = stats["convex_functions.polyconj"]
    metrics["convex_functions.polyconj.misses"] = float(polyconj["with_children"])
    metrics["convex_functions.polyconj.hit_ratio"] = (
        1.0 - polyconj["with_children"] / polyconj["calls"] if polyconj["calls"] else 0.0
    )
    queries = tracer.target_calls["lipext.extension.extend_minimax"]
    dual_solves = tracer.target_calls["lipext.extension.minimize_quadratic_over_simplex"]
    metrics["extension.minimax.dual_solves_per_query"] = dual_solves / queries if queries else 0.0
    # In CPU seconds, as the layers' self times are.
    metrics["trace.op_s"] = traced_cpu_s
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1.0

    # The digest of a traced run is that of its untraced pass.
    ledger.absorb(plain)
    ledger.absorb(traced)
    ledger.digest = plain.digest
    notes = {"traced_digest_matches": plain.digest.digest() == traced.digest.digest()}
    return ledger, metrics, notes, models


def known_defects(workload, models, seed):
    """Run the workload's probe of a known library defect, if it has one.

    The probe is untimed and stays out of the op counts and the digest, so
    that it neither moves the metrics nor makes runs of different seeds
    disagree on their share of failed ops; its failures are reported beside
    the result.
    """
    if not hasattr(workload, "defect_probe"):
        return {}
    ledger = Ledger()
    for i, op in enumerate(workload.defect_probe(models, seed)):
        value, residual, error, _, _ = run_op(op)
        ledger.record(f"defect/{i}", op, value, residual, error)
    return {"defect_probe": {
        "attempted": ledger.attempted, "failed": ledger.failed, "failures": ledger.failures,
    }}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "lipext", "__init__.py")):
        print(f"bench: no lipext sources at {SRC}; run from a lipext checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    warm_up(workload, args.seed)
    if args.trace:
        ledger, metrics, notes, models = per_layer(workload, args.seed)
    else:
        ledger, metrics, notes, models = end_to_end(workload, args.seed, args.seconds)
    defects = known_defects(workload, models, args.seed)
    # Ops that raised are failed but returned nothing wrong; `correct` asks
    # that no output was wrong and that the checker catches a wrong one.
    self_test = ledger.self_test()
    correct = self_test and ledger.wrong == 0 and all(notes.values())
    print(json.dumps({
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "digest": ledger.digest.hexdigest(),
        "fail_frac": ledger.failed / ledger.attempted,
        "self_test_flags_perturbed_output": self_test,
        **notes,
        "failures": ledger.failures,
        **defects,
    }))
    unit = units()
    print(json.dumps({
        "correct": bool(correct),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
