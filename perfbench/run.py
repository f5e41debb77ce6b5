"""Benchmark of the freeset pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Workloads (see README.md for why each exists):

- ``extract-ladder``: parse a graph, extract a free set, serialize it.
- ``realize-warm``: realize a prepared free set on a fresh point set.
- ``apps-cold``: untangle or psge_two on graphs never seen before.

Each run is a closed loop with one caller and no threads.  Inputs come from
``--seed`` and reach the program only as serialized text.  Set-up runs
``SETUP_REPEATS`` times, each timed; the loop then runs passes until the
time spent in ops reaches ``--seconds`` or the run nears its time limit.  A
run stops only between passes and every pass has the same mix of op sizes.
Every op's output is checked outside the timed interval; a failed op counts
in ``attempted``/``failed`` and as an infinite latency.  Times are divided by
the host slowdown that ``HostSpeed`` measures during the run.

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
each pass is replayed with the layer wrappers of ``layertrace`` recording,
and the per-layer metrics are printed.  The line before the result is a
``{"record": ...}`` object with the raw times, the input and output digests
of the first pass, the environment and known defects; ``compare.py``
compares two of them.  README.md explains the choices.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

import gen  # noqa: E402
from layertrace import DERIVED, SPAN_NAMES, Tracer, collinear_cache  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
# no pass starts after this many seconds of the run, so that a run whose ops
# hit the slow tail still ends well inside its three-minute limit
WALL_LIMIT_S = 100
# a failed op misses every latency limit; JSON has no infinity
FAILED_LATENCY_S = 1e9

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "success_ratio": "ratio",
    "peak_rss_mib": "MiB",
    "output_bytes_mean": "bytes",
    "freeset_size_mean": "vertices",
}


def _import_program():
    src = ROOT / "src"
    if not (src / "freeset" / "__init__.py").is_file():
        sys.exit(f"run.py: {src / 'freeset'} is missing; run from a checkout")
    sys.path.insert(0, str(src))
    from freeset import applications, curves, extractors, realize, textio
    import freeset
    if Path(freeset.__file__).resolve().parent != (src / "freeset").resolve():
        sys.exit(f"run.py: imported freeset from {freeset.__file__}, "
                 f"not from {src}")
    return applications, curves, extractors, realize, textio


applications, curves, extractors, realize, textio = _import_program()
IMPORT_S = time.perf_counter() - _T0


# ---------------------------------------------------------------------------
# Ops and their output checks
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    texts: tuple[str, ...]   # serialized results, digested and sized
    size: int                # |S| or |V'|
    state: tuple = ()        # what the check needs besides the texts


@dataclass
class Op:
    label: str
    inputs: tuple[str, ...]
    run: Callable[[], Outcome]
    check: Callable[[Outcome], str | None]


def sqrt_bound(n: int) -> int:
    """ceil(sqrt(n / 2)), the guaranteed free-set size."""
    s = math.isqrt(n // 2)
    while 2 * s * s < n:
        s += 1
    return s


def check_extraction(g, fs_text: str) -> str | None:
    fs = textio.parse_freeset(fs_text, g)
    violation = curves.validate_curve(g, fs.certificate)
    if violation is not None:
        return f"certificate does not validate: {violation}"
    if len(fs.order) < sqrt_bound(g.n):
        return f"|S| = {len(fs.order)} < ceil(sqrt(n/2)) = {sqrt_bound(g.n)}"
    return None


def _verified_drawing(g, text: str):
    """The drawing in ``text`` and the exact verifier's verdict on it."""
    d = textio.parse_drawing(text, g, verify=False)
    return d, realize.verify_drawing(g, d)


def check_realization(g, order, points, text: str) -> str | None:
    """Crossing-free, and the free vertices bit-exactly on the points: the
    i-th free vertex on the i-th point by x when the x's are distinct."""
    d, violation = _verified_drawing(g, text)
    if violation is not None:
        return f"drawing fails verification: {violation}"
    placed = [d.pos[v] for v in order]
    targets = sorted(points)
    if len({x for x, _ in points}) < len(points):
        placed.sort()
    if placed != targets:
        return "a free vertex is not on its target point"
    return None


def extract_op(label: str, graph_text: str) -> Op:
    def run() -> Outcome:
        g = textio.parse_graph(graph_text)
        fs = extractors.planar_freeset(g)
        return Outcome((textio.serialize_freeset(fs),), len(fs.order), (g,))

    def check(out: Outcome) -> str | None:
        return check_extraction(out.state[0], out.texts[0])

    return Op(label, (graph_text,), run, check)


def realize_op(label: str, prepared: "Prepared", points_text: str) -> Op:
    g, fs = prepared.graph, prepared.freeset

    def run() -> Outcome:
        points = textio.parse_points(points_text)
        d = realize.free_realize(g, fs, points)
        return Outcome((textio.serialize_drawing(d),), len(fs.order),
                       (points, d.verified))

    def check(out: Outcome) -> str | None:
        points, verified = out.state
        if not verified:
            return "result is not marked verified"
        return check_realization(g, fs.order, points, out.texts[0])

    return Op(label, (prepared.graph_text, prepared.freeset_text, points_text),
              run, check)


def untangle_op(label: str, graph_text: str, positions_text: str) -> Op:
    def run() -> Outcome:
        g = textio.parse_graph(graph_text)
        positions = textio.parse_points(positions_text)
        res = applications.untangle(g, dict(enumerate(positions)))
        return Outcome((textio.serialize_drawing(res.drawing),),
                       len(res.fixed), (g, positions, res.fixed))

    def check(out: Outcome) -> str | None:
        g, positions, fixed = out.state
        d, violation = _verified_drawing(g, out.texts[0])
        if violation is not None:
            return f"drawing fails verification: {violation}"
        moved = [v for v in fixed if d.pos[v] != positions[v]]
        if moved:
            return f"fixed vertex {moved[0]} left its input position"
        return None

    return Op(label, (graph_text, positions_text), run, check)


def psge_op(label: str, text1: str, text2: str) -> Op:
    def run() -> Outcome:
        g1, g2 = textio.parse_graph(text1), textio.parse_graph(text2)
        res = applications.psge_two(g1, g2)
        return Outcome(tuple(textio.serialize_drawing(d) for d in res.drawings),
                       len(res.shared_vertices), (g1, g2, res.shared_vertices))

    def check(out: Outcome) -> str | None:
        g1, g2, shared = out.state
        d1, v1 = _verified_drawing(g1, out.texts[0])
        d2, v2 = _verified_drawing(g2, out.texts[1])
        if v1 is not None or v2 is not None:
            return f"drawing fails verification: {v1 or v2}"
        split = [v for v in shared if d1.pos[v] != d2.pos[v]]
        if split:
            return f"shared vertex {split[0]} differs between the drawings"
        return None

    return Op(label, (text1, text2), run, check)


def coord_bits(text: str) -> int:
    """Largest numerator or denominator bit length in a drawing's text; 0
    for any other text."""
    best = 0
    for line in text.splitlines():
        if line[:2] in ("P ", "B "):
            for token in line.split()[-2:]:
                for part in token.split("/"):
                    best = max(best, abs(int(part)).bit_length())
    return best


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    """Set-up batches and the passes over them.

    ``prepare(b)`` is set-up repetition b and is timed as set-up;
    ``pass_ops(j)`` makes the inputs of pass j outside the timed interval and
    is deterministic in (seed, j), so a pass can be replayed.
    """

    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.batches: list = []

    def rng(self, *key) -> random.Random:
        return random.Random(":".join(map(str, (self.seed, self.name) + key)))

    def prepare(self, b: int):
        return self.inputs(b)

    def inputs(self, j: int) -> list:
        """Fresh inputs for pass j; set-up makes those of the first passes."""
        raise NotImplementedError

    def pass_inputs(self, j: int) -> list:
        return self.batches[j] if j < len(self.batches) else self.inputs(j)

    def pass_ops(self, j: int) -> list[Op]:
        raise NotImplementedError

    def before_replay(self) -> None:
        """Before a pass runs again: restore the program state its first
        run met.  Extraction keeps no state; realize-warm's cache stays
        warm."""

    def known_defects(self) -> dict:
        return {}


class ExtractLadder(Workload):
    """Weighted toward small n; each pass adds one outerplanar and one grid
    graph, whose size cycles with the pass so every run covers 100-400."""

    name = "extract-ladder"
    # counts put the median inside the n = 100 ops and the 90th percentile
    # inside the n = 400 ops, away from the boundaries between sizes
    LADDER = ((50, 8), (100, 7), (200, 4), (400, 4), (800, 1))
    OUTERPLANAR_N = (100, 250, 400)
    GRID_SIDE = (10, 15, 20)
    DEFECT_N = 1000

    def inputs(self, j: int) -> list:
        rng = self.rng("pass", j)
        out = [(f"triangulation-n{n}", gen.random_triangulation(n, rng))
               for n, count in self.LADDER for _ in range(count)]
        n = self.OUTERPLANAR_N[j % 3]
        out.append((f"outerplanar-n{n}", gen.maximal_outerplanar(n, rng)))
        side = self.GRID_SIDE[j % 3]
        out.append((f"grid-{side}x{side}", gen.grid(side, side)))
        return out

    def pass_ops(self, j: int) -> list[Op]:
        return [extract_op(label, text) for label, text in self.pass_inputs(j)]

    def known_defects(self) -> dict:
        """Extraction at n = 1000 outside the timed loop; it is not an op
        because ops must not fail, but its outcome is recorded every run."""
        text = gen.random_triangulation(self.DEFECT_N, self.rng("defect"))
        try:
            extractors.planar_freeset(textio.parse_graph(text))
            outcome = "ok"
        except Exception as exc:  # record the failure type, whatever it is
            outcome = type(exc).__name__
        return {f"extract triangulation n={self.DEFECT_N}": outcome}


@dataclass
class Prepared:
    graph_text: str
    graph: object
    freeset: object
    freeset_text: str


class RealizeWarm(Workload):
    """Each batch extracts free sets of three triangulations and realizes
    each once on points along the x-axis, which fills the collinear-system
    cache and factors its systems without running ``perturb_scale``; timed
    ops realize on fresh point sets, cycling the four point styles.

    The triangulations are a fixed ladder, the same for every seed; the
    seed draws the point sets.  Realization time differs by about a tenth
    between random graphs of one size; with nine graphs a run, seed-drawn
    graphs would add that to the spread between runs."""

    name = "realize-warm"
    SIZES = (100, 200, 400)
    # the median falls inside the n = 200 ops, the 90th percentile inside
    # the n = 400 ops
    PASS = (100, 200, 200, 200, 400)

    def prepare(self, b: int):
        rng = random.Random(f"ladder:{self.name}:batch:{b}")
        prepared = {}
        for n in self.SIZES:
            text = gen.random_triangulation(n, rng)
            g = textio.parse_graph(text)
            fs_text = textio.serialize_freeset(extractors.planar_freeset(g))
            fs = textio.parse_freeset(fs_text, g)
            realize.free_realize(g, fs, [(x, 0) for x in range(len(fs.order))])
            prepared[n] = Prepared(text, g, fs, fs_text)
        return prepared

    def pass_ops(self, j: int) -> list[Op]:
        rng = self.rng("pass", j)
        ops = []
        for i, n in enumerate(self.PASS):
            style = gen.POINT_STYLES[(i + j) % len(gen.POINT_STYLES)]
            p = self.batches[(i + j) % len(self.batches)][n]
            points = gen.point_set(len(p.freeset.order), style, rng)
            ops.append(realize_op(f"realize-n{n}", p, gen.points_text(points)))
        return ops


class AppsCold(Workload):
    """Alternating untangle and psge_two on fresh graphs, sizes stratified
    over the ranges so every pass has the same mix."""

    name = "apps-cold"
    UNTANGLE_N = (60, 95, 130, 165, 200)
    PSGE_N = (32, 56, 80, 104, 128)

    def inputs(self, j: int) -> list:
        rng = self.rng("pass", j)
        out = []
        for nu, np_ in zip(self.UNTANGLE_N, self.PSGE_N):
            out.append(("untangle", nu, gen.random_triangulation(nu, rng),
                        gen.points_text(gen.distinct_positions(nu, rng))))
            out.append(("psge", np_, gen.random_triangulation(np_, rng),
                        gen.random_triangulation(np_, rng)))
        return out

    def pass_ops(self, j: int) -> list[Op]:
        make = {"untangle": untangle_op, "psge": psge_op}
        return [make[kind](f"{kind}-n{n}", a, b)
                for kind, n, a, b in self.pass_inputs(j)]

    def before_replay(self) -> None:
        cache = collinear_cache()
        if cache is not None:
            cache.cache_clear()


WORKLOADS = {w.name: w for w in (ExtractLadder, RealizeWarm, AppsCold)}


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

@dataclass
class Tally:
    timed_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    out_bytes: list = field(default_factory=list)
    sizes: list = field(default_factory=list)
    bits_max: int = 0
    failures: list = field(default_factory=list)
    by_label: dict = field(default_factory=dict)

    @property
    def ok(self) -> int:
        return self.attempted - self.failed


class Digests:
    def __init__(self):
        self.inputs = hashlib.sha256()
        self.outputs = hashlib.sha256()
        self.ops = 0

    def add(self, op: Op, out: Outcome | None) -> None:
        self.ops += 1
        for text in (op.label, *op.inputs):
            self.inputs.update(text.encode() + b"\0")
        for text in (out.texts if out is not None else ("<failed>",)):
            self.outputs.update(text.encode() + b"\0")


def run_pass(ops: list[Op], tally: Tally, host: HostSpeed,
             digests: Digests | None = None,
             tracer: Tracer | None = None) -> None:
    for op in ops:
        if tracer is not None:
            tracer.begin_op()
        error = None
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # a failing op is a measured outcome
            out, error = None, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_op()
        if error is None:
            try:
                error = op.check(out)
            except Exception as exc:  # a check that cannot run is a failure
                error = f"check raised {type(exc).__name__}: {exc}"
        if digests is not None:
            digests.add(op, out)
        host.maybe_sample()
        tally.attempted += 1
        tally.timed_s += dt
        if error is not None:
            tally.failed += 1
            tally.failures.append(f"{op.label}: {error}"[:300])
            dt = math.inf
        tally.by_label.setdefault(op.label, []).append(dt)
        if error is None:
            tally.out_bytes.append(sum(len(t.encode()) for t in out.texts))
            tally.sizes.append(out.size)
            tally.bits_max = max(tally.bits_max, *map(coord_bits, out.texts))


def label_latencies(tally: Tally) -> list[float]:
    """Each successful op's latency replaced by the median latency of its
    label, each failed op's by infinity: one stalled op or a burst from a
    neighbour moves the median of its label little."""
    out = []
    for ts in tally.by_label.values():
        ok = [t for t in ts if math.isfinite(t)]
        out += [statistics.median(ok)] * len(ok) if ok else []
        out += [math.inf] * (len(ts) - len(ok))
    return out


def _unslowed(latency: float, slowdown: float) -> float:
    return latency if latency == FAILED_LATENCY_S else latency / slowdown


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile; a failed op's infinite latency makes
    every percentile that touches it FAILED_LATENCY_S."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    frac = pos - lo
    if math.isinf(xs[lo]) or (frac and math.isinf(xs[hi])):
        return FAILED_LATENCY_S
    return xs[lo] + (xs[hi] - xs[lo]) * frac


def _git_sha() -> str | None:
    """HEAD of the checkout read from .git, or None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "freeset").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _label_medians(tally: Tally) -> dict:
    return {label: {"n": len(ts), "median_s": statistics.median(ts),
                    "max_s": max(ts)}
            for label, ts in sorted(tally.by_label.items())}


class HostSpeed:
    """How fast the host ran during a run, next to how fast it runs when
    quiet.

    Before each set-up and between ops, outside the timed interval and at
    most every ``EVERY_S`` seconds, it times a fixed piece of work in the
    program's style (lists, ints, big rationals) that runs none of the
    program's code.  The host's speed swings by a third between runs a
    minute apart; dividing times by ``slowdown()`` takes most of that out,
    as README.md shows.
    """

    EVERY_S = 0.5
    QUIET_S = 0.022   # the reference on a quiet 2-core host, Python 3.11

    def __init__(self):
        self.samples: list[float] = []
        self._last = -math.inf

    @staticmethod
    def reference_s() -> float:
        rng = random.Random(0)
        t0 = time.perf_counter()
        gen.random_triangulation(2000, rng)
        acc = Fraction(0)
        for i in range(1, 2000):
            acc += Fraction(rng.getrandbits(64), i)
        return time.perf_counter() - t0

    def sample(self) -> None:
        self.samples.append(self.reference_s())
        self._last = time.perf_counter()

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= self.EVERY_S:
            self.sample()

    def slowdown(self, first: int = 0) -> float:
        """Slowdown over the samples from ``first`` on."""
        return statistics.median(self.samples[first:]) / self.QUIET_S


def measure(wl: Workload, seconds: float, host: HostSpeed,
            tracer: Tracer | None):
    """Run passes until the timed interval reaches ``seconds``; with a
    tracer, replay each pass traced.  Returns the untraced and traced
    tallies, the digests of the first pass, the wrappers left installed
    and the pass count."""
    plain = Tally()
    traced = Tally() if tracer else None
    digests = Digests()
    leftover: list[str] = []
    j = 0
    while j == 0 or time.perf_counter() - _T0 < WALL_LIMIT_S and (
            plain.timed_s + (traced.timed_s if traced else 0.0) < seconds):
        run_pass(wl.pass_ops(j), plain, host, digests if j == 0 else None)
        if tracer:
            wl.before_replay()
            tracer.install()
            try:
                run_pass(wl.pass_ops(j), traced, host, tracer=tracer)
            finally:
                tracer.uninstall()
            leftover += Tracer.leftover()
        j += 1
    return plain, traced, digests, leftover, j


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)

    load_before = os.getloadavg()
    host = HostSpeed()
    wl = WORKLOADS[args.workload](args.seed)
    setup_times = []
    for b in range(SETUP_REPEATS):
        host.sample()
        t0 = time.perf_counter()
        wl.batches.append(wl.prepare(b))
        setup_times.append(time.perf_counter() - t0)
    host.sample()
    setup_slowdown = host.slowdown()
    loop_first = len(host.samples)

    tracer = Tracer() if args.trace else None
    plain, traced, digests, leftover, passes = measure(wl, args.seconds, host,
                                                       tracer)
    defects = wl.known_defects()
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    slowdown = host.slowdown(loop_first if len(host.samples) > loop_first else 0)
    typical = label_latencies(plain)
    raw_times = {
        "setup_s": IMPORT_S + statistics.median(setup_times),
        "ops_per_s": plain.ok / (sum(filter(math.isfinite, typical)) or math.inf),
        "latency_p50_s": percentile(typical, 0.5),
        "latency_p90_s": percentile(typical, 0.9),
    }
    tallies = [plain] + ([traced] if traced else [])
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    correct = failed == 0 and not leftover

    if args.trace:
        # both tallies ran the same ops, so the time ratio is the overhead
        values = tracer.metrics()
        values["coord_bits_max"] = max(t.bits_max for t in tallies)
        values["trace.ops_per_s"] = traced.ok / traced.timed_s
        values["trace.untraced_ops_per_s"] = plain.ok / plain.timed_s
        values["trace.overhead_ratio"] = traced.timed_s / plain.timed_s
        units = PER_LAYER_UNITS
    else:
        n_ok = max(plain.ok, 1)
        values = {
            "setup_s": raw_times["setup_s"] / setup_slowdown,
            "ops_per_s": raw_times["ops_per_s"] * slowdown,
            "latency_p50_s": _unslowed(raw_times["latency_p50_s"], slowdown),
            "latency_p90_s": _unslowed(raw_times["latency_p90_s"], slowdown),
            "success_ratio": plain.ok / plain.attempted,
            "peak_rss_mib": rss_mib,
            "output_bytes_mean": sum(plain.out_bytes) / n_ok,
            "freeset_size_mean": sum(plain.sizes) / n_ok,
        }
        units = END_TO_END

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": passes,
        "latency_samples": plain.attempted,
        "timed_s": plain.timed_s,
        "setup_repeats_s": setup_times,
        "raw_times": raw_times,
        "import_s": IMPORT_S,
        "digests": {"ops": digests.ops,
                    "inputs": digests.inputs.hexdigest(),
                    "outputs": digests.outputs.hexdigest()},
        "known_defects": defects,
        "failures": [f for t in tallies for f in t.failures][:10],
        "wrappers_left": leftover,
        "coord_bits_max": plain.bits_max,
        "ops": _label_medians(plain),
        "env": {
            "git_sha": _git_sha(),
            "source_sha256": _source_digest(),
            "python": platform.python_version(),
            "nproc": _cpu_count(),
            "loadavg_before": load_before,
            "loadavg_after": os.getloadavg(),
            "host_slowdown_setup": setup_slowdown,
            "host_slowdown": slowdown,
            "host_ref_samples": len(host.samples),
        },
    }
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def _per_layer_units() -> dict[str, str]:
    units = {}
    for span in SPAN_NAMES:
        units[f"{span}.calls"] = "count"
        units[f"{span}.self_s"] = "s"
    units.update(DERIVED)
    units.update({"coord_bits_max": "bits",
                  "trace.ops_per_s": "1/s",
                  "trace.untraced_ops_per_s": "1/s",
                  "trace.overhead_ratio": "ratio"})
    return units


PER_LAYER_UNITS = _per_layer_units()

if __name__ == "__main__":
    sys.exit(main())
