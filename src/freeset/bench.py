"""Acceptance checks as reusable, machine-readable records.

Each check returns records {name, bound, observed, passed}; the pytest
acceptance module and the CLI ``bench`` subcommand both run these.  A free
set is made only with a validated certificate, so the records count the
free sets made; an extraction whose certificate is invalid raises
InvalidCurve, and the certificate records count it as a failure.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

from .applications import psge_many, psge_two, untangle
from .bruteforce import (
    brute_cycles,
    exhaustive_curve_search,
    falsify_free_realize,
    max_proper_good_size,
    random_points,
)
from .canonical import antichain_bound
from .embedding import EmbeddedGraph, build_embedded
from .errors import DegenerateOutput, InvalidCurve
from .extractors import (
    LevelAssignment,
    bfs_levels,
    level_freeset,
    maxleaf_tree,
    onebend_freeset,
    outerplanar_greedy,
    planar_freeset,
)
from .generators import (
    GeneratorSpec,
    cycle,
    fan,
    generate,
    goldner_harary,
    grid,
    maximal_outerplanar,
    octahedron,
    path,
    random_triangulation,
    star,
)
from .realize import free_realize, verify_drawing
from .textio import (
    parse_certificate,
    parse_drawing,
    parse_freeset,
    parse_graph,
    serialize_certificate,
    serialize_drawing,
    serialize_freeset,
    serialize_graph,
)

F = Fraction


def _record(name: str, bound: str, observed: str, passed: bool) -> dict:
    return {"name": name, "bound": bound, "observed": observed,
            "passed": bool(passed)}


def _suite_graphs(count: int, lo: int, hi: int, seed: int):
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = rng.randint(lo, hi)
        out.append(random_triangulation(n, rng.randrange(1 << 30)))
    return out


def check_freeset_lower_bound(count: int = 100, lo: int = 10, hi: int = 200,
                              seed: int = 2026) -> tuple[list[dict], list]:
    """Criterion 1: extraction bound and certificate validity, timed."""
    graphs = _suite_graphs(count, lo, hi, seed)
    t0 = time.time()
    ok_bound = 0
    results = []
    for g in graphs:
        try:
            fs = planar_freeset(g)
        except InvalidCurve:
            continue
        results.append((g, fs))
        if len(fs.order) >= antichain_bound(g.n):
            ok_bound += 1
    ok_cert = len(results)
    elapsed = time.time() - t0
    records = [
        _record("free-set lower bound", f"|S| >= ceil(sqrt(n/2)), {count}x",
                f"{ok_bound}/{count}", ok_bound == count),
        _record("free-set certificates validate", f"{count}x",
                f"{ok_cert}/{count}", ok_cert == count),
        _record("extraction runtime", "< 60 s total", f"{elapsed:.1f} s",
                elapsed < 60),
    ]
    return records, results


def check_realization(results, pointsets_per_graph: int = 20,
                      seed: int = 77) -> list[dict]:
    """Criterion 2: exact realization on random rational point sets, the
    i-th graph's by ``falsify_free_realize`` with the seed seed + i."""
    failures = [f for i, (g, fs) in enumerate(results) for f in
                falsify_free_realize(g, fs, pointsets_per_graph,
                                     seed + i).result]
    total = len(results) * pointsets_per_graph
    good = total - len(failures)
    degenerate = sum(why.startswith(f"{DegenerateOutput.__name__}(")
                     for _, _, why in failures)
    return [
        _record("free realization soundness",
                f"verified with S bit-exact, {total}x",
                f"{good}/{total}", good == total),
        _record("degenerate realizations", "0",
                str(degenerate), degenerate == 0),
    ]


def check_outerplanar(count: int = 50, lo: int = 4, hi: int = 100,
                      seed: int = 404) -> list[dict]:
    """Criterion 3: outerplanar bound and the counting identities."""
    rng = random.Random(seed)
    ok = 0
    for _ in range(count):
        n = rng.randint(lo, hi)
        g = maximal_outerplanar(n, rng.randrange(1 << 30))
        res = outerplanar_greedy(g)
        s = len(res.free_set.order)
        identities = (
            2 * s >= n + 2
            and res.n0 + res.n1 + res.n2 == s
            and res.n0 + 2 * res.n1 + 3 * res.n2 == n
            and res.n0 - res.n2 >= 2
        )
        ok += bool(identities)
    return [_record("outerplanar n/2+1 and proof identities", f"{count}x",
                    f"{ok}/{count}", ok == count)]


def _random_tree(n: int, seed: int) -> EmbeddedGraph:
    rng = random.Random(seed)
    rot = [[] for _ in range(n)]
    for v in range(1, n):
        p = rng.randrange(v)
        rot[p].insert(rng.randint(0, len(rot[p])), v)
        rot[v].append(p)
    return build_embedded(n, rot)


def check_level(seed: int = 11, trees: int = 20) -> list[dict]:
    """Criterion 4: level bounds, exact on the paths/grids/stars examples."""
    records = []
    exact = [
        ("path P5", path(5), bfs_levels(path(5)), 3),
        ("star K1,5", star(6), bfs_levels(star(6)), 5),
        ("grid 3x3", grid(3, 3),
         LevelAssignment(levels={v: v // 3 for v in range(9)}, span=1,
                         order={r: tuple(range(3 * r, 3 * r + 3))
                                for r in range(3)}), 6),
    ]
    for name, g, la, want in exact:
        fs = level_freeset(g, la)
        records.append(_record(f"level extraction on {name}", f"|S| = {want}",
                               f"|S| = {len(fs.order)}",
                               len(fs.order) == want))
    rng = random.Random(seed)
    ok = 0
    for _ in range(trees):
        n = rng.randint(4, 40)
        t = _random_tree(n, rng.randrange(1 << 30))
        fs = level_freeset(t, bfs_levels(t))
        if len(fs.order) >= -(-n // 2):
            ok += 1
    records.append(_record("tree level bound", f"|S| >= ceil(n/2), {trees}x",
                           f"{ok}/{trees}", ok == trees))
    return records


def check_untangling(count: int = 100, lo: int = 10, hi: int = 60,
                     seed: int = 900) -> list[dict]:
    """Criterion 5: fixed vertices bit-identical, both lower bounds."""
    rng = random.Random(seed)
    ok = 0
    for _ in range(count):
        n = rng.randint(lo, hi)
        g = random_triangulation(n, rng.randrange(1 << 30))
        pos = {}
        used = set()
        for v in range(n):
            while True:
                p = (F(rng.randint(-3 * n, 3 * n)),
                     F(rng.randint(-3 * n, 3 * n)))
                if p not in used:
                    used.add(p)
                    pos[v] = p
                    break
        res = untangle(g, pos)
        k = res.free_set_size
        want = max(math.isqrt(k - 1) + 1 if k > 1 else 1,
                   math.ceil((n / 2) ** 0.25))
        good = (res.drawing.verified
                and len(res.fixed) >= want
                and all(res.drawing.places(v, pos[v]) for v in res.fixed))
        ok += bool(good)
    return [_record("untangling fix bound",
                    f"fixed >= ceil(sqrt(k)) and ceil((n/2)^(1/4)), {count}x",
                    f"{ok}/{count}", ok == count)]


def _catalog():
    """Small embedded graphs for oracle equivalence (6 vertices or fewer)."""
    out = [("path4", path(4)), ("path6", path(6)),
           ("cycle4", cycle(4)), ("cycle6", cycle(6)),
           ("star5", star(5)), ("star6", star(6)),
           ("fan5", fan(5)), ("fan6", fan(6)),
           ("mop6", maximal_outerplanar(6, 1)),
           ("grid2x3", grid(2, 3)),
           ("rt5", random_triangulation(5, 3)),
           ("rt6", random_triangulation(6, 4)),
           ("stacked5", generate(GeneratorSpec("stacked-3tree", n=5, seed=2))),
           ("k4", _k4()), ("octahedron", octahedron())]
    return out


def _k4() -> EmbeddedGraph:
    return build_embedded(4, [[1, 3, 2], [2, 3, 0], [0, 3, 1], [2, 0, 1]],
                          outer_face_hint=[0, 1, 2])


def check_oracle_equivalence() -> list[dict]:
    """Criterion 6: extractor outputs confirmed by exhaustive curve search;
    K4 has no proper-good triple while the extractor reaches 2."""
    records = []
    ok = 0
    total = 0
    for name, g in _catalog():
        fs = planar_freeset(g)
        total += 1
        confirmed = exhaustive_curve_search(g, fs.order).result is not None
        if g.n <= 6:
            best = max_proper_good_size(g)
            confirmed = confirmed and best.result[0] >= len(fs.order)
        ok += bool(confirmed)
    records.append(_record("oracle confirms extractor outputs",
                           f"{total} catalog graphs", f"{ok}/{total}",
                           ok == total))

    k4 = _k4()
    import itertools
    none3 = all(exhaustive_curve_search(k4, sub).result is None
                for sub in itertools.combinations(range(4), 3))
    size2 = len(planar_freeset(k4).order) == 2
    records.append(_record("K4 proper-good maximum",
                           "no 3-set exists, extractor finds 2",
                           f"none3={none3}, extractor=2:{size2}",
                           none3 and size2))
    return records


def check_goldner_harary(runs: int = 100) -> list[dict]:
    """Criterion 7: the 11/27 counts, non-Hamiltonicity, leaf ceiling."""
    g = goldner_harary()
    counts_ok = g.n == 11 and len(g.edges) == 27
    ham = brute_cycles(g, "hamiltonian").result
    worst = 0
    valid = 0
    for s in range(runs):
        tree = maxleaf_tree(g, seed=s)
        try:
            fs = onebend_freeset(g, tree)
        except InvalidCurve:
            continue
        valid += 1
        worst = max(worst, len(fs.order))
    return [
        _record("goldner-harary counts", "11 vertices, 27 edges",
                f"{g.n}, {len(g.edges)}", counts_ok),
        _record("goldner-harary hamiltonicity", "none exists",
                "none" if ham is None else "found", ham is None),
        _record("one-bend leaf ceiling", f"<= 10 over {runs} seeded runs",
                f"max {worst}, certificates valid: {valid}/{runs}",
                worst <= 10 and valid == runs),
    ]


def _shared_exact(res) -> bool:
    """Whether verified drawings share two or more vertices, exactly."""
    return len(res.shared_vertices) >= 2 and all(
        d.verified and d.places(v, p) for d in res.drawings
        for v, p in zip(res.shared_vertices, res.shared_points))


def check_psge(pairs: int = 5, triples: int = 3, seed: int = 31) -> list[dict]:
    """Criterion 8: shared positions identical and the size bounds.  For
    three graphs the common free set S comes from the same iterated
    restriction of ``planar_freeset`` as in ``psge_many``, and the shared
    set must reach ceil(sqrt(|S|)), its bound for r = 3."""
    rng = random.Random(seed)
    ok_pairs = 0
    for _ in range(pairs):
        g1 = random_triangulation(32, rng.randrange(1 << 30))
        g2 = random_triangulation(32, rng.randrange(1 << 30))
        ok_pairs += _shared_exact(psge_two(g1, g2))
    ok_triples = 0
    for _ in range(triples):
        gs = [_random_tree(16, rng.randrange(1 << 30)) for _ in range(3)]
        common = None
        for g in gs:
            common = planar_freeset(g, common).order
        res = psge_many(gs)
        # |V'| >= ceil(sqrt(|S|)) exactly when |V'|^2 >= |S|
        ok_triples += _shared_exact(res) and \
            len(res.shared_vertices) ** 2 >= len(common)
    return [
        _record("psge pairs (n=32)", f"|V'| >= 2, shared exact, {pairs}x",
                f"{ok_pairs}/{pairs}", ok_pairs == pairs),
        _record("psge tree triples (n=16)",
                f"|V'| >= 2 and the iterated-root bound, {triples}x",
                f"{ok_triples}/{triples}", ok_triples == triples),
    ]


def check_structural(seed: int = 5150, target: int = 10_000) -> list[dict]:
    """Criterion 9: Euler, face/rotation consistency, certificate validity
    and serialization round-trips across generated objects."""
    rng = random.Random(seed)
    checks = 0
    failures = 0

    def expect(cond: bool):
        nonlocal checks, failures
        checks += 1
        failures += not cond

    specs = []
    for i in range(40):
        specs.append(GeneratorSpec("random-triangulation",
                                   n=rng.randint(4, 60),
                                   seed=rng.randrange(1 << 30)))
        specs.append(GeneratorSpec("maximal-outerplanar",
                                   n=rng.randint(4, 60),
                                   seed=rng.randrange(1 << 30)))
        specs.append(GeneratorSpec("stacked-3tree", n=rng.randint(4, 40),
                                   seed=rng.randrange(1 << 30)))
    specs += [GeneratorSpec("path", n=7), GeneratorSpec("cycle", n=9),
              GeneratorSpec("star", n=8), GeneratorSpec("fan", n=9),
              GeneratorSpec("grid", rows=4, cols=5),
              GeneratorSpec("octahedron"), GeneratorSpec("icosahedron"),
              GeneratorSpec("goldner-harary")]

    done = 0
    while checks < target or done < len(specs):
        for spec in specs:
            done += 1
            g = generate(spec)
            m = len(g.edges)
            expect(g.n - m + len(g.faces) == 2)
            expect(sum(f.size for f in g.faces) == 2 * m)
            for f in g.faces:
                for i, (u, v) in enumerate(f.walk):
                    nu, nv = f.walk[(i + 1) % f.size]
                    expect(nu == v)
                    expect(g.face_of(u, v) == f.id)
            expect(parse_graph(serialize_graph(g)) == g)
            fs = planar_freeset(g)
            expect(parse_certificate(
                serialize_certificate(fs.certificate)) == fs.certificate)
            parsed = parse_freeset(serialize_freeset(fs), g)
            expect(parsed.order == fs.order)
            expect(parsed.certificate == fs.certificate)
            if g.n <= 40 and done % 9 == 0:
                pts = random_points(rng, len(fs.order))
                d = free_realize(g, fs, pts)
                expect(d.verified)
                text = serialize_drawing(d)
                rt = parse_drawing(text, g, verify=False)
                expect(rt.pos == d.pos and serialize_drawing(rt) == text)
                expect(verify_drawing(g, rt) is None)
    return [_record("structural invariant suite",
                    f">= {target} property checks",
                    f"{checks} checks, {failures} failures",
                    failures == 0 and checks >= target)]


def run_all(full: bool = True, seed: int = 2026) -> list[dict]:
    """Every acceptance criterion; scaled-down sizes when full is False."""
    scale = 1 if full else 10
    records, results = check_freeset_lower_bound(
        count=max(3, 100 // scale), seed=seed)
    records += check_realization(results,
                                 pointsets_per_graph=max(1, 20 // scale))
    records += check_outerplanar(count=max(3, 50 // scale))
    records += check_level(trees=max(3, 20 // scale))
    records += check_untangling(count=max(3, 100 // scale))
    records += check_oracle_equivalence()
    records += check_goldner_harary(runs=max(5, 100 // scale))
    records += check_psge(pairs=max(1, 5 // scale),
                          triples=max(1, 3 // scale))
    records += check_structural(target=10_000 if full else 400)
    return records
