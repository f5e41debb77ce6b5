"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. A realization whose drawing has one free vertex moved off its target is
   counted as a failed op.
2. A one-second run of every workload, untraced and traced, prints every
   metric named in BENCHMARK.json with its unit, is correct, and both runs
   of a workload digest the same inputs and outputs.

Exits 0 when everything holds; takes a few minutes (set-up is not shortened).
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import gen
import run

HERE = Path(__file__).resolve().parent


def corrupted_drawing_is_a_failure() -> None:
    rng = random.Random("selftest")
    text = gen.random_triangulation(40, rng)
    g = run.textio.parse_graph(text)
    fs_text = run.textio.serialize_freeset(run.extractors.planar_freeset(g))
    prepared = run.Prepared(text, g, run.textio.parse_freeset(fs_text, g), fs_text)
    points = gen.point_set(len(prepared.freeset.order), "general", rng)
    op = run.realize_op("selftest", prepared, gen.points_text(points))

    out = op.run()
    assert op.check(out) is None, op.check(out)

    victim = prepared.freeset.order[0]
    x, y = next(line.split()[2:] for line in out.texts[0].splitlines()
                if line.startswith(f"P {victim} "))
    num, den = map(int, x.split("/"))
    moved = out.texts[0].replace(f"P {victim} {x} {y}",
                                 f"P {victim} {2 * num + 1}/{2 * den} {y}")
    assert moved != out.texts[0]
    bad = run.Outcome((moved,), out.size, out.state)
    op.run = lambda: bad

    tally = run.Tally()
    run.run_pass([op], tally, run.HostSpeed())
    assert (tally.attempted, tally.failed) == (1, 1), tally
    assert run.percentile(run.label_latencies(tally), 0.5) == run.FAILED_LATENCY_S
    print("corrupted drawing counted as a failure:", tally.failures[0])


def smoke() -> None:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in (w["name"] for w in spec["workloads"]):
        digests = []
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", "7", "--seconds", "1", "--trace", str(trace)],
                cwd=HERE.parent, capture_output=True, text=True, timeout=180)
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            record = json.loads(lines[-2])["record"]
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, record["failures"]
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            assert units == expected[trace], (workload, trace, units)
            assert not record["wrappers_left"]
            digests.append(record["digests"])
            print(f"{workload} --trace {trace}: {len(units)} metrics, "
                  f"{result['attempted']} ops, correct")
        assert digests[0] == digests[1], digests


if __name__ == "__main__":
    corrupted_drawing_is_a_failure()
    smoke()
    print("selftest passed")
