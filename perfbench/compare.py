"""Compare two captured benchmark outputs for byte-identical results.

    python3 perfbench/compare.py BEFORE.out AFTER.out

Each file is the standard output of one ``run.py`` run.  Runs of different
workloads, seeds or input digests are refused with status 2: their outputs
say nothing about each other.  Otherwise the status is 0 when the output
digests match and 1 when they differ; the metrics are printed side by side.
"""

from __future__ import annotations

import json
import math
import sys


def load(path: str) -> tuple[dict, dict]:
    """The record and the result of one captured run."""
    with open(path) as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    record = json.loads(lines[-2])["record"]
    return record, json.loads(lines[-1])


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    (rec_a, res_a), (rec_b, res_b) = load(argv[0]), load(argv[1])
    for key in ("workload", "seed"):
        if rec_a[key] != rec_b[key]:
            print(f"refused: {key} differs ({rec_a[key]} vs {rec_b[key]})")
            return 2
    da, db = rec_a["digests"], rec_b["digests"]
    if (da["inputs"], da["ops"]) != (db["inputs"], db["ops"]):
        print("refused: input digests differ, the runs measured different inputs")
        return 2
    for name, metric in res_a["metrics"].items():
        other = res_b["metrics"].get(name, {}).get("value", math.nan)
        print(f"{name:45s} {metric['value']:>14.6g} {other:>14.6g} "
              f"{metric['unit']}")
    same = da["outputs"] == db["outputs"]
    print(f"outputs of the first {da['ops']} ops: "
          + ("byte-identical" if same else "DIFFER"))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
