"""Acceptance suite: every criterion at its stated size and tolerance.

Each check prints one pass/fail line; the shared implementations live in
freeset.bench so the CLI ``bench`` subcommand runs the same code.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from freeset import bench
from freeset.bench import (
    check_freeset_lower_bound,
    check_goldner_harary,
    check_level,
    check_oracle_equivalence,
    check_outerplanar,
    check_psge,
    check_realization,
    check_structural,
    check_untangling,
)
from freeset.generators import path

_extraction_cache = {}


def _report(records):
    for r in records:
        mark = "PASS" if r["passed"] else "FAIL"
        print(f"[{mark}] {r['name']}: {r['observed']} (bound: {r['bound']})")
    assert all(r["passed"] for r in records), \
        [r["name"] for r in records if not r["passed"]]


def _extraction():
    if "records" not in _extraction_cache:
        records, results = check_freeset_lower_bound(count=100, lo=10,
                                                     hi=200, seed=2026)
        _extraction_cache["records"] = records
        _extraction_cache["results"] = results
    return _extraction_cache


def test_criterion_1_freeset_lower_bound():
    _report(_extraction()["records"])


def test_criterion_2_realization_soundness():
    records = check_realization(_extraction()["results"],
                                pointsets_per_graph=20, seed=77)
    _report(records)


def test_criterion_3_outerplanar():
    _report(check_outerplanar(count=50, lo=4, hi=100, seed=404))


def test_criterion_4_level_bounds():
    _report(check_level(seed=11, trees=20))


def test_criterion_5_untangling():
    _report(check_untangling(count=100, lo=10, hi=60, seed=900))


def test_criterion_6_oracle_equivalence():
    _report(check_oracle_equivalence())


def test_criterion_7_goldner_harary():
    _report(check_goldner_harary(runs=100))


def test_criterion_8_psge():
    _report(check_psge(pairs=5, triples=3, seed=31))


def test_criterion_9_structural_invariants():
    _report(check_structural(seed=5150, target=10_000))


@pytest.mark.parametrize("kept,passed", [(None, True), (2, False)],
                         ids=["all-shared", "two-shared"])
def test_psge_triples_record_checks_the_root_bound(monkeypatch, kept,
                                                   passed):
    # three 16-vertex paths have a common free set of 13, so r = 3 needs
    # ceil(sqrt(13)) = 4 shared vertices: two, still placed exactly, meet
    # "|V'| >= 2" but not the iterated-root bound
    real = bench.psge_many

    def truncated(graphs):
        res = real(graphs)
        return replace(res, shared_vertices=res.shared_vertices[:kept],
                       shared_points=res.shared_points[:kept])

    monkeypatch.setattr(bench, "_random_tree", lambda n, seed: path(n))
    monkeypatch.setattr(bench, "psge_many", truncated)
    record = check_psge(pairs=0, triples=1)[1]
    assert record["name"] == "psge tree triples (n=16)"
    assert record["passed"] is passed
