"""Byte-level regression lock on extracted free sets and realized drawings.

Each case extracts or realizes a fixed seeded input and hashes the
serialized result.  The extraction hashes were recorded before face
splitting moved to in-place chord insertion.  The drawing hashes were
recorded when the half-plane systems became the plain integer Laplacian
(unit chord weights change the realized bytes); the test ids leave the
digests out, so a deliberate re-recording keeps the test names.  The
outerplanar greedy, restricted extraction and ``freeset psge`` manifest
hashes were recorded before the collar curve was built in one pass.  The
realized drawings (``free_realize``, ``untangle``, ``psge_two``, and G1's
drawing and point set in the ``sge-nomap`` bundle) were recorded when
every point off the free set came to be rounded to a power-of-two grid
certified by the triangles of the augmented halves.  All must keep
producing exactly the same bytes, and every realized drawing, checked on
its halves' triangles, must pass the sweep as well.
"""

from __future__ import annotations

import hashlib
import random

import pytest
from click.testing import CliRunner

from freeset.applications import psge_two, untangle
from freeset.cli import main
from freeset.extractors import outerplanar_greedy, planar_freeset
from freeset.generators import (
    grid,
    maximal_outerplanar,
    random_triangulation,
    stacked_3tree,
)
from freeset.realize import free_realize, verify_drawing
from freeset.textio import serialize_drawing, serialize_freeset

from conftest import point_set, thinned_triangulation


def _digest(*drawings) -> str:
    h = hashlib.sha256()
    for d in drawings:
        h.update(serialize_drawing(d).encode())
    return h.hexdigest()[:16]


FAMILIES = {
    "grid": grid,
    "outerplanar": maximal_outerplanar,
    "triangulation": random_triangulation,
    "thinned": thinned_triangulation,
    "stacked": stacked_3tree,
}

EXTRACT_CASES = [
    # (family, arguments, digest of serialize_freeset(planar_freeset(g)))
    ("grid", (6, 9), "f9c593c15234b441"),
    ("grid", (15, 15), "d330377cbc613cd4"),
    ("grid", (20, 20), "1f382976254c32fe"),
    ("outerplanar", (100, 1), "8b651822c38a1064"),
    ("outerplanar", (250, 2), "a382dbb84db7ae0b"),
    ("outerplanar", (400, 3), "e4bf4b1458497a73"),
    ("triangulation", (50, 4), "cea54329ea0ec135"),
    ("triangulation", (200, 5), "01687b46037c6249"),
    ("triangulation", (400, 6), "ddc2db04997c2f8b"),
    ("thinned", (60, 7), "4dc5689bdeb856b1"),
    ("thinned", (150, 8), "49b7e658756ad418"),
    ("thinned", (400, 9), "2daa289ff7f79f4a"),
]


@pytest.mark.parametrize("family,args,digest", EXTRACT_CASES,
                         ids=[f"{f}{a}" for f, a, _ in EXTRACT_CASES])
def test_planar_freeset_golden(family, args, digest):
    fs = planar_freeset(FAMILIES[family](*args))
    h = hashlib.sha256(serialize_freeset(fs).encode()).hexdigest()[:16]
    assert h == digest


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


@pytest.mark.parametrize("n,seed,digest", [
    (30, 1, "60b4cbdd08720b26"),
    (150, 2, "2227b0631257fd8f"),
    (400, 3, "e02f0e3d99083014"),
], ids=["n30-s1", "n150-s2", "n400-s3"])
def test_outerplanar_greedy_golden(n, seed, digest):
    fs = outerplanar_greedy(maximal_outerplanar(n, seed)).free_set
    assert _sha(serialize_freeset(fs).encode()) == digest


RESTRICTED_CASES = [
    # (family, arguments, |X|, sample seed, digest)
    ("grid", (9, 11), 30, 1, "ca4ae9f08be16950"),
    ("grid", (9, 11), 5, 3, "5dd26d49bc8255dd"),
    ("triangulation", (150, 2), 50, 2, "ed76f326321d7a1f"),
]


@pytest.mark.parametrize("family,args,k,seed,digest", RESTRICTED_CASES,
                         ids=[f"{f}{a}-x{k}-s{s}"
                              for f, a, k, s, _ in RESTRICTED_CASES])
def test_restricted_planar_freeset_golden(family, args, k, seed, digest):
    g = FAMILIES[family](*args)
    fs = planar_freeset(g, random.Random(seed).sample(range(g.n), k))
    assert _sha(serialize_freeset(fs).encode()) == digest


def test_psge_manifest_golden(tmp_path):
    runner = CliRunner()
    paths = []
    for seed in (1, 2):
        paths += ["--graphs", str(tmp_path / f"g{seed}.txt")]
        r = runner.invoke(main, ["gen", "--family", "random-triangulation",
                                 "--n", "16", "--seed", str(seed),
                                 "--out", paths[-1]])
        assert r.exit_code == 0
    out = tmp_path / "bundle"
    r = runner.invoke(main, ["psge", *paths, "--outdir", str(out)])
    assert r.exit_code == 0
    assert _sha((out / "manifest.json").read_bytes()) == "46d87d9d27cfea19"


def test_sge_nomap_bundle_golden(tmp_path):
    # every file of the bundle: G2's Tutte drawing, G1 realized on its
    # points, the point set and the manifest
    runner = CliRunner()
    for name, n, seed in (("g1", 40, 41), ("g2", 6, 42)):
        r = runner.invoke(main, ["gen", "--family", "random-triangulation",
                                 "--n", str(n), "--seed", str(seed),
                                 "--out", str(tmp_path / f"{name}.txt")])
        assert r.exit_code == 0
    out = tmp_path / "bundle"
    r = runner.invoke(main, ["sge-nomap", "--g1", str(tmp_path / "g1.txt"),
                             "--g2", str(tmp_path / "g2.txt"),
                             "--outdir", str(out)])
    assert r.exit_code == 0
    assert {p.name: _sha(p.read_bytes()) for p in out.iterdir()} == {
        "drawing_0.txt": "74cc3c0a1023dcf3",
        "drawing_1.txt": "dddb0d93de2ef9a8",
        "manifest.json": "fa3cbfa601e63e8b",
        "points.txt": "05f8d3baa5bc70cc",
    }


REALIZE_CASES = [
    # (n, graph seed, point seed, style, digest)
    (20, 1, 11, "general", "621ef2fb06535224"),
    (45, 2, 12, "collinear", "5d3608b6dfaaed93"),
    (45, 3, 13, "repeated-x", "3801d5e118fbaf43"),
    (80, 4, 14, "coprime", "fdf28b26c355fefe"),
    (120, 5, 15, "general", "9abf91bc6048f2cb"),
    (200, 6, 16, "repeated-x", "858b192eede66e52"),
]


@pytest.mark.parametrize("n,gseed,pseed,style,digest", REALIZE_CASES,
                         ids=[f"n{n}-g{g}-p{p}-{style}"
                              for n, g, p, style, _ in REALIZE_CASES])
def test_free_realize_golden(n, gseed, pseed, style, digest):
    g = random_triangulation(n, gseed)
    fs = planar_freeset(g)
    pts = point_set(style, len(fs.order), random.Random(pseed))
    d = free_realize(g, fs, pts)
    assert d.verified and verify_drawing(g, d) is None
    assert _digest(d) == digest


FAMILY_REALIZE_CASES = [
    # (family, arguments, point seed, style, digest)
    ("outerplanar", (400, 3), 41, "general", "3b04555ba6f70eba"),
    ("grid", (20, 20), 42, "coprime", "efb78e33d885c14f"),
    ("stacked", (200, 2), 43, "repeated-x", "42c45ecbdcbde68d"),
    ("triangulation", (400, 7), 44, "general", "2d7207a290f28593"),
]


@pytest.mark.parametrize("family,args,pseed,style,digest",
                         FAMILY_REALIZE_CASES,
                         ids=[f"{f}{a}-p{p}-{s}"
                              for f, a, p, s, _ in FAMILY_REALIZE_CASES])
def test_free_realize_family_golden(family, args, pseed, style, digest):
    g = FAMILIES[family](*args)
    fs = planar_freeset(g)
    pts = point_set(style, len(fs.order), random.Random(pseed))
    d = free_realize(g, fs, pts)
    assert d.verified and verify_drawing(g, d) is None
    assert _digest(d) == digest


@pytest.mark.parametrize("n,seed,digest", [
    (40, 21, "fc5f7438eeb32bdd"),
    (70, 22, "378ec07a0acd2fa9"),
], ids=["n40-s21", "n70-s22"])
def test_untangle_golden(n, seed, digest):
    # a small coordinate range forces repeated x, hence the shear path
    rng = random.Random(seed)
    g = random_triangulation(n, seed)
    cells = rng.sample([(x, y) for x in range(-n // 4, n // 4)
                        for y in range(-n, n)], n)
    res = untangle(g, dict(enumerate(cells)))
    assert res.drawing.verified and verify_drawing(g, res.drawing) is None
    assert _digest(res.drawing) == digest


@pytest.mark.parametrize("n,seed,digest", [
    (30, 31, "ad0da8d67eb5f1b4"),
    (60, 32, "2b64b96c2a73efa0"),
], ids=["n30-s31", "n60-s32"])
def test_psge_two_golden(n, seed, digest):
    res = psge_two(random_triangulation(n, seed),
                   random_triangulation(n, seed + 1000))
    assert all(d.verified and verify_drawing(d.graph, d) is None
               for d in res.drawings)
    assert _digest(*res.drawings) == digest
