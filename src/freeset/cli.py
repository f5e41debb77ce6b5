"""Command-line surface: thin wrappers over the library operations.

Exit codes: 0 ok, 1 guarantee not met, 2 invalid input, 3 internal
degeneracy.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from . import applications, bruteforce, svg, textio
from .bench import run_all
from .curves import validate_curve
from .errors import (
    BadSpec,
    DegenerateOutput,
    FreesetError,
    MergeConflict,
    SingularSystem,
    UnreadableFile,
    Unverified,
    UnwritableFile,
)
from .extractors import (
    bfs_levels,
    level_freeset,
    maxleaf_tree,
    onebend_freeset,
    outerplanar_greedy,
    planar_freeset,
)
from .generators import FAMILIES, GeneratorSpec, generate
from .realize import free_realize

_DEGENERATE = (DegenerateOutput, MergeConflict, SingularSystem)


def _run(fn):
    try:
        fn()
    except _DEGENERATE as exc:
        click.echo(f"degenerate: {exc}", err=True)
        sys.exit(3)
    except FreesetError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)


def _read(path: str) -> str:
    """The text of an input file; UnreadableFile when it cannot be read."""
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise UnreadableFile(f"cannot read {path}: "
                             f"{exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise UnreadableFile(f"cannot read {path}: not text") from None


def _read_graph(path: str):
    return textio.parse_graph(_read(path))


def _target(text: str | None) -> list[int] | None:
    """The vertex ids of a comma-separated ``--target``, or None without
    one."""
    if not text:
        return None
    try:
        return [int(t) for t in text.split(",")]
    except ValueError:
        raise BadSpec(f"--target {text!r} is not a comma-separated list "
                      "of vertex ids") from None


def _write(out: str | None, text: str) -> None:
    """Write text to stdout (no path, or "-") or to a file; UnwritableFile
    when the file cannot be written."""
    if out is None or out == "-":
        click.echo(text, nl=False)
        return
    try:
        Path(out).write_text(text)
    except OSError as exc:
        raise UnwritableFile(f"cannot write {out}: "
                             f"{exc.strerror or exc}") from None


@click.group()
def main():
    """Free sets in planar graphs: extraction, realization, applications."""


@main.command()
@click.option("--family", type=click.Choice(FAMILIES), required=True)
@click.option("--n", type=int, default=0)
@click.option("--rows", type=int, default=0)
@click.option("--cols", type=int, default=0)
@click.option("--seed", type=int, default=None)
@click.option("--out", type=str, default=None)
def gen(family, n, rows, cols, seed, out):
    """Generate an embedded graph."""
    def go():
        g = generate(GeneratorSpec(family=family, n=n, rows=rows, cols=cols,
                                   seed=seed))
        _write(out, textio.serialize_graph(g))
    _run(go)


@main.command("freeset")
@click.option("--graph", "graph_path", required=True)
@click.option("--method",
              type=click.Choice(["planar", "outerplanar", "level",
                                 "onebend", "dualcycle"]),
              default="planar")
@click.option("--target", type=str, default=None,
              help="comma-separated vertex ids to extract within")
@click.option("--seed", type=int, default=None)
@click.option("--out", type=str, default=None)
def freeset_cmd(graph_path, method, target, seed, out):
    """Extract an ordered free set with its curve certificate."""
    def go():
        if target and method not in ("planar", "level"):
            raise BadSpec(f"--method {method} takes no --target")
        g = _read_graph(graph_path)
        xs = _target(target)
        if method == "planar":
            fs = planar_freeset(g, xs)
        elif method == "outerplanar":
            fs = outerplanar_greedy(g).free_set
        elif method == "level":
            fs = level_freeset(g, bfs_levels(g), xs)
        elif method == "onebend":
            tree = maxleaf_tree(g, seed=seed)
            fs = onebend_freeset(g, tree)
            _write(out, "# free set lives on the fully subdivided graph\n"
                   + textio.serialize_graph(fs.graph)
                   + textio.serialize_freeset(fs))
            return
        else:
            from .embedding import dual_graph
            cycle_faces = bruteforce.brute_cycles(
                dual_graph(g), "hamiltonian").result
            if cycle_faces is None:
                click.echo("no hamiltonian dual cycle; guarantee not met",
                           err=True)
                sys.exit(1)
            from .extractors import dualcycle_freeset
            fs = dualcycle_freeset(g, cycle_faces)
        _write(out, textio.serialize_freeset(fs))
    _run(go)


@main.command()
@click.option("--graph", "graph_path", required=True)
@click.option("--freeset", "freeset_path", required=True)
@click.option("--points", "points_path", required=True,
              help="point file: one '<px>/<qx> <py>/<qy>' per line")
@click.option("--format", "fmt", type=click.Choice(["text", "svg"]),
              default="text")
@click.option("--out", type=str, default=None)
def realize(graph_path, freeset_path, points_path, fmt, out):
    """Realize a free set at prescribed points (verified drawing)."""
    def go():
        g = _read_graph(graph_path)
        fs = textio.parse_freeset(_read(freeset_path), g)
        pts = textio.parse_points(_read(points_path))
        d = free_realize(g, fs, pts)
        if fmt == "svg":
            _write(out, svg.export_svg(d, certificate=fs.certificate,
                                       highlight=fs.order))
        else:
            _write(out, textio.serialize_drawing(d))
    _run(go)


@main.command()
@click.option("--graph", "graph_path", required=True)
@click.option("--positions", "positions_path", required=True,
              help="point file, one line per vertex in id order")
@click.option("--format", "fmt", type=click.Choice(["text", "svg"]),
              default="text")
@click.option("--out", type=str, default=None)
def untangle(graph_path, positions_path, fmt, out):
    """Untangle a straight-line drawing keeping many vertices fixed."""
    def go():
        g = _read_graph(graph_path)
        pts = textio.parse_points(_read(positions_path))
        res = applications.untangle(g, dict(enumerate(pts)))
        click.echo(f"# fixed {len(res.fixed)} of {g.n}: "
                   + " ".join(map(str, res.fixed)), err=True)
        if fmt == "svg":
            _write(out, svg.export_svg(res.drawing, highlight=res.fixed))
        else:
            _write(out, textio.serialize_drawing(res.drawing))
    _run(go)


def _write_bundle(outdir: str, res) -> None:
    d = Path(outdir)
    try:
        d.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UnwritableFile(f"cannot write {outdir}: "
                             f"{exc.strerror or exc}") from None
    _write(str(d / "points.txt"), textio.serialize_points(res.shared_points))
    for i, drawing in enumerate(res.drawings):
        _write(str(d / f"drawing_{i}.txt"), textio.serialize_drawing(drawing))
    manifest = {
        "shared_vertices": list(res.shared_vertices)
        if res.shared_vertices is not None else None,
        "drawings": [f"drawing_{i}.txt" for i in range(len(res.drawings))],
        "bound_met": res.bound_met,
    }
    _write(str(d / "manifest.json"), json.dumps(manifest, indent=2) + "\n")


@main.command("sge-nomap")
@click.option("--g1", "g1_path", required=True)
@click.option("--g2", "g2_path", required=True)
@click.option("--outdir", required=True)
def sge_nomap_cmd(g1_path, g2_path, outdir):
    """Simultaneous embedding without mapping onto one point set."""
    def go():
        res = applications.sge_nomap(_read_graph(g1_path),
                                     _read_graph(g2_path))
        _write_bundle(outdir, res)
    _run(go)


@main.command()
@click.option("--graphs", "graph_paths", required=True, multiple=True)
@click.option("--outdir", required=True)
def psge(graph_paths, outdir):
    """Partial simultaneous embedding with mapping (two or more graphs)."""
    def go():
        gs = [_read_graph(p) for p in graph_paths]
        if len(gs) == 2:
            res = applications.psge_two(gs[0], gs[1])
        else:
            res = applications.psge_many(gs)
        _write_bundle(outdir, res)
    _run(go)


@main.command()
@click.option("--graph", "graph_path", required=True)
@click.option("--drawing", "drawing_path", default=None)
@click.option("--certificate", "cert_path", default=None)
def verify(graph_path, drawing_path, cert_path):
    """Verify a drawing (exact) or a curve certificate."""
    def go():
        g = _read_graph(graph_path)
        failed = False
        if drawing_path:
            try:
                textio.parse_drawing(_read(drawing_path), g)
                violation = None
            except Unverified as exc:
                violation = exc.violation
            click.echo("drawing: ok" if violation is None
                       else f"drawing: {violation}")
            failed |= violation is not None
        if cert_path:
            cert = textio.parse_certificate(_read(cert_path))
            violation = validate_curve(g, cert)
            click.echo("certificate: ok" if violation is None
                       else f"certificate: {violation}")
            failed |= violation is not None
        if failed:
            sys.exit(1)
    _run(go)


@main.command()
@click.option("--graph", "graph_path", required=True)
@click.option("--mode", type=click.Choice(["curve", "longest", "hamiltonian",
                                           "mis", "falsify"]),
              required=True)
@click.option("--target", type=str, default=None)
@click.option("--trials", type=int, default=50)
@click.option("--seed", type=int, default=0)
def oracle(graph_path, mode, target, trials, seed):
    """Brute-force ground truth searches."""
    def go():
        g = _read_graph(graph_path)
        tgt = _target(target)
        if mode == "curve":
            rep = bruteforce.exhaustive_curve_search(g, tgt or range(g.n))
        elif mode in ("longest", "hamiltonian"):
            rep = bruteforce.brute_cycles(g, mode)
        elif mode == "mis":
            rep = bruteforce.brute_independent_set(g, tgt or range(g.n))
        else:
            fs = planar_freeset(g)
            rep = bruteforce.falsify_free_realize(g, fs, trials, seed)
        click.echo(f"{rep.query}: {rep.result!r} "
                   f"[{rep.search_space} states, {rep.elapsed:.2f}s]")
    _run(go)


@main.command("svg")
@click.option("--graph", "graph_path", required=True)
@click.option("--drawing", "drawing_path", required=True)
@click.option("--freeset", "freeset_path", default=None)
@click.option("--out", type=str, default=None)
def svg_cmd(graph_path, drawing_path, freeset_path, out):
    """Render a verified drawing to SVG."""
    def go():
        g = _read_graph(graph_path)
        d = textio.parse_drawing(_read(drawing_path), g)
        cert = None
        highlight = ()
        if freeset_path:
            fs = textio.parse_freeset(_read(freeset_path), g)
            cert = fs.certificate
            highlight = fs.order
        _write(out, svg.export_svg(d, certificate=cert, highlight=highlight))
    _run(go)


@main.command()
@click.option("--full/--quick", default=False)
@click.option("--seed", type=int, default=2026)
@click.option("--out", type=str, default=None)
def bench(full, seed, out):
    """Run the acceptance checks; exit 1 when any bound is missed."""
    def go():
        records = run_all(full=full, seed=seed)
        text = "\n".join(json.dumps(r) for r in records) + "\n"
        _write(out, text)
        if out:
            for r in records:
                mark = "PASS" if r["passed"] else "FAIL"
                click.echo(f"[{mark}] {r['name']}: {r['observed']}", err=True)
        if not all(r["passed"] for r in records):
            sys.exit(1)
    _run(go)


if __name__ == "__main__":
    main()
