from __future__ import annotations

import json
from fractions import Fraction as F

import pytest
from click.testing import CliRunner

from freeset.cli import main
from freeset.extractors import planar_freeset
from freeset.generators import cycle, random_triangulation
from freeset.realize import free_realize
from freeset.textio import (
    parse_drawing,
    parse_freeset,
    parse_graph,
    serialize_drawing,
    serialize_freeset,
    serialize_graph,
    serialize_points,
)


def invoke(*args):
    return CliRunner().invoke(main, list(args), catch_exceptions=False)


def test_gen_deterministic(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    for out in (a, b):
        r = invoke("gen", "--family", "random-triangulation", "--n", "50",
                   "--seed", "7", "--out", str(out))
        assert r.exit_code == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_requires_seed():
    r = CliRunner().invoke(main, ["gen", "--family", "random-triangulation",
                                  "--n", "10"])
    assert r.exit_code == 2


def test_pipeline(tmp_path):
    gpath = tmp_path / "g.txt"
    fpath = tmp_path / "g.fs"
    ppath = tmp_path / "pts.txt"
    dpath = tmp_path / "g.drawing"
    spath = tmp_path / "g.svg"

    assert invoke("gen", "--family", "random-triangulation", "--n", "20",
                  "--seed", "3", "--out", str(gpath)).exit_code == 0
    assert invoke("freeset", "--graph", str(gpath),
                  "--out", str(fpath)).exit_code == 0
    g = parse_graph(gpath.read_text())
    fs = parse_freeset(fpath.read_text(), g)
    pts = [(F(i), F(i % 3)) for i in range(len(fs.order))]
    ppath.write_text(serialize_points(pts))
    assert invoke("realize", "--graph", str(gpath), "--freeset", str(fpath),
                  "--points", str(ppath), "--out", str(dpath)).exit_code == 0
    r = invoke("verify", "--graph", str(gpath), "--drawing", str(dpath))
    assert r.exit_code == 0 and "ok" in r.output
    assert invoke("svg", "--graph", str(gpath), "--drawing", str(dpath),
                  "--freeset", str(fpath), "--out", str(spath)).exit_code == 0
    assert spath.read_text().startswith("<svg")


def test_verify_detects_bad_drawing(tmp_path):
    gpath = tmp_path / "g.txt"
    dpath = tmp_path / "bad.drawing"
    assert invoke("gen", "--family", "octahedron",
                  "--out", str(gpath)).exit_code == 0
    dpath.write_text("\n".join(f"P {v} {v}/1 0/1" for v in range(6)) + "\n")
    r = CliRunner().invoke(main, ["verify", "--graph", str(gpath),
                                  "--drawing", str(dpath)])
    assert r.exit_code == 1


def test_svg_of_bad_drawing_is_input_error(tmp_path):
    # vertex 2 lies on the edge 0-1: the user's drawing is at fault
    gpath = tmp_path / "g.txt"
    dpath = tmp_path / "bad.drawing"
    assert invoke("gen", "--family", "path", "--n", "3",
                  "--out", str(gpath)).exit_code == 0
    dpath.write_text("P 0 0 0\nP 1 2 0\nP 2 1 0\n")
    r = CliRunner().invoke(main, ["svg", "--graph", str(gpath),
                                  "--drawing", str(dpath)])
    assert r.exit_code == 2
    assert "Traceback" not in r.output and "vertex-on-edge" in r.output


def test_realize_empty_freeset(tmp_path):
    # an S line that lists nothing is invalid input, not a crash
    gpath = tmp_path / "g.txt"
    fpath = tmp_path / "g.fs"
    ppath = tmp_path / "pts.txt"
    assert invoke("gen", "--family", "octahedron",
                  "--out", str(gpath)).exit_code == 0
    assert invoke("freeset", "--graph", str(gpath),
                  "--out", str(fpath)).exit_code == 0
    lines = fpath.read_text().splitlines()
    fpath.write_text("\n".join("S:" if line.startswith("S:") else line
                               for line in lines) + "\n")
    ppath.write_text("")
    r = CliRunner().invoke(main, ["realize", "--graph", str(gpath),
                                  "--freeset", str(fpath),
                                  "--points", str(ppath)])
    assert r.exit_code == 2
    assert "Traceback" not in r.output and "empty" in r.output


def test_realize_crossed_edge_written_high_low(tmp_path):
    # a certificate may name a crossed edge high end first
    gpath = tmp_path / "g.txt"
    fpath = tmp_path / "g.fs"
    ppath = tmp_path / "pts.txt"
    dpath = tmp_path / "g.drawing"
    gpath.write_text(serialize_graph(cycle(4)))
    fpath.write_text("S: 0\nCV 0\nCF 1\nCX 2 1\nCF 0\n")
    ppath.write_text(serialize_points([(F(0), F(0))]))
    assert invoke("realize", "--graph", str(gpath), "--freeset", str(fpath),
                  "--points", str(ppath), "--out", str(dpath)).exit_code == 0
    r = invoke("verify", "--graph", str(gpath), "--drawing", str(dpath))
    assert r.exit_code == 0 and "ok" in r.output


def mutated_certificate(lines: list[str], g, case: str) -> list[str]:
    """A free-set file's lines with one defect in its certificate.  A
    vertex item that is replaced leaves the S line too, so the set is still
    a subsequence of the curve and the defect reaches the curve's
    validation."""
    lines = list(lines)
    cf = next(i for i, line in enumerate(lines) if line.startswith("CF "))
    cx = next(i for i, line in enumerate(lines) if line.startswith("CX "))
    cv = [i for i, line in enumerate(lines) if line.startswith("CV ")]
    curve = {int(lines[i].split()[1]) for i in cv}
    a = int(lines[cx].split()[1])

    def replace_vertex_item(i: int, item: str) -> None:
        gone = lines[i].split()[1]
        s = next(j for j, line in enumerate(lines) if line.startswith("S:"))
        lines[s] = " ".join(w for w in lines[s].split() if w != gone)
        lines[i] = item

    if case == "face out of range":
        lines[cf] = "CF 99"
    elif case == "negative face":
        lines[cf] = "CF -1"
    elif case == "crossed non-edge":
        b = next(v for v in range(g.n) if v != a and not g.has_edge(a, v))
        lines[cx] = f"CX {a} {b}"
    elif case == "crossing at a curve vertex":
        lines[cx] = f"CX {a} {next(v for v in g.rot[a] if v in curve)}"
    elif case == "unknown vertex":
        replace_vertex_item(cv[0], f"CV {g.n}")
    elif case == "dropped CF":
        del lines[cf]
    elif case == "duplicate CV":
        replace_vertex_item(cv[1], lines[cv[0]])
    else:  # a face that misses the vertex before the passage
        v = int(lines[cf - 1].split()[1])
        f = next(f.id for f in g.faces if v not in f.vertex_set())
        lines[cf] = f"CF {f}"
    return lines


@pytest.mark.parametrize("case", [
    "face out of range", "negative face", "crossed non-edge",
    "crossing at a curve vertex", "unknown vertex", "dropped CF",
    "duplicate CV", "wrong face"])
def test_realize_rejects_mutated_certificate(tmp_path, case):
    # a broken certificate file is invalid input, named in the user's terms
    g = random_triangulation(30, 1)
    fs = planar_freeset(g)
    lines = mutated_certificate(serialize_freeset(fs).splitlines(), g, case)
    gpath, fpath, ppath = (tmp_path / name for name in ("g.txt", "g.fs",
                                                        "pts.txt"))
    gpath.write_text(serialize_graph(g))
    fpath.write_text("\n".join(lines) + "\n")
    k = len(next(line for line in lines if line.startswith("S:")).split())
    ppath.write_text(serialize_points([(F(i), F(i % 3))
                                       for i in range(k - 1)]))
    r = CliRunner().invoke(main, ["realize", "--graph", str(gpath),
                                  "--freeset", str(fpath),
                                  "--points", str(ppath)])
    assert r.exit_code == 2, r.exc_info
    assert r.stderr.startswith("error:")
    assert "Traceback" not in r.output
    if case == "crossing at a curve vertex":
        cx = next(line for line in lines if line.startswith("CX "))
        assert "({}, {})".format(*cx.split()[1:]) in r.stderr


def test_untangle(tmp_path):
    gpath = tmp_path / "g.txt"
    ppath = tmp_path / "pos.txt"
    dpath = tmp_path / "out.drawing"
    assert invoke("gen", "--family", "random-triangulation", "--n", "12",
                  "--seed", "5", "--out", str(gpath)).exit_code == 0
    pts = [(F((7 * v) % 12), F((5 * v * v + v) % 11)) for v in range(12)]
    ppath.write_text(serialize_points(pts))
    r = invoke("untangle", "--graph", str(gpath), "--positions", str(ppath),
               "--out", str(dpath))
    assert r.exit_code == 0
    assert "fixed" in r.output


def test_psge_bundle(tmp_path):
    g1 = tmp_path / "g1.txt"
    g2 = tmp_path / "g2.txt"
    outdir = tmp_path / "bundle"
    invoke("gen", "--family", "random-triangulation", "--n", "16",
           "--seed", "1", "--out", str(g1))
    invoke("gen", "--family", "random-triangulation", "--n", "16",
           "--seed", "2", "--out", str(g2))
    r = invoke("psge", "--graphs", str(g1), "--graphs", str(g2),
               "--outdir", str(outdir))
    assert r.exit_code == 0
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert len(manifest["shared_vertices"]) >= 2
    assert (outdir / "points.txt").exists()
    assert (outdir / "drawing_0.txt").exists()
    assert (outdir / "drawing_1.txt").exists()


def test_sge_nomap_bundle(tmp_path):
    g1 = tmp_path / "g1.txt"
    g2 = tmp_path / "g2.txt"
    outdir = tmp_path / "bundle"
    invoke("gen", "--family", "random-triangulation", "--n", "40",
           "--seed", "1", "--out", str(g1))
    invoke("gen", "--family", "cycle", "--n", "3", "--out", str(g2))
    r = invoke("sge-nomap", "--g1", str(g1), "--g2", str(g2),
               "--outdir", str(outdir))
    assert r.exit_code == 0
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["shared_vertices"] is None


def test_sge_nomap_two_vertex_g2(tmp_path):
    g1 = tmp_path / "g1.txt"
    g2 = tmp_path / "g2.txt"
    outdir = tmp_path / "bundle"
    invoke("gen", "--family", "random-triangulation", "--n", "20",
           "--seed", "1", "--out", str(g1))
    invoke("gen", "--family", "path", "--n", "2", "--out", str(g2))
    r = invoke("sge-nomap", "--g1", str(g1), "--g2", str(g2),
               "--outdir", str(outdir))
    assert r.exit_code == 0, r.output
    drawing = parse_drawing((outdir / "drawing_1.txt").read_text(),
                            parse_graph(g2.read_text()), verify=True)
    assert drawing.pos == {0: (F(0), F(0)), 1: (F(4096), F(0))}


def test_freeset_dualcycle(tmp_path):
    gpath = tmp_path / "octa.txt"
    fpath = tmp_path / "octa.fs"
    assert invoke("gen", "--family", "octahedron",
                  "--out", str(gpath)).exit_code == 0
    r = invoke("freeset", "--graph", str(gpath), "--method", "dualcycle",
               "--out", str(fpath))
    assert r.exit_code == 0
    g = parse_graph(gpath.read_text())
    fs = parse_freeset(fpath.read_text(), g)
    assert len(fs.order) >= 2


def test_oracle_subcommand(tmp_path):
    gpath = tmp_path / "gh.txt"
    invoke("gen", "--family", "goldner-harary", "--out", str(gpath))
    r = invoke("oracle", "--graph", str(gpath), "--mode", "hamiltonian")
    assert r.exit_code == 0 and "None" in r.output


def test_bench_quick(tmp_path):
    out = tmp_path / "report.jsonl"
    r = invoke("bench", "--quick", "--out", str(out))
    assert r.exit_code == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert records and all(rec["passed"] for rec in records)


def mutated_file(lines: list[str], g, kind: str, case: str) -> list[str]:
    """The lines of a graph, drawing or point file, as serialized for g,
    with one defect."""
    lines = list(lines)
    # a vertex, one of its neighbours and a vertex that is not one
    u, w = 3, g.rot[3][0]
    far = next(v for v in range(g.n) if v != u and not g.has_edge(u, v))
    if kind == "graph":
        r = lines.index(f"R {u}: " + " ".join(map(str, g.rot[u])))
        edits = {
            "non-integer token": (r, f"R {u}: x"),
            "non-integer count": (0, "V ten"),
            "1/0": (0, "V 1/0"),
            "wrong arity": (0, "V"),
            "missing colon": (r, f"R {u} {w}"),
            "out-of-range id": (r, f"R {g.n}: " + lines[r].split(": ")[1]),
            "out-of-range neighbour": (r, lines[r] + f" {g.n}"),
            "negative id": (r, "R -1: " + lines[r].split(": ")[1]),
            "asymmetric rotation": (r, lines[r].replace(f" {w}", "", 1)),
            "outer hint not integers": (len(lines) - 1, "OUTER: a b"),
            "outer hint not a face": (len(lines) - 1, f"OUTER: {u} {far} 0"),
        }
        if case == "missing line":
            del lines[r]
        elif case == "duplicate line":
            lines.insert(r, lines[r])
        elif case == "missing V":
            del lines[0]
        elif case == "duplicate V":
            lines.insert(0, lines[0])
        elif case == "huge V":  # four rotation lines for 10^11 vertices
            lines = ["V 100000000000"] + lines[1:5]
        else:
            at, text = edits[case]
            lines[at] = text
        return lines
    if kind == "drawing":
        p = lines.index(next(line for line in lines
                             if line.startswith(f"P {u} ")))
        x, y = lines[p].split()[2:]
        vx, vy = next(line for line in lines
                      if line.startswith(f"P {far} ")).split()[2:]
        edits = {
            "non-integer token": f"P x {x} {y}",
            "non-rational coordinate": f"P {u} a {y}",
            "1/0": f"P {u} 1/0 {y}",
            "out-of-range id": f"P {g.n} {x} {y}",
            "wrong arity": f"P {u} {x}",
            "unknown directive": f"Q {u} {x} {y}",
            "bend on a non-edge": f"B {u} {far} {x} {y}",
            # a bend on another vertex, keyed high end first: it must be
            # checked, not dropped
            "reversed bend on a vertex": f"B {max(u, w)} {min(u, w)} "
                                         f"{vx} {vy}",
        }
        if case == "missing line":
            del lines[p]
        elif case == "duplicate line":
            lines.insert(p, lines[p])
        elif case.startswith("bend") or case.startswith("reversed"):
            lines.append(edits[case])
        else:
            lines[p] = edits[case]
        return lines
    edits = {  # points
        "non-integer token": "a 1",
        "1/0": "1/0 2",
        "wrong arity": "1 2 3",
    }
    if case == "missing line":
        del lines[-1]
    elif case == "duplicate line":
        lines.append(lines[-1])
    elif case == "repeated point":
        lines[-1] = lines[0]
    else:
        lines[-1] = edits[case]
    return lines


GRAPH_CASES = [
    "non-integer token", "non-integer count", "1/0", "wrong arity",
    "missing colon", "out-of-range id", "out-of-range neighbour",
    "negative id", "asymmetric rotation", "outer hint not integers",
    "outer hint not a face", "missing line", "duplicate line", "missing V",
    "duplicate V", "huge V"]
DRAWING_CASES = [
    "non-integer token", "non-rational coordinate", "1/0", "out-of-range id",
    "wrong arity", "unknown directive", "bend on a non-edge",
    "reversed bend on a vertex", "missing line", "duplicate line"]
POINT_CASES = ["non-integer token", "1/0", "wrong arity", "missing line",
               "duplicate line", "repeated point"]
FILE_CASES = ([("graph", c) for c in GRAPH_CASES]
              + [("drawing", c) for c in DRAWING_CASES]
              + [(kind, c) for kind in ("points", "positions")
                 for c in POINT_CASES])


@pytest.mark.parametrize("kind,case", FILE_CASES,
                         ids=[f"{k}-{c}" for k, c in FILE_CASES])
def test_cli_rejects_mutated_file(tmp_path, kind, case):
    # a broken graph, drawing or point file is invalid input: exit code 2
    # and an error line, never a traceback
    g = random_triangulation(12, 4)
    fs = planar_freeset(g)
    pts = [(F(i), F(i % 3)) for i in range(len(fs.order))]
    files = {"graph": serialize_graph(g), "freeset": serialize_freeset(fs),
             "points": serialize_points(pts),
             "positions": serialize_points([(F(v), F(v * v % 7))
                                            for v in range(g.n)]),
             "drawing": serialize_drawing(free_realize(g, fs, pts))}
    files[kind] = "\n".join(mutated_file(files[kind].splitlines(), g,
                                         "points" if kind == "positions"
                                         else kind, case)) + "\n"
    path = {}
    for name, text in files.items():
        path[name] = str(tmp_path / f"{name}.txt")
        (tmp_path / f"{name}.txt").write_text(text)
    args = {"graph": ["freeset", "--graph", path["graph"]],
            "drawing": ["svg", "--graph", path["graph"],
                        "--drawing", path["drawing"]],
            "points": ["realize", "--graph", path["graph"],
                       "--freeset", path["freeset"],
                       "--points", path["points"]],
            "positions": ["untangle", "--graph", path["graph"],
                          "--positions", path["positions"]]}[kind]
    r = CliRunner().invoke(main, args)
    assert r.exit_code == 2, (r.output, r.exc_info)
    assert r.stderr.startswith("error:")
    assert "Traceback" not in r.output


TARGET_CASES = [("freeset", "1,,2"), ("freeset", "a"), ("freeset", "999"),
                ("freeset", "-1"), ("oracle", "1,x"), ("oracle", "99")]


@pytest.mark.parametrize("command,target", TARGET_CASES,
                         ids=[f"{c}-{t}" for c, t in TARGET_CASES])
def test_cli_rejects_bad_target(tmp_path, command, target):
    # a malformed or unknown --target is invalid input: exit code 2 and
    # one error line, never a traceback
    gpath = tmp_path / "g.txt"
    gpath.write_text(serialize_graph(random_triangulation(12, 4)))
    args = [command, "--graph", str(gpath), "--target", target]
    if command == "oracle":
        args += ["--mode", "mis"]
    r = CliRunner().invoke(main, args)
    assert r.exit_code == 2, (r.output, r.exc_info)
    assert r.stderr.startswith("error:") and r.stderr.count("\n") == 1
    assert "Traceback" not in r.output


READ_CASES = [(command, arg, what)
              for command, arg in [("freeset", "--graph"),
                                   ("realize", "--graph"),
                                   ("realize", "--freeset"),
                                   ("realize", "--points"),
                                   ("untangle", "--positions"),
                                   ("verify", "--drawing"),
                                   ("verify", "--certificate"),
                                   ("svg", "--drawing"),
                                   ("psge", "--graphs"),
                                   ("sge-nomap", "--g2")]
              for what in ("missing", "directory", "binary")]


@pytest.mark.parametrize("command,arg,what", READ_CASES,
                         ids=[f"{c}{a}-{w}" for c, a, w in READ_CASES])
def test_cli_rejects_unreadable_file(tmp_path, command, arg, what):
    # an input file that is missing, a directory or not text is invalid
    # input: exit code 2 and one error line naming it, never a traceback
    g = random_triangulation(12, 4)
    fs = planar_freeset(g)
    pts = [(F(i), F(i % 3)) for i in range(len(fs.order))]
    good = {"graph": serialize_graph(g), "freeset": serialize_freeset(fs),
            "points": serialize_points(pts)}
    p = {}
    for name, text in good.items():
        p[name] = str(tmp_path / f"{name}.txt")
        (tmp_path / f"{name}.txt").write_text(text)
    bad = tmp_path / "bad"
    if what == "directory":
        bad.mkdir()
    elif what == "binary":
        bad.write_bytes(b"V 4\n\xff\xfe\x00\n")
    out = str(tmp_path / "out")
    args = {"freeset": ["--graph", str(bad)],
            "realize": ["--graph", p["graph"], "--freeset", p["freeset"],
                        "--points", p["points"]],
            "untangle": ["--graph", p["graph"], "--positions", str(bad)],
            "verify": ["--graph", p["graph"], arg, str(bad)],
            "svg": ["--graph", p["graph"], "--drawing", str(bad)],
            "psge": ["--graphs", p["graph"], "--graphs", str(bad),
                     "--outdir", out],
            "sge-nomap": ["--g1", p["graph"], "--g2", str(bad),
                          "--outdir", out]}[command]
    if command == "realize":
        args[args.index(arg) + 1] = str(bad)
    r = CliRunner().invoke(main, [command, *args])
    assert r.exit_code == 2, (r.output, r.exc_info)
    assert r.stderr == f"error: cannot read {bad}: " + {
        "missing": "No such file or directory",
        "directory": "Is a directory",
        "binary": "not text"}[what] + "\n"
    assert "Traceback" not in r.output


WRITE_CASES = ([(command, what)
                for command in ("gen", "freeset", "realize", "untangle", "svg")
                for what in ("missing directory", "directory")]
               + [(command, what) for command in ("psge", "sge-nomap")
                  for what in ("file", "below a file")])
WRITE_ERRORS = {"missing directory": "No such file or directory",
                "directory": "Is a directory", "file": "File exists",
                "below a file": "Not a directory"}


@pytest.mark.parametrize("command,what", WRITE_CASES,
                         ids=[f"{c}-{w}" for c, w in WRITE_CASES])
def test_cli_rejects_unwritable_output(tmp_path, command, what):
    # an --out or --outdir that cannot be written is invalid input: exit
    # code 2 and one error line naming it, never a traceback
    g = random_triangulation(12, 4)
    fs = planar_freeset(g)
    pts = [(F(i), F(i % 3)) for i in range(len(fs.order))]
    good = {"graph": serialize_graph(g), "freeset": serialize_freeset(fs),
            "points": serialize_points(pts),
            "drawing": serialize_drawing(free_realize(g, fs, pts)),
            "positions": serialize_points(
                [(F((7 * v) % 12), F((5 * v * v + v) % 11))
                 for v in range(12)]),
            "triangle": serialize_graph(cycle(3))}
    p = {}
    for name, text in good.items():
        p[name] = str(tmp_path / f"{name}.txt")
        (tmp_path / f"{name}.txt").write_text(text)
    out = {"missing directory": str(tmp_path / "missing" / "x.txt"),
           "directory": str(tmp_path), "file": p["points"],
           "below a file": str(tmp_path / "points.txt" / "bundle")}[what]
    args = {"gen": ["--family", "path", "--n", "4", "--out", out],
            "freeset": ["--graph", p["graph"], "--out", out],
            "realize": ["--graph", p["graph"], "--freeset", p["freeset"],
                        "--points", p["points"], "--out", out],
            "untangle": ["--graph", p["graph"], "--positions",
                         p["positions"], "--out", out],
            "svg": ["--graph", p["graph"], "--drawing", p["drawing"],
                    "--out", out],
            "psge": ["--graphs", p["graph"], "--graphs", p["graph"],
                     "--outdir", out],
            "sge-nomap": ["--g1", p["graph"], "--g2", p["triangle"],
                          "--outdir", out]}[command]
    r = CliRunner().invoke(main, [command, *args])
    assert r.exit_code == 2, (r.output, r.exc_info)
    errors = [line for line in r.stderr.splitlines()
              if line.startswith("error:")]
    assert errors == [f"error: cannot write {out}: {WRITE_ERRORS[what]}"]
    assert r.stderr.endswith(errors[0] + "\n")
    assert "Traceback" not in r.output


def test_cli_rejects_one_vertex_graph(tmp_path):
    gpath = tmp_path / "g.txt"
    gpath.write_text("V 1\nR 0:\n")
    r = CliRunner().invoke(main, ["freeset", "--graph", str(gpath)])
    assert r.exit_code == 2, (r.output, r.exc_info)
    assert r.stderr == \
        "error: planar extraction needs at least 2 vertices, got 1\n"
    assert r.stdout == ""


@pytest.mark.parametrize("method", ["outerplanar", "onebend", "dualcycle"])
@pytest.mark.parametrize("target", ["999", "1,2"])
def test_cli_rejects_target_for_methods_without_one(tmp_path, method, target):
    # --target is honoured by planar and level only; the other methods
    # refuse it instead of extracting from the whole graph
    gpath = tmp_path / "g.txt"
    gpath.write_text(serialize_graph(random_triangulation(12, 5)))
    r = CliRunner().invoke(main, ["freeset", "--graph", str(gpath),
                                  "--method", method, "--target", target])
    assert r.exit_code == 2, (r.output, r.exc_info)
    assert r.stderr == f"error: --method {method} takes no --target\n"
    assert r.stdout == ""


def test_svg_rejects_mutated_certificate(tmp_path):
    # the free set is validated when it is parsed, before anything renders
    g = random_triangulation(30, 1)
    fs = planar_freeset(g)
    pts = [(F(i), F(i % 3)) for i in range(len(fs.order))]
    gpath, fpath, dpath = (tmp_path / name
                           for name in ("g.txt", "g.fs", "g.drawing"))
    gpath.write_text(serialize_graph(g))
    dpath.write_text(serialize_drawing(free_realize(g, fs, pts)))
    lines = mutated_certificate(serialize_freeset(fs).splitlines(), g,
                                "wrong face")
    fpath.write_text("\n".join(lines) + "\n")
    r = CliRunner().invoke(main, ["svg", "--graph", str(gpath),
                                  "--drawing", str(dpath),
                                  "--freeset", str(fpath)])
    assert r.exit_code == 2, r.exc_info
    assert r.stderr.startswith("error:") and "off-face" in r.stderr
    assert "Traceback" not in r.output and "<svg" not in r.output


_K4 = "V 4\nR 0: 1 3 2\nR 1: 2 3 0\nR 2: 0 3 1\nR 3: 2 0 1\nOUTER: 0 1 2\n"
_LONG = "1" + "0" * 5000 + "7"


@pytest.mark.parametrize("drawing", [
    # a point beyond the float range
    f"P 0 0 0\nP 1 {_LONG}/3 0\nP 2 0 {_LONG}/7\n"
    f"P 3 {_LONG}/31 {_LONG}/37\nB 0 1 {_LONG}/6 -{_LONG}/11\n",
    # points inside it, an extent beyond it
    f"P 0 -{10 ** 308} 0\nP 1 {10 ** 308} 0\nP 2 0 {10 ** 308}\nP 3 0 1\n",
], ids=["long-num", "wide"])
def test_svg_beyond_float_range_is_too_large(tmp_path, drawing):
    gpath, dpath, spath = (tmp_path / name
                           for name in ("k4.txt", "d.txt", "d.svg"))
    gpath.write_text(_K4)
    dpath.write_text(drawing)
    assert invoke("verify", "--graph", str(gpath),
                  "--drawing", str(dpath)).exit_code == 0
    r = CliRunner().invoke(main, ["svg", "--graph", str(gpath),
                                  "--drawing", str(dpath),
                                  "--out", str(spath)])
    assert r.exit_code == 2, r.exc_info
    assert r.stderr.startswith("error:") and r.stderr.count("\n") == 1
    assert "float range" in r.stderr and "Traceback" not in r.output
    assert not spath.exists()
