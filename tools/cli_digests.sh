#!/bin/sh
# Fixed-seed CLI outputs of a freeset source tree, and their SHA-256 digests.
#
# Usage: tools/cli_digests.sh SRC OUTDIR
#
# Runs the command line of the checkout SRC (python3 -m freeset.cli, with
# SRC/src on PYTHONPATH) on fixed seeded inputs, writes every input and
# output under OUTDIR (which must not exist yet), and lists one digest per
# file in OUTDIR/SHA256SUMS.  Two checkouts behave alike on these inputs
# when their lists are byte-identical:
#
#   tools/cli_digests.sh old-checkout /tmp/old
#   tools/cli_digests.sh .            /tmp/new
#   cmp /tmp/old/SHA256SUMS /tmp/new/SHA256SUMS
#
# Covered: gen; freeset (planar, level, outerplanar, with --target);
# realize in text and svg on general and repeated-x point sets, and on
# points all on y = 0 (every target height 0: the zero lift), and in text
# of the planar sets of a path, a cycle and a fan, the level set of a star
# and the outerplanar set of an outerplanar graph; verify of one realized
# drawing and svg of the other; verify and svg of hand-written drawings
# (tokens not in lowest terms, bad tokens, duplicate and missing lines) and
# of a realized one rewritten as 6p/6q; untangle in text and svg, on random
# positions with repeated x, on a crossing-free grid and on rt60 put on two
# rows, (30i, 0) and (-j, 1) for i, j < 30, which the least shear t that
# makes x + t*y distinct separates only at t = 900; psge of two and of
# three graphs; two sge-nomap bundles; oracle --mode falsify and bench
# --quick, with their timings blanked.  Point files are written by the
# standard-library helper below, not by the code under test.
# The inputs reach both turned orientations of the applications: 7
# untangle calls realize a decreasing subsequence (on the half-turned
# points), and 2 later graphs of psge have their shared order falling
# along their free set (one quarter turn instead of three).
# Takes about 20 s on two cores; not part of the test suite.

set -eu

if [ $# -ne 2 ]; then
    echo "usage: $0 SRC OUTDIR" >&2
    exit 2
fi
SRC=$(cd "$1" && pwd)
OUT=$2
if [ -e "$OUT" ]; then
    echo "$0: $OUT exists already" >&2
    exit 2
fi
mkdir -p "$OUT"
cd "$OUT"

fs() { PYTHONPATH="$SRC/src" python3 -m freeset.cli "$@"; }

# points KIND COUNT SEED: COUNT distinct rational points, one "x y" per line.
# general: (a/b, c/d) with |a|, |c| <= 400; repeated-x: x in -4..4;
# axis: (a/b, 0) with |a| <= 400;
# cells: integer points with x in [-COUNT/4, COUNT/4) and y in [-COUNT, COUNT).
points() {
    python3 - "$@" <<'EOF'
import random
import sys
from fractions import Fraction as F

kind, k, seed = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
rng = random.Random(seed)
if kind == "cells":
    pts = rng.sample([(F(x), F(y)) for x in range(-(k // 4), k // 4)
                      for y in range(-k, k)], k)
else:
    seen = set()
    while len(seen) < k:
        x = F(rng.randint(-4, 4)) if kind == "repeated-x" else \
            F(rng.randint(-400, 400), rng.randint(1, 9))
        seen.add((x, F(0) if kind == "axis" else
                  F(rng.randint(-400, 400), rng.randint(1, 9))))
    pts = sorted(seen)
print("\n".join(f"{x} {y}" for x, y in pts))
EOF
}

# the number of vertices in a free-set file's "S:" line
members() { grep '^S:' "$1" | wc -w | awk '{print $1 - 1}'; }

seed=100
for spec in "rt60 --family random-triangulation --n 60 --seed 1" \
            "rt200 --family random-triangulation --n 200 --seed 2" \
            "rt400 --family random-triangulation --n 400 --seed 3" \
            "mop80 --family maximal-outerplanar --n 80 --seed 4" \
            "st100 --family stacked-3tree --n 100 --seed 5" \
            "grid6x7 --family grid --rows 6 --cols 7"; do
    set -- $spec
    g=$1
    shift
    fs gen "$@" --out "$g.txt"
    fs freeset --graph "$g.txt" --out "$g.fs"
    k=$(members "$g.fs")
    for kind in general repeated-x; do
        seed=$((seed + 1))
        points "$kind" "$k" "$seed" > "$g.$kind.pts"
        fs realize --graph "$g.txt" --freeset "$g.fs" \
            --points "$g.$kind.pts" --out "$g.$kind.txt"
        fs realize --graph "$g.txt" --freeset "$g.fs" \
            --points "$g.$kind.pts" --format svg --out "$g.$kind.svg"
    done
    fs verify --graph "$g.txt" --drawing "$g.general.txt" > "$g.verify"
    fs svg --graph "$g.txt" --drawing "$g.repeated-x.txt" \
        --freeset "$g.fs" --out "$g.rendered.svg"
    n=$(head -1 "$g.txt" | awk '{print $2}')
    seed=$((seed + 1))
    points cells "$n" "$seed" > "$g.pos"
    fs untangle --graph "$g.txt" --positions "$g.pos" \
        --out "$g.untangled.txt" 2> "$g.untangle.err"
    fs untangle --graph "$g.txt" --positions "$g.pos" --format svg \
        --out "$g.untangled.svg" 2> /dev/null
done

fs gen --family star --n 9 --out star9.txt
fs freeset --graph star9.txt --method level --out star9.level.fs
fs freeset --graph mop80.txt --method outerplanar --out mop80.outer.fs
fs freeset --graph rt200.txt --target 0,3,5,8,13,21,34,55,89,144 \
    --out rt200.target.fs

# halves with bridges and faces that repeat a vertex: the planar sets of a
# path, a cycle and a fan, the level set of the star and the outerplanar set
# of mop80, each realized as text on general points
fs gen --family path --n 12 --out path12.txt
fs gen --family cycle --n 15 --out cycle15.txt
fs gen --family fan --n 12 --out fan12.txt
for g in path12 cycle15 fan12; do
    fs freeset --graph "$g.txt" --out "$g.fs"
done
for pair in "path12 path12" "cycle15 cycle15" "fan12 fan12" \
            "star9 star9.level" "mop80 mop80.outer"; do
    set -- $pair
    k=$(members "$2.fs")
    seed=$((seed + 1))
    points general "$k" "$seed" > "$2.general.pts"
    fs realize --graph "$1.txt" --freeset "$2.fs" \
        --points "$2.general.pts" --out "$2.general.txt"
done

# every point on y = 0: the zero lift of rt60's and path12's sets, in text
# and svg (a fixed seed, so the runs above keep theirs)
for g in rt60 path12; do
    points axis "$(members "$g.fs")" 500 > "$g.axis.pts"
    fs realize --graph "$g.txt" --freeset "$g.fs" --points "$g.axis.pts" \
        --out "$g.axis.txt"
    fs realize --graph "$g.txt" --freeset "$g.fs" --points "$g.axis.pts" \
        --format svg --out "$g.axis.svg"
done

# a crossing-free input comes back as given, every vertex fixed
python3 -c 'print("\n".join(f"{v % 7} {-(v // 7)}" for v in range(42)))' \
    > grid6x7.plane.pos
fs untangle --graph grid6x7.txt --positions grid6x7.plane.pos \
    --out grid6x7.plane.txt 2> grid6x7.plane.err
fs untangle --graph grid6x7.txt --positions grid6x7.plane.pos --format svg \
    --out grid6x7.plane.svg 2> /dev/null

# two rows that every shear t < 30² folds onto each other: the least t is
# past the 60 tries made one by one
python3 -c 'print("\n".join(f"{30 * v} 0" if v < 30 else f"{30 - v} 1"
                             for v in range(60)))' > rt60.rows.pos
fs untangle --graph rt60.txt --positions rt60.rows.pos \
    --out rt60.rows.txt 2> rt60.rows.err
fs untangle --graph rt60.txt --positions rt60.rows.pos --format svg \
    --out rt60.rows.svg 2> /dev/null

for s in 31 32 33; do
    fs gen --family random-triangulation --n 30 --seed "$s" --out "p$s.txt"
done
fs psge --graphs p31.txt --graphs p32.txt --outdir psge2
fs psge --graphs p31.txt --graphs p32.txt --graphs p33.txt --outdir psge3

fs gen --family random-triangulation --n 40 --seed 41 --out s40.txt
fs gen --family random-triangulation --n 6 --seed 42 --out s6.txt
fs gen --family cycle --n 3 --out c3.txt
fs sge-nomap --g1 s40.txt --g2 s6.txt --outdir sge6
fs sge-nomap --g1 s40.txt --g2 c3.txt --outdir sge3

fs oracle --graph rt60.txt --mode falsify --trials 20 --seed 7 \
    | sed 's/, [0-9.]*s\]$/]/' > rt60.falsify
fs bench --quick | sed 's/"observed": "[0-9.]* s"/"observed": "-"/' \
    > bench-quick.jsonl

# hand-written drawings, read by verify and svg: tokens not in lowest
# terms, negative denominators, + signs, numerators past 4,300 digits,
# comments and blank lines, bends naming their edge either way round,
# duplicate lines and bad tokens; and a realized drawing rewritten with
# every coordinate as 6p/6q.  Each run's stdout, stderr and exit code are
# kept; a failing svg run writes no svg.  long-num's points are beyond the
# float range, so its svg run ends in an error line.
printf 'V 4\nR 0: 1 3 2\nR 1: 2 3 0\nR 2: 0 3 1\nR 3: 2 0 1\nOUTER: 0 1 2\n' \
    > k4.txt
long=$(python3 -c 'print("1" + "0" * 5000 + "7")')
k4='P 0 0 0\nP 1 4 0\nP 2 0 4\nP 3 1 1\n'
mkdir hand
hand() { printf '%b' "$2" > "hand/$1.txt"; }
hand lowest "$k4"
hand not-reduced 'P 0 0/5 0/9\nP 1 8/2 0/7\nP 2 0/3 12/3\nP 3 2/2 3/3\n'
hand negative-den 'P 0 0/-1 0\nP 1 -4/-1 0/-5\nP 2 0 4/1\nP 3 1/-3 -1/-3\n'
hand plus-signs 'P 0 +0 -0\nP 1 +4/+1 +0/-2\nP 2 0 +8/2\nP 3 +1/+3 1/+3\n'
head="P 0 0 0\nP 1 $long/3 0\nP 2 0 $long/7\n"
hand long-num "${head}P 3 $long/31 $long/37\nB 0 1 $long/6 -$long/11\n"
hand long-den "P 0 0 0\nP 1 4 0\nP 2 0 4\nP 3 1/$long 1/$long\n"
head='# a drawing\n\nP 0 0 0 # origin\n   \nP 1 4 0\n'
hand comments "${head}#P 4 1 1\nP 2 0 4\n\tP 3 1 1\n"
hand bend-low-first "${k4}B 0 1 2 -1\n"
hand bend-high-first "${k4}B 1 0 2/2 -3/3\n"
hand bends-both-ways "${k4}B 1 0 1 -1\nB 0 1 3 -1\n"
hand bend-on-vertex "${k4}B 1 0 0 4\n"
hand duplicate-bend "${k4}B 0 1 2 -1\nB 0 1 2 -1\n"
hand duplicate-vertex "${k4}P 2 0 4\n"
hand coincident 'P 0 0 0\nP 1 4 0\nP 2 0 4\nP 3 0/2 0/3\n'
hand crossing 'P 0 0 0\nP 1 4 0\nP 2 0 4\nP 3 10 10\n'
hand missing-vertex 'P 0 0 0\nP 1 4 0\nP 3 1 1\n'
hand zero-den 'P 0 0 0\nP 1 4/0 0\n'
hand empty-num 'P 0 /2 0\n'
hand two-slashes 'P 0 1/2/3 0\n'
hand decimal 'P 0 0.5 0\n'
hand underscores 'P 0 1_0/2_0 0\nP 1 4 0\nP 2 0 4\nP 3 1 1\n'
hand long-bad "P 0 1/${long}x 0\n"
hand unknown 'P 0 0 0\nQ 0 1 2\n'
hand bad-id 'P x 1 2\n'
hand not-an-edge 'P 0 0 0\nP 1 4 0\nB 0 9 1 1\n'
python3 -c '
import sys
for line in open(sys.argv[1]):
    *head, x, y = line.split()
    print(*head, *("/".join(str(6 * int(t)) for t in c.split("/"))
                   for c in (x, y)))
' rt60.general.txt > hand/rt60-times-6.txt
for f in hand/*.txt; do
    b=${f%.txt}
    g=k4.txt
    case $b in hand/rt60*) g=rt60.txt ;; esac
    code=0
    fs verify --graph "$g" --drawing "$f" > "$b.verify" 2> "$b.verify.err" \
        || code=$?
    echo "$code" > "$b.verify.code"
    code=0
    fs svg --graph "$g" --drawing "$f" --out "$b.svg" 2> "$b.svg.err" \
        || code=$?
    echo "$code" > "$b.svg.code"
done

find . -type f ! -name SHA256SUMS | LC_ALL=C sort | xargs sha256sum \
    > SHA256SUMS
echo "$(wc -l < SHA256SUMS) files digested in $OUT/SHA256SUMS" >&2
