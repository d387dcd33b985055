"""Whether this checkout's src/ writes the same run directories as REV's.

Usage: python tools/same_bytes.py [REV]      (REV defaults to HEAD)

`git archive REV src` is extracted into a temporary directory.  Then
each side, REV's src and this checkout's, runs one round of every
benchmark workload (bench/workloads.py, read as it stands in this
checkout) at --size tiny and full with bench seed 4, in a fresh Python
process.  The two trees of run directories are compared file by file,
byte for byte.  The script prints the number of files and each file
that differs or is on one side only, and exits 0 only when the trees
are identical; a round with a failed operation exits 2.
"""

import filecmp
import os
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 4

# one side: every workload at both sizes, run directories under argv[2]
_SIDE = """
import os, sys
import spintex
from workloads import WORKLOADS, make_plan, run_round
src, root = sys.argv[1:]
if os.path.dirname(os.path.dirname(spintex.__file__)) != src:
    sys.exit(f"imported {spintex.__file__}, not the package under {src}")
for size in ("tiny", "full"):
    for w in WORKLOADS:
        rnd = run_round(make_plan(w, %d, size), os.path.join(root, size, w))
        for op, msg in rnd.errors.items():
            sys.exit(f"{size} {w}: {op} failed: {msg}")
""" % SEED


def run_side(label: str, src: str, root: str) -> None:
    print(f"running {label} ...", flush=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.path.join(REPO, "bench")]))
    done = subprocess.run([sys.executable, "-c", _SIDE, src, root], env=env)
    if done.returncode:
        sys.exit(2)


def files_under(root: str) -> set:
    return {os.path.relpath(os.path.join(path, name), root)
            for path, _, names in os.walk(root) for name in names}


def main(rev: str = "HEAD") -> int:
    with tempfile.TemporaryDirectory(prefix="same_bytes_") as tmp:
        archive = subprocess.run(["git", "-C", REPO, "archive", rev, "src"],
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        a, b = os.path.join(tmp, "runs_rev"), os.path.join(tmp, "runs_tree")
        run_side(rev, os.path.join(tmp, "src"), a)
        run_side("this checkout", os.path.join(REPO, "src"), b)
        old, new = files_under(a), files_under(b)
        bad = [f"only in {rev}: {f}" for f in sorted(old - new)]
        bad += [f"only in this checkout: {f}" for f in sorted(new - old)]
        bad += [f"differs: {f}" for f in sorted(old & new)
                if not filecmp.cmp(os.path.join(a, f), os.path.join(b, f),
                                   shallow=False)]
    for line in bad:
        print(line)
    print(f"{len(old | new)} files, {len(bad)} not identical")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:2]))
