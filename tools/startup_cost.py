"""Start-up cost of affasym, one fresh process per sample.

    python tools/startup_cost.py --src src
    python tools/startup_cost.py --src src --against OTHER/src --pairs 15

Times three commands, each in a fresh interpreter: the benchmark's set-up
command (``from affasym import bde, surface`` and the extended field of the
workload's seed-0 surface) for the torus and for the cusp of Gauss, and
``import affasym.cli``, which every ``python -m affasym`` command runs
before its work.  Each command runs twice per sample, once on each of two
copies of ``SRC/affasym`` made in a temporary directory: one without
bytecode files (``no cache``: every module is compiled from source, as in
the benchmark's children when the environment sets
``PYTHONDONTWRITEBYTECODE``, which they inherit) and one compiled by
``compileall`` (``cache``).  Both run with ``PYTHONDONTWRITEBYTECODE=1``.

A sample records two times: the process's wall time, as the benchmark's
``setup_s`` measures it, and, timed inside the process, the command's own
time after ``import numpy`` (imported first), which is affasym's share.
With ``--pairs N`` alone it takes N samples of the tree; ``--against
OTHER_SRC`` takes N pairs, one sample per tree, the tree that goes first
alternating from pair to pair.  It prints per tree, copy and command the
median and quartiles of both times, with the pairs that each tree won.
"""

from __future__ import annotations

import argparse
import compileall
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

# (name, code) of each command; the surfaces are bench/workloads.py's seed 0
COMMANDS = (
    ("setup torus", "from affasym import bde, surface; bde.extended_field_for("
                    "surface.catalog_surface('torus', {'R': 3.0, 'r': 1.0}))"),
    ("setup cusp", "from affasym import bde, surface; bde.extended_field_for("
                   "surface.catalog_surface('cusp_gauss', {'q': {(2, 1): 1.0, (4, 0): 0.1}}))"),
    ("import cli", "import affasym.cli"),
)
MODES = ("no cache", "cache")
_TIMED = ("import time; import numpy; t = time.perf_counter(); {code}; "
          "print(time.perf_counter() - t)")


def _copies(src, root):
    """{mode: directory holding a copy of SRC/affasym}: no bytecode, or compiled."""
    paths = {}
    for mode in MODES:
        paths[mode] = os.path.join(root, mode.replace(" ", "-"))
        shutil.copytree(os.path.join(src, "affasym"), os.path.join(paths[mode], "affasym"),
                        ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
    if not compileall.compile_dir(paths["cache"], quiet=1):
        raise SystemExit(f"compileall failed on {src}")
    return paths


def _sample(path, code, cwd):
    """(wall ms, ms after import numpy) of one fresh process running ``code``."""
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", _TIMED.format(code=code)], cwd=cwd, env=env,
                         capture_output=True, text=True, check=True).stdout
    return (time.perf_counter() - t0) * 1e3, float(out) * 1e3


def _quartiles(xs):
    return statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3


def measure(srcs, pairs):
    """runs[tree][(mode, command)]: the (wall ms, own ms) of each pair."""
    runs = [{(m, name): [] for m in MODES for name, _ in COMMANDS} for _ in srcs]
    with tempfile.TemporaryDirectory() as root:
        copies = [_copies(src, os.path.join(root, str(t))) for t, src in enumerate(srcs)]
        for k in range(pairs):
            order = range(len(srcs))[::-1] if k % 2 else range(len(srcs))
            for mode in MODES:
                for name, code in COMMANDS:
                    for t in order:
                        runs[t][mode, name].append(_sample(copies[t][mode], code, root))
                print(f"pair {k + 1:2d} {mode:8s} wall ms " + "  ".join(
                    f"{src}: " + " ".join(f"{runs[t][mode, n][-1][0]:6.1f}" for n, _ in COMMANDS)
                    for t, src in enumerate(srcs)), flush=True)
    return runs


def report(srcs, runs, pairs):
    for mode in MODES:
        for name, _ in COMMANDS:
            for col, label in ((0, "wall"), (1, "after numpy")):
                for t, src in enumerate(srcs):
                    xs = [r[col] for r in runs[t][mode, name]]
                    q1, q2, q3 = _quartiles(xs)
                    line = (f"{mode:8s} {name:11s} {label:11s} {src}: median {q2:6.1f} ms, "
                            f"quartiles {q1:6.1f} {q3:6.1f}")
                    if len(srcs) == 2:
                        other = [r[col] for r in runs[1 - t][mode, name]]
                        wins = sum(a < b for a, b in zip(xs, other))
                        line += f", won {wins} of {pairs} pairs"
                    print(line)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default="src", help="the src tree to copy affasym from")
    ap.add_argument("--against", metavar="OTHER_SRC", help="a second src tree to compare with")
    ap.add_argument("--pairs", type=int, default=10, help="samples, or pairs for --against")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    srcs = [args.src, args.against] if args.against else [args.src]
    report(srcs, measure(srcs, args.pairs), args.pairs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
