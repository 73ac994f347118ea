"""sha256 of the payloads of a fixed set of affasym commands.

Runs each command below in this process through ``affasym.cli.main`` and
prints one ``sha256  path`` line per payload file, in a fixed order.
``run_info.json`` holds timestamps and wall times, so it is not hashed.
The set is the one whose payloads must stay byte-identical under a change
that claims not to move them: the five portrait-cusp design points, torus,
pick, the two model fields, a polynomial Monge chart, a flat umbilic chart,
a transcendental Monge chart, three parametric charts given as ``file:``
configs written to the temporary directory (a generic one, one whose
extended field crosses the parabolic set LN - M^2 = 0, and a
non-polynomial graph), analyze of that graph, and analyze and conormal on a
torus, each once within one block of evaluated lanes and once over several
(``affine._LANES``; the larger conormal run is the benchmark's grid-torus
command).  The transcendental and non-polynomial runs pin the jet route of
the surface fields; every other surface run has polynomial fields.

    PYTHONPATH=src python tools/payload_hashes.py > hashes.txt
    PYTHONPATH=src python tools/payload_hashes.py --against hashes.txt

``--against FILE`` compares with an earlier output of this script and exits
1 on any difference; a failed command exits 1 as well.  The outputs go to
a temporary directory, deleted at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

from affasym import cli

# (|q21|, q40) of the portrait-cusp design points (bench/workloads.py CUSP_DESIGN)
_CUSP = ((1.0, 0.1), (1.5, 0.4), (1.3, -0.3), (0.9, 0.35), (0.85, -0.2))

# a parametric chart with no special case: the generic parametric extended field
_PARAMETRIC = {"kind": "parametric",
               "exprs": ["u", "v", "0.5*u^2-0.5*v^2+0.3*u^3+0.2*u*v^2+0.1*u^4"],
               "domain": [-0.5, 0.5, -0.5, 0.5]}
# the graph of u^3 + v^2 as a parametric chart: parabolic along u = 0
_PARABOLIC = {"kind": "parametric", "exprs": ["u", "v", "u^3+v^2"],
              "domain": [-0.5, 0.5, -0.5, 0.5]}
# a graph over (u + 0.1 sin v, v): no component is a polynomial field
_NONPOLY = {"kind": "parametric", "exprs": ["u + 0.1*sin(v)", "v", "0.5*u^2+v^2+0.2*u^3"],
            "domain": [-0.5, 0.5, -0.5, 0.5]}
_CONFIGS = (("parametric.json", _PARAMETRIC), ("parabolic.json", _PARABOLIC),
            ("nonpoly.json", _NONPOLY))

RUNS = [
    *[(f"cusp-q21={a}-q40={b}",
       ["portrait", "--surface", "catalog:cusp_gauss", "--q", f"21={a}", "--q", f"40={b}",
        "--res", "4"]) for a, b in _CUSP],
    ("torus-R2-r1", ["portrait", "--surface", "catalog:torus", "--R", "2", "--r", "1",
                     "--res", "4"]),
    ("pick", ["portrait", "--surface", "catalog:pick", "--epsilon", "1", "--sigma", "0.9",
              "--q", "40=0.5", "--q", "04=1.5", "--q", "22=1.12", "--res", "2"]),
    ("folded-lam-1", ["portrait", "--bde", "folded", "--lam", "-1"]),
    ("morse-eps1-1", ["portrait", "--bde", "morse", "--eps1", "-1"]),
    ("monge-poly", ["portrait", "--surface", "monge:u^3 - u*v^2 + 0.2*v^4",
                    "--region=-0.5,0.5,-0.5,0.5", "--res", "3"]),
    ("flat-umbilic-eps-1", ["portrait", "--surface", "catalog:flat_umbilic_chart",
                            "--epsilon=-1"]),
    ("file-parametric", ["portrait", "--surface", "file:{tmp}/parametric.json", "--res", "2",
                         "--tol", "trace_res=48", "--tol", "max_len=1.0"]),
    ("file-parabolic", ["portrait", "--surface", "file:{tmp}/parabolic.json", "--res", "2",
                        "--tol", "trace_res=48"]),
    ("monge-nonpoly", ["portrait", "--surface", "monge:u^3+v^2+0.1*sin(u+v)",
                       "--region=-0.5,0.5,-0.5,0.5", "--res", "2", "--tol", "trace_res=48"]),
    ("file-nonpoly", ["portrait", "--surface", "file:{tmp}/nonpoly.json", "--res", "2"]),
    ("analyze-file-nonpoly", ["analyze", "--surface", "file:{tmp}/nonpoly.json",
                              "--res", "16"]),
    ("analyze-torus-R3-r1", ["analyze", "--surface", "catalog:torus", "--R", "3", "--r", "1",
                             "--res", "32", "--format", "json,csv"]),
    ("conormal-torus-R3-r1", ["conormal", "--surface", "catalog:torus", "--R", "3", "--r", "1"]),
    # 9,216 points: two full blocks of 4096 lanes and a ragged third
    ("analyze-torus-R3-r1-res96", ["analyze", "--surface", "catalog:torus", "--R", "3",
                                   "--r", "1", "--res", "96", "--format", "json,csv"]),
    # 35,712 mesh vertices, nine blocks
    ("conormal-torus-R3-r1-res192", ["conormal", "--surface", "catalog:torus", "--R", "3",
                                     "--r", "1", "--res", "192"]),
]


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def hash_runs(outdir):
    """Run the commands into ``outdir``; returns the ``sha256  path`` lines
    and the names of the commands that did not exit 0."""
    lines, failed = [], []
    for fname, cfg in _CONFIGS:
        with open(os.path.join(outdir, fname), "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
    for name, argv in RUNS:
        out = os.path.join(outdir, name)
        argv = [a.format(tmp=outdir) for a in argv]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv + ["--out", out])
        if code != 0:
            failed.append(name)
            continue
        for fname in sorted(os.listdir(out)):
            if fname != "run_info.json":
                lines.append(f"{_sha256(os.path.join(out, fname))}  {name}/{fname}")
    return lines, failed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--against", help="earlier output of this script to compare with")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as outdir:
        lines, failed = hash_runs(outdir)
    print("\n".join(lines))
    status = 0
    for name in failed:
        print(f"FAILED: {name} did not exit 0", file=sys.stderr)
        status = 1
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            ref = dict(ln.split("  ", 1)[::-1] for ln in fh.read().splitlines() if "  " in ln)
        got = dict(ln.split("  ", 1)[::-1] for ln in lines)
        for path in sorted(set(ref) | set(got)):
            if ref.get(path) != got.get(path):
                print(f"DIFFERS: {path} {ref.get(path)} -> {got.get(path)}", file=sys.stderr)
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
