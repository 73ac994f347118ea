"""sha256 of the payloads of a fixed set of affasym commands.

Runs each command below in this process through ``affasym.cli.main`` and
prints one ``sha256  path`` line per payload file, in a fixed order.
``run_info.json`` holds timestamps and wall times, so it is not hashed
whole: of a portrait run only its ``integration`` block (the counters and
what was dropped) is, as ``json.dumps(..., sort_keys=True)``, under the
name ``NAME/run_info.json:integration``.
The set is the one whose payloads must stay byte-identical under a change
that claims not to move them: the five portrait-cusp design points and one
draw whose reports share a ring of seeds, torus, pick, the two model fields,
a polynomial Monge chart, both flat umbilic charts, a torus window whose
lanes close their loops, a transcendental Monge chart, three parametric
charts given as ``file:`` configs written to the temporary directory (a
generic one, one whose extended field crosses the parabolic set
LN - M^2 = 0, and a non-polynomial graph), analyze of that graph, and
analyze and conormal on a torus, each once within one block of evaluated
lanes and once over several (``affine._LANES``; the larger conormal run is
the benchmark's grid-torus command), conormal on two torus windows that
each span one period only (so only one axis of the component labelling
wraps), and analyze and conormal on a polynomial Monge chart over several
blocks, and analyze of two Monge charts that divide: one by a jet that is
not constant, one by a constant only.  The transcendental and
non-polynomial runs pin the jet route of the surface fields, and the two
dividing charts pin the jet division of the ``Jet2`` walk
(``jets.jet_div``) and of a compiled program; every other surface run has
polynomial fields.  The morse, flat umbilic +1 and torus-loops runs pin the
integrator's searches of a step for a degenerate pass or a closed loop.
The 29 commands print 83 lines: 65 files and the 18 portraits'
``integration`` blocks.

    PYTHONPATH=src python tools/payload_hashes.py > hashes.txt
    PYTHONPATH=src python tools/payload_hashes.py --against hashes.txt

``--against FILE`` compares with an earlier output of this script and exits
1 on any difference.  Each command runs with warnings turned into errors; a
command that warns or does not exit 0 exits 1 as well.  The outputs go to a
temporary directory, deleted at the end, or with ``--keep DIR`` to DIR, kept
there (``tools/compare_portraits.py`` compares two such directories).
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
import warnings

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
    # a draw near design point 4 whose parabolic meeting lies one trace cell
    # from the cusp of Gauss and the fold: its report joins their ring of seeds
    ("cusp-q21=0.894058-q40=0.350283",
     ["portrait", "--surface", "catalog:cusp_gauss", "--q", "21=0.894058", "--q", "40=0.350283",
      "--res", "4"]),
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
    # 868 searches of a step for a pass of the totally degenerate umbilic
    ("flat-umbilic-eps1", ["portrait", "--surface", "catalog:flat_umbilic_chart",
                           "--epsilon=1"]),
    # eight searches of a step for the closest approach to the seed, and
    # eight lanes that end closed_loop
    ("torus-loops", ["portrait", "--surface", "catalog:torus", "--R", "2", "--r", "1",
                     "--region=0,6.283185307179586,-0.5,7.0", "--res", "3x7",
                     "--tol", "trace_res=96", "--tol", "max_len=9.0"]),
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
    # windows spanning the period of u only, and of v only: one wrapped axis each
    ("conormal-torus-u-period", ["conormal", "--surface", "catalog:torus", "--R", "3",
                                 "--r", "1", "--region=0,6.283185307179586,0,3"]),
    ("conormal-torus-v-period", ["conormal", "--surface", "catalog:torus", "--R", "3",
                                 "--r", "1", "--region=1,6,0,6.283185307179586"]),
    # a polynomial chart's position jets over 9,216 points: two full blocks
    # and a ragged third
    *[(f"{cmd}-monge-poly-res96",
       [cmd, "--surface", "monge:u^2+2*v^2+0.3*u^3+0.2*u*v^2", "--region=-0.5,0.5,-0.5,0.5",
        "--res", "96", *fmt]) for cmd, fmt in (("analyze", ["--format", "json,csv"]),
                                                ("conormal", []))],
    # a division by a jet that is not constant, which only the Jet2 walk
    # runs, and a division by a constant, which the compiled program runs
    ("analyze-monge-jet-div", ["analyze", "--surface",
                               "monge:u^2/(2+v)+v^2+0.2*tan(0.5*u)*v", "--res", "8"]),
    ("analyze-monge-const-div", ["analyze", "--surface", "monge:u^2+v^2+sin(u)*v/3",
                                 "--res", "8"]),
]


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def hash_runs(outdir):
    """Run the commands into ``outdir``; returns the ``sha256  path`` lines
    and, per command that warned or did not exit 0, its name and why."""
    lines, failed = [], []
    for fname, cfg in _CONFIGS:
        with open(os.path.join(outdir, fname), "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
    for name, argv in RUNS:
        out = os.path.join(outdir, name)
        argv = [a.format(tmp=outdir) for a in argv]
        with contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                code = cli.main(argv + ["--out", out])
            except Warning as exc:
                failed.append((name, f"warned: {type(exc).__name__}: {exc}"))
                continue
        if code != 0:
            failed.append((name, f"exited {code}"))
            continue
        for fname in sorted(os.listdir(out)):
            path = os.path.join(out, fname)
            if fname != "run_info.json":
                lines.append(f"{_sha256(path)}  {name}/{fname}")
                continue
            with open(path, encoding="utf-8") as fh:
                info = json.load(fh)
            if "integration" in info:
                text = json.dumps(info["integration"], sort_keys=True).encode()
                lines.append(f"{hashlib.sha256(text).hexdigest()}  {name}/{fname}:integration")
    return lines, failed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--against", help="earlier output of this script to compare with")
    ap.add_argument("--keep", metavar="DIR", help="write the outputs to DIR and keep them")
    args = ap.parse_args(argv)
    if args.keep:
        os.makedirs(args.keep, exist_ok=True)
    with contextlib.nullcontext(args.keep) if args.keep else tempfile.TemporaryDirectory() \
            as outdir:
        lines, failed = hash_runs(outdir)
    print("\n".join(lines))
    status = 0
    for name, why in failed:
        print(f"FAILED: {name} {why}", file=sys.stderr)
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
