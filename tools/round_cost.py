"""Cost of one lockstep Cash-Karp round of ``flow.integrate_many``, in process.

    python tools/round_cost.py --src src
    python tools/round_cost.py --src OTHER/src --repeat 5
    python tools/round_cost.py --src src --against OTHER/src --pairs 10

Imports affasym from the given ``src`` tree and runs, in this one process,
the five seed-0 portrait-cusp commands (``catalog:cusp_gauss`` at the
design points of the benchmark's portrait-cusp workload, ``--res 4``) and
the cusp-law lane of ``tests/test_flow.py`` (one lane from (-0.12, 0) on the
extended field of a generic pick graph, both sweeps, ``max_step_frac``
5e-4).  Per case it prints the ``integrate`` seconds (the fastest of
``--repeat`` runs, the one least disturbed by other load), the lockstep
rounds and the microseconds per round, then the sums over the five portraits, and a sha256 of every
case's ``integration`` counters, so that two trees can be checked to do the
same work.

``--against OTHER_SRC --pairs N`` compares two trees: it runs N pairs of
processes, one per tree, the tree that goes first alternating from pair to
pair, and prints per tree the median and quartiles of the five portraits'
and the cusp-law lane's microseconds per round and the pairs that each tree
won.  It exits 1 if the two trees' counter digests differ.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

# (|q21|, q40) of the portrait-cusp design points, seed 0
_CUSP = ((1.0, 0.1), (1.5, 0.4), (1.3, -0.3), (0.9, 0.35), (0.85, -0.2))


def _portrait(cli, argv, outdir):
    """(integrate seconds, integration counters) of one portrait command."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv + ["--out", outdir])
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    with open(os.path.join(outdir, "run_info.json"), encoding="utf-8") as fh:
        info = json.load(fh)
    return info["stage_seconds"]["integrate"], info["integration"]


def _cusp_law(flow, sf, bde):
    """(integrate seconds, integration counters) of the cusp-law lane, both
    sweeps, each integrated alone."""
    eps, sigma, q13, q40 = 1, 0.9, 0.3, 0.5
    surf = sf.catalog_surface("pick", {
        "epsilon": eps, "sigma": sigma,
        "q": {(1, 3): q13, (3, 1): -eps * q13,
              (2, 2): -eps * (-2 * sigma ** 2 + q40), (4, 0): q40,
              (0, 4): q40 + 1.0}}, domain=sf.Rect(-0.35, 0.35, -0.35, 0.35))
    fld = bde.extended_field_for(surf)
    params = flow.IntegrationParams(max_len=0.6, max_step_frac=5e-4, max_steps=6000)
    stats = flow.IntegrationStats()
    t0 = time.perf_counter()
    for sweep in (1, -1):
        flow.integrate_many(fld, [((-0.12, 0.0), "plus", sweep)], params, stats)
    return time.perf_counter() - t0, stats.to_json_dict()


def _line(name, seconds, rounds):
    print(f"{name:26s} integrate {seconds:8.4f} s  rounds {rounds:6d}  "
          f"{seconds / rounds * 1e6:8.1f} us/round")


def _child(src, repeat):
    """(five-portrait us/round, cusp-law us/round, counters sha256) of one
    process importing affasym from ``src``."""
    out = subprocess.run([sys.executable, os.path.abspath(__file__), "--src", src,
                          "--repeat", str(repeat)],
                         capture_output=True, text=True, check=True).stdout
    per_round = {ln[:26].strip(): float(ln.split()[-2])
                 for ln in out.splitlines() if ln.endswith("us/round")}
    return (per_round["five portraits"], per_round["cusp-law lane"],
            out.split("counters sha256 ")[1].split()[0])


def _compare(srcs, pairs, repeat):
    """Alternating process pairs of the two trees ``srcs``; 1 if their
    counter digests differ."""
    runs = {src: [] for src in srcs}
    for k in range(pairs):
        for src in srcs[::-1] if k % 2 else srcs:
            runs[src].append(_child(src, repeat))
        print(f"pair {k + 1:2d}  " + "  ".join(
            f"{src}: {runs[src][-1][0]:7.1f} {runs[src][-1][1]:7.1f}" for src in srcs),
            flush=True)
    for col, name in ((0, "five portraits"), (1, "cusp-law lane")):
        for src in srcs:
            q1, q2, q3 = statistics.quantiles([r[col] for r in runs[src]], n=4)
            other = srcs[1] if src == srcs[0] else srcs[0]
            wins = sum(a[col] < b[col] for a, b in zip(runs[src], runs[other]))
            print(f"{name:15s} {src}: median {q2:7.1f} us/round, quartiles {q1:7.1f} "
                  f"{q3:7.1f}, won {wins} of {pairs} pairs")
    digests = {src: {r[2] for r in runs[src]} for src in srcs}
    for src in srcs:
        print(f"counters sha256 {src}: {' '.join(sorted(digests[src]))}")
    return int(digests[srcs[0]] != digests[srcs[1]])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default="src", help="the src tree to import affasym from")
    ap.add_argument("--repeat", type=int, default=3, help="runs per case (the fastest counts)")
    ap.add_argument("--against", metavar="OTHER_SRC", help="a second src tree to compare with")
    ap.add_argument("--pairs", type=int, default=10, help="process pairs for --against")
    args = ap.parse_args(argv)
    if args.against and args.pairs < 2:
        ap.error("--pairs must be at least 2 for quartiles")
    if args.against:
        return _compare([args.src, args.against], args.pairs, args.repeat)
    sys.path.insert(0, os.path.abspath(args.src))
    from affasym import bde, cli, flow, surface as sf

    cases = [(f"cusp q21={a} q40={b}",
              ["portrait", "--surface", "catalog:cusp_gauss", "--q", f"21={a}",
               "--q", f"40={b}", "--res", "4"]) for a, b in _CUSP]
    total_s = total_rounds = 0
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as outdir:
        for name, cmd in cases + [("cusp-law lane", None)]:
            runs = [_portrait(cli, cmd, outdir) if cmd else _cusp_law(flow, sf, bde)
                    for _ in range(args.repeat)]
            seconds = min(s for s, _ in runs)
            counters = runs[0][1]
            rounds = counters["rounds"]
            digest.update(json.dumps(counters, sort_keys=True).encode())
            _line(name, seconds, rounds)
            if cmd:
                total_s += seconds
                total_rounds += rounds
    _line("five portraits", total_s, total_rounds)
    print(f"counters sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
