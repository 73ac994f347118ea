"""Compare the portraits of two output directories of ``payload_hashes.py --keep``.

    PYTHONPATH=src python tools/payload_hashes.py --keep old   # at one commit
    PYTHONPATH=src python tools/payload_hashes.py --keep new   # at another
    PYTHONPATH=src python tools/compare_portraits.py old new

For each run with a ``portrait.json`` in either directory it prints each
report that changed: a report not kept byte-identical is paired with the
nearest changed report of the same kind in the other run, and the pair's
location move and relative changes of lambda and of each eigenvalue are
printed; the reports left unpaired are printed as removed and added (kind
and location).  It prints the trajectories kept
byte-identical (and whether in the same order), those that changed only in
their last row (each with the largest change in that row), dropped and new,
and for each dropped trajectory its nearest kept partner: a kept trajectory
of the same family whose seed lies within ``flow._LOOP_TOL`` (max-norm) of
its seed, at the smallest Hausdorff distance of their (u, v) samples.  Per
singular set it prints the polylines kept byte-identical, those changed
(each with its largest vertex move), dropped and new.

The nearest kept partner is another trajectory, not a lane's own new
version.  So where both runs have as many trajectories, it also compares
them lane by lane, by index: how many lanes changed; among the changed lanes
that kept their sample count, the largest move in (u, v) and in arclength;
and each lane whose sample count or termination changed, with its old and
new values.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from affasym.flow import _LOOP_TOL


def _load(path):
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _relative(a, b):
    """|b - a| / |a|, 0.0 when a = b, inf when only a is 0."""
    return 0.0 if a == b else abs(b - a) / abs(a) if a else math.inf


def compare_reports(old, new):
    """The lines describing the changes from the reports ``old`` to ``new``:
    each changed old report, in order, paired with the nearest unpaired
    changed new report of its kind."""
    _, fresh, gone = _match(old, new)
    lines, removed = [], []
    for k in gone:
        a = old[k]
        near = [(math.dist(a["location"], new[m]["location"]), m) for m in fresh
                if new[m]["kind"] == a["kind"]]
        if not near:
            removed.append(k)
            continue
        move, m = min(near)
        fresh.remove(m)
        b = new[m]
        text = f"  report changed: {a['kind']} ({a['location'][0]:.6g}, {a['location'][1]:.6g}):" \
            f" location move {move:.3g}"
        if "lambda_invariant" in a and "lambda_invariant" in b:
            text += f", lambda {_relative(a['lambda_invariant'], b['lambda_invariant']):.3g}"
        za, zb = ([complex(*z) for z in r["eigenvalues"]] for r in (a, b))
        if len(za) == len(zb):
            text += "".join(f", eigenvalue {_relative(x, y):.3g}" for x, y in zip(za, zb))
        else:
            text += f", {len(za)} -> {len(zb)} eigenvalues"
        lines.append(text)
    for label, reps, ks in (("removed", old, removed), ("added", new, fresh)):
        for k in ks:
            u, v = reps[k]["location"]
            lines.append(f"  report {label}: {reps[k]['kind']} ({u:.6g}, {v:.6g})")
    return lines


def _text(traj):
    return json.dumps(traj, sort_keys=True)


_COLUMNS = ("u", "v", "slope", "chart", "arclength")


def hausdorff(a, b, block=512):
    """Hausdorff distance of two (n, 2) point sets, in blocks of rows."""
    def directed(p, q):
        return max(float(np.min(np.hypot(p[i:i + block, None, 0] - q[None, :, 0],
                                         p[i:i + block, None, 1] - q[None, :, 1]), axis=1).max())
                   for i in range(0, len(p), block))
    return max(directed(a, b), directed(b, a))


def _match(olds, news):
    """The items of ``news`` matched to those of ``olds`` by their text,
    first unmatched occurrence first: the (old, new) index pairs kept, the
    new indices left unmatched and the old ones."""
    pool = {}
    for k, t in enumerate(olds):
        pool.setdefault(_text(t), []).append(k)
    kept, fresh = [], []
    for k, t in enumerate(news):
        same = pool.get(_text(t))
        if same:
            kept.append((same.pop(0), k))
        else:
            fresh.append(k)
    return kept, fresh, sorted(k for ks in pool.values() for k in ks)


def compare_sets(old, new):
    """The lines describing the changes from the ``singular_sets`` ``old`` to
    ``new``, per set.  A new polyline that is not byte-identical to an old
    one is changed if an unmatched old polyline has as many vertices: the one
    whose largest vertex move (Euclidean, in (u, v)) is smallest."""
    lines = []
    for name in sorted(set(old) | set(new)):
        olds, news = old.get(name, []), new.get(name, [])
        kept, fresh, dropped = _match(olds, news)
        changed = []
        for m in list(fresh):
            b = np.asarray(news[m], dtype=float)
            moves = [(float(np.max(np.hypot(*(b - olds[k]).T))), k)
                     for k in dropped if len(olds[k]) == len(b)]
            if moves:
                move, k = min(moves)
                changed.append((k, m, move))
                dropped.remove(k)
                fresh.remove(m)
        lines.append(f"  {name} polylines: {len(kept)} kept byte-identical, {len(changed)}"
                     f" changed, {len(dropped)} dropped, {len(fresh)} new")
        for k, m, move in changed:
            lines.append(f"  {name} {k} -> {m} ({len(olds[k])} vertices):"
                         f" largest vertex move {move:.3g}")
        for label, polys, ks in (("dropped", olds, dropped), ("new", news, fresh)):
            for k in ks:
                u, v = polys[k][0]
                lines.append(f"  {name} {label} {k} ({len(polys[k])} vertices,"
                             f" from ({u:.6g}, {v:.6g}))")
    return lines


def compare(old, new):
    """The lines describing the changes from portrait ``old`` to ``new``."""
    lines = compare_reports(old["reports"], new["reports"])
    olds, news = old["trajectories"], new["trajectories"]
    kept, fresh, dropped = _match(olds, news)
    # a dropped and a new trajectory of one family that agree in every row
    # but the last
    last = []
    for m in list(fresh):
        t = news[m]
        k = next((k for k in dropped if olds[k]["family"] == t["family"]
                  and len(olds[k]["samples"]) == len(t["samples"])
                  and olds[k]["samples"][:-1] == t["samples"][:-1]), None)
        if k is not None:
            last.append((k, m))
            dropped.remove(k)
            fresh.remove(m)
    order = [k for k, _ in kept] == sorted(k for k, _ in kept)
    lines.append(f"  trajectories: {len(kept)} kept byte-identical"
                 f" ({'same' if order else 'other'} order), {len(last)} changed only in"
                 f" the last row, {len(dropped)} dropped, {len(fresh)} new")
    for k, m in last:
        a, b = olds[k], news[m]
        change = np.abs(np.subtract(b["samples"][-1], a["samples"][-1]))
        col = int(np.argmax(change))
        ends = a["termination"] + ("" if a["termination"] == b["termination"]
                                   else f" -> {b['termination']}")
        lines.append(f"  last row of {k} -> {m} ({a['family']}, seed"
                     f" ({a['samples'][0][0]:.6g}, {a['samples'][0][1]:.6g}),"
                     f" {len(a['samples'])} samples, {ends}): largest change"
                     f" {change[col]:.3g} in {_COLUMNS[col]}")
    for k in dropped:
        t = olds[k]
        pts = np.asarray(t["samples"], dtype=float)[:, :2]
        best = None
        for j, _ in kept:
            other = olds[j]
            seed = np.asarray(other["samples"][0][:2], dtype=float)
            if other["family"] != t["family"] or np.max(np.abs(seed - pts[0])) >= _LOOP_TOL:
                continue
            d = hausdorff(pts, np.asarray(other["samples"], dtype=float)[:, :2])
            if best is None or d < best[1]:
                best = (j, d)
        where = (f"kept {best[0]} at Hausdorff {best[1]:.3g}" if best
                 else "no kept partner")
        lines.append(f"  dropped {k} ({t['family']}, seed ({pts[0, 0]:.6g}, {pts[0, 1]:.6g}),"
                     f" {len(pts)} samples): {where}")
    return lines + compare_sets(old["singular_sets"], new["singular_sets"])


def compare_lanes(olds, news):
    """The lines comparing the trajectories ``olds`` and ``news`` lane by
    lane, by index, or none if their counts differ.  A lane's move is its
    largest change over its samples: Euclidean in (u, v), absolute in
    arclength."""
    if len(olds) != len(news):
        return []
    changed = [k for k, (a, b) in enumerate(zip(olds, news)) if _text(a) != _text(b)]
    moves, ends = [], []
    for k in changed:
        a, b = olds[k], news[k]
        if len(a["samples"]) == len(b["samples"]):
            d = np.subtract(b["samples"], a["samples"])
            moves.append((float(np.max(np.hypot(d[:, 0], d[:, 1]))),
                          float(np.max(np.abs(d[:, 4]))), k))
        if len(a["samples"]) != len(b["samples"]) or a["termination"] != b["termination"]:
            ends.append(k)
    lines = [f"  lanes by index: {len(changed)} of {len(olds)} changed, {len(moves)} of them"
             f" with the same sample count"]
    if moves:
        uv, _, k = max(moves)
        s, j = max((m[1], m[2]) for m in moves)
        lines.append(f"  largest move at the same sample count: {uv:.3g} in (u, v)"
                     f" (lane {k}), {s:.3g} in arclength (lane {j})")
    for k in ends:
        (na, ta), (nb, tb) = ((len(t["samples"]), t["termination"]) for t in (olds[k], news[k]))
        lines.append(f"  lane {k} ({olds[k]['family']}): {na}" + (f" -> {nb}" if nb != na else "")
                     + f" samples, {ta}" + (f" -> {tb}" if tb != ta else ""))
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old", help="output directory of the earlier run")
    ap.add_argument("new", help="output directory of the later run")
    args = ap.parse_args(argv)
    runs = sorted(set(os.listdir(args.old)) | set(os.listdir(args.new)))
    for run in runs:
        old, new = (_load(os.path.join(d, run, "portrait.json")) for d in (args.old, args.new))
        if old is None and new is None:
            continue
        print(run)
        if old is None or new is None:
            print(f"  only in {args.new if old is None else args.old}")
            continue
        print("\n".join(compare(old, new)
                        + compare_lanes(old["trajectories"], new["trajectories"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
