"""Command-line front end.

Subcommands::

    analyze    pointwise invariants over a sample grid (JSON/CSV)
    portrait   phase portrait of the asymptotic net (SVG + JSON)
    conormal   OBJ meshes of the surface and its conormal image + report
    verify     numeric self-check battery (TAP output)

Surfaces are given as ``--surface catalog:ID`` (with catalog parameters
``--R --r --epsilon --sigma --q ij=value``), ``--surface monge:EXPR``, or
``--surface file:PATH`` (JSON config; see surface module).  Synthetic model
fields for ``portrait`` come from ``--bde folded --lam L`` or ``--bde morse
--eps1 +-1``.

Exit codes: 0 success, 1 verification failures, 2 configuration errors,
3 mathematical domain failures.  Payload outputs carry no timestamps; a
sidecar ``run_info.json`` records the invocation and the wall time of each
stage.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import time

import numpy as np

# bde, flow, singular and checks are imported by the commands that run them,
# so that analyze and conormal load only the modules they use
from . import affine, conormal, surface as surface_mod
from .jets import JetDomainError
from .jsontext import float_texts, json_at, json_records
from .surface import ParseError, Rect

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_CONFIG = 2
EXIT_MATH = 3


class ConfigError(ValueError):
    pass


def _atomic_write(path, chunks):
    """Write an iterable of text chunks to ``path`` through a temporary file,
    which a failed write removes, leaving ``path`` untouched."""
    tmp = f"{path}.tmp-{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _parse_region(text):
    try:
        bounds = [float(x) for x in text.split(",")]
    except ValueError:
        bounds = []
    if len(bounds) != 4:
        raise ConfigError(f"--region needs u0,u1,v0,v1; got {text!r}")
    try:
        return surface_mod.rect(bounds)
    except ValueError as exc:
        raise ConfigError(f"--region: {exc}")


def _parse_res(text):
    try:
        nx, ny = (int(x) for x in text.split("x", 1)) if "x" in text else (int(text),) * 2
    except ValueError:
        raise ConfigError(f"--res needs N or NxM; got {text!r}")
    if nx < 1 or ny < 1:
        raise ConfigError(f"--res must be positive; got {text!r}")
    return nx, ny


def _formats(args, default, known):
    formats = (args.format or default).split(",")
    unknown = [f for f in formats if f not in known]
    if unknown:
        raise ConfigError(f"--format cannot write {','.join(unknown)!r}; "
                          f"choose from {','.join(known)}")
    return formats


def _parse_q(items):
    q = {}
    for item in items or ():
        try:
            key, val = item.split("=", 1)
            key = key.replace(",", "")
            ij, x = (int(key[0]), int(key[1:])), float(val)
        except (ValueError, IndexError):
            raise ConfigError(f"--q wants ij=value (e.g. 21=1.5); got {item!r}")
        q[ij] = x
    return q


def _build_surface(args):
    spec = args.surface
    if spec is None:
        raise ConfigError("--surface is required for this command")
    if ":" not in spec:
        raise ConfigError("--surface must be catalog:ID, monge:EXPR, or file:PATH")
    kind, rest = spec.split(":", 1)
    region = _parse_region(args.region) if args.region else None
    if kind == "monge":
        try:
            return surface_mod.monge_surface(rest, region or Rect(-1, 1, -1, 1))
        except ParseError as exc:
            raise ConfigError(f"bad expression: {exc}")
    if kind == "file":
        try:
            return surface_mod.load_surface_config(rest)
        except (OSError, ValueError, KeyError) as exc:
            raise ConfigError(f"bad surface config {rest!r}: {exc}")
    if kind == "catalog":
        # the flags given, as they are: catalog_surface applies the defaults
        # and rejects a parameter that its id does not take
        params = {k: getattr(args, k) for k in ("R", "r", "epsilon", "sigma")
                  if getattr(args, k) is not None}
        if args.q:
            params["q"] = _parse_q(args.q)
        try:
            return surface_mod.catalog_surface(rest, params, region)
        except ValueError as exc:
            raise ConfigError(str(exc))
    raise ConfigError(f"unknown surface kind {kind!r}")


# the --tol keys each command reads
_TOL_KEYS = {"analyze": ("guard", "k_zero_tol", "degenerate"),
             "portrait": ("rel_tol", "lift_tol", "max_len", "trace_res"),
             "conormal": ("margin", "norm_cap")}


def _tolerances(args):
    keys = _TOL_KEYS.get(args.command, ())
    tol = {}
    for item in args.tol or ():
        try:
            key, val = item.split("=", 1)
            tol[key] = float(val)
        except ValueError:
            raise ConfigError(f"--tol wants key=value; got {item!r}")
        if key not in keys:
            raise ConfigError(f"unknown --tol key {key!r} for {args.command}; "
                              f"known keys: {', '.join(keys) or 'none'}")
        if not (math.isfinite(tol[key]) and tol[key] > 0):
            raise ConfigError(f"tolerance {key} must be positive and finite; got {val!r}")
        if key == "trace_res" and tol[key] != int(tol[key]):
            raise ConfigError(f"tolerance trace_res must be a whole number; got {val!r}")
    return tol


def _write_run_info(outdir, args, **extra):
    info = {
        "argv": sys.argv[1:],
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        **extra,
    }
    _atomic_write(os.path.join(outdir, "run_info.json"), (json.dumps(info, indent=1) + "\n",))


# -- analyze -------------------------------------------------------------------


def _analysis_grid(surf, region, res):
    nx, ny = res
    us = np.linspace(region.u0, region.u1, nx + 2)[1:-1]
    vs = np.linspace(region.v0, region.v1, ny + 2)[1:-1]
    # nudge samples out of excluded strips so every grid point yields a row
    for band in surf.excluded:
        xs = us if band.axis == "u" else vs
        inside = np.abs(xs - band.center) < band.halfwidth
        shift = np.where(xs >= band.center, band.center + 1.05 * band.halfwidth,
                         band.center - 1.05 * band.halfwidth)
        xs[inside] = shift[inside]
    return us, vs


def cmd_analyze(args):
    surf = _build_surface(args)
    region = _parse_region(args.region) if args.region else surf.domain
    res = _parse_res(args.res or "32")
    formats = _formats(args, "json", ("json", "csv"))
    tol = _tolerances(args)
    guard = tol.get("guard", 1e-9)
    kzero = tol.get("k_zero_tol", affine.K_ZERO_TOL)
    t_start = time.perf_counter()
    us, vs = _analysis_grid(surf, region, res)
    U, V = np.meshgrid(us, vs, indexing="ij")  # u-major point order
    try:
        data = affine.affine_point_data(surf, U.ravel(), V.ravel(), guard=guard,
                                        k_zero_tol=kzero)
    except affine.ParabolicPointError as exc:
        u, v = exc.point
        print(f"domain failure at (u, v) = ({u:.6g}, {v:.6g}): {exc}", file=sys.stderr)
        return EXIT_MATH
    flat = np.maximum(np.maximum(np.abs(data.l), np.abs(data.m)), np.abs(data.n)) \
        < tol.get("degenerate", 1e-8)
    t_write = time.perf_counter()
    outdir = args.out or "."
    os.makedirs(outdir, exist_ok=True)
    if "json" in formats:
        _atomic_write(os.path.join(outdir, "analyze.json"), _analyze_json(data, flat))
    if "csv" in formats:
        _atomic_write(os.path.join(outdir, "analyze.csv"), _analyze_csv(data))
    _write_run_info(outdir, args, stage_seconds={"evaluate": t_write - t_start,
                                                 "write": time.perf_counter() - t_write})
    print(f"analyze: wrote {U.size} rows to {outdir}")
    return EXIT_OK


def _analyze_json(data, flat):
    """analyze.json in chunks: the text of ``json.dumps(rows, indent=1,
    sort_keys=True)`` and a newline for the rows ``data.to_json_dict(k)``,
    written from the column arrays in blocks of ``affine._LANES`` rows.  A
    row with a flag or a non-finite value goes through json.dumps."""
    columns = data.json_columns()
    for b, s in enumerate(affine._lane_blocks(len(flat))):
        block = [(name, c[..., s]) for name, c in columns]
        floats = np.vstack([np.reshape(c, (-1, len(flat[s]))) for _, c in block
                            if c.dtype.kind == "f"])
        apart = {}
        for k in np.flatnonzero(flat[s] | ~np.isfinite(floats).all(axis=0)).tolist():
            row = data.to_json_dict(s.start + k)
            if flat[s.start + k]:
                row["flags"] = ["flat_affine_umbilic"]
            apart[k] = json_at(row, 1)
        # the block's rows without the list's closing "\n]", after "[" or ","
        yield ("," if b else "[") + json_records(block, 0, apart)[1:-2]
    yield "\n]\n"


_CSV_COLUMNS = ("u", "v", "E", "F", "G", "Ldet", "Mdet", "Ndet", "K", "euclid_class",
                "g11", "g12", "g22", "l", "m", "n", "b11", "b12", "b21", "b22",
                "K_aff", "H_aff", "aff_class")


def _analyze_csv(data):
    """analyze.csv in chunks: a header, then one line per point of str() of
    each value, in blocks of ``affine._LANES`` points."""
    cols = [getattr(data, c) for c in _CSV_COLUMNS]
    yield ",".join(_CSV_COLUMNS) + "\n"
    for s in affine._lane_blocks(len(cols[0])):
        texts = [float_texts(c[s]) if c.dtype.kind == "f" else c[s].tolist() for c in cols]
        yield "".join(line + "\n" for line in map(",".join, zip(*texts)))


# -- portrait ------------------------------------------------------------------


def cmd_portrait(args):
    from . import bde, flow

    tol = _tolerances(args)
    params = flow.IntegrationParams(
        rel_tol=tol.get("rel_tol", 1e-8),
        lift_tol=tol.get("lift_tol", 1e-8),
        max_len=tol.get("max_len", 20.0),
    )
    res = _parse_res(args.res or "12")
    formats = _formats(args, "svg,json", ("svg", "json"))
    trace_res = int(tol.get("trace_res", 192))
    if args.bde:
        region = _parse_region(args.region) if args.region else Rect(-1, 1, -1, 1)
        if args.bde == "folded":
            if args.lam is None:
                raise ConfigError("--bde folded needs --lam")
            if not math.isfinite(args.lam):
                raise ConfigError(f"--lam must be finite; got {args.lam}")
            fld = bde.folded_model_field(args.lam, region)
        elif args.bde == "morse":
            fld = bde.morse_model_field(args.eps1 or 1, region)
        else:
            raise ConfigError(f"unknown synthetic bde {args.bde!r}")
        portrait = flow.build_portrait(fld, region, grid=res, params=params,
                                       trace_resolution=trace_res)
    else:
        surf = _build_surface(args)
        region = _parse_region(args.region) if args.region else surf.domain
        portrait = flow.build_portrait(surf, region, grid=res, params=params,
                                       trace_resolution=trace_res)
    t_write = time.perf_counter()
    outdir = args.out or "."
    os.makedirs(outdir, exist_ok=True)
    if "svg" in formats:
        _atomic_write(os.path.join(outdir, "portrait.svg"), (flow.portrait_svg(portrait),))
    if "json" in formats:
        _atomic_write(os.path.join(outdir, "portrait.json"), (portrait.to_json() + "\n",))
    stages = dict(portrait.stage_seconds, write=time.perf_counter() - t_write)
    _write_run_info(outdir, args, integration=portrait.integration.to_json_dict(),
                    stage_seconds=stages)
    print(f"portrait: {len(portrait.trajectories)} trajectories, "
          f"{sum(len(p) for p in portrait.singular_sets.values())} singular components, "
          f"{len(portrait.reports)} reports -> {outdir}")
    return EXIT_OK


# -- conormal ------------------------------------------------------------------


def cmd_conormal(args):
    surf = _build_surface(args)
    region = _parse_region(args.region) if args.region else surf.domain
    res = _parse_res(args.res or "48")
    tol = _tolerances(args)
    margin = tol.get("margin", 0.05)
    t_mesh = time.perf_counter()
    src, mesh = conormal.conormal_mesh(surf, region, res, margin=margin,
                                       norm_cap=tol.get("norm_cap", 1e3))
    t_verify = time.perf_counter()
    # the first 64 of 4096 seeded draws that keep clear of the excluded strips
    uv = np.random.default_rng(20260808).uniform((region.u0, region.v0),
                                                 (region.u1, region.v1), (4096, 2))
    keep = np.ones(len(uv), dtype=bool)
    for band in surf.excluded:
        keep &= np.abs(uv[:, int(band.axis == "v")] - band.center) >= max(band.halfwidth, margin)
    samples = [tuple(p) for p in uv[keep][:64].tolist()]
    report = conormal.verify_conormal_correspondence(surf, samples)
    t_export = time.perf_counter()
    outdir = args.out or "."
    os.makedirs(outdir, exist_ok=True)
    _atomic_write(os.path.join(outdir, "conormal.obj"), conormal.export_mesh(mesh))
    _atomic_write(os.path.join(outdir, "source.obj"), conormal.export_mesh(src))
    _atomic_write(os.path.join(outdir, "correspondence.json"),
                  (json.dumps(report, indent=1) + "\n",))
    _atomic_write(os.path.join(outdir, "correspondence.csv"),
                  (conormal.correspondence_report_csv(report),))
    _write_run_info(outdir, args, stage_seconds={"mesh": t_verify - t_mesh,
                                                 "verify": t_export - t_verify,
                                                 "export": time.perf_counter() - t_export})
    worst = max((r["residual"] for r in report if not r["degenerate"]), default=0.0)
    print(f"conormal: {mesh.n_components} components, {len(mesh.vertices)} vertices, "
          f"worst proportionality residual {worst:.3e} -> {outdir}")
    return EXIT_OK


# -- verify --------------------------------------------------------------------


def cmd_verify(args):
    from . import checks

    _tolerances(args)    # verify reads no --tol key
    print(f"1..{len(checks.CHECKS)}")
    failures = 0
    for k, (name, fn) in enumerate(checks.CHECKS, 1):
        try:
            fn()
            print(f"ok {k} - {name}")
        except Exception as exc:  # a missed bound, or a genuine error
            failures += 1
            why = exc if isinstance(exc, AssertionError) else f"{type(exc).__name__}: {exc}"
            print(f"not ok {k} - {name}: {why}")
    return EXIT_VERIFY_FAIL if failures else EXIT_OK


# -- entry ---------------------------------------------------------------------


def _make_parser():
    ap = argparse.ArgumentParser(prog="affasym",
                                 description="affine asymptotic-line toolkit")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, fn in (("analyze", cmd_analyze), ("portrait", cmd_portrait),
                     ("conormal", cmd_conormal), ("verify", cmd_verify)):
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        p.add_argument("--surface")
        p.add_argument("--region")
        p.add_argument("--res")
        p.add_argument("--tol", action="append")
        p.add_argument("--out")
        p.add_argument("--format")
        p.add_argument("--R", type=float)
        p.add_argument("--r", type=float)
        p.add_argument("--epsilon", type=int)
        p.add_argument("--sigma", type=float)
        p.add_argument("--q", action="append")
        if name == "portrait":
            p.add_argument("--bde", choices=("folded", "morse"))
            p.add_argument("--lam", "--lambda", dest="lam", type=float)
            p.add_argument("--eps1", type=int, choices=(1, -1))
    return ap


def main(argv=None):
    ap = _make_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ParseError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (affine.ParabolicPointError, affine.DegenerateImmersionError,
            conormal.ImmersionError, JetDomainError, surface_mod.EvalError) as exc:
        print(f"domain failure: {exc}", file=sys.stderr)
        return EXIT_MATH


if __name__ == "__main__":
    sys.exit(main())
