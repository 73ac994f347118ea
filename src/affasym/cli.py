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
--eps1 +-1``.  A command accepts only the flags it reads (``_COMMANDS``,
``_SOURCES``) and passes on only the values given, so each default is the library's.

Exit codes: 0 success, 1 verification failures, 2 configuration errors,
3 mathematical domain failures: any ArithmeticError or EvalError, each
command running with numpy's overflow and invalid operations raising.  Payload
outputs carry no timestamps; a sidecar ``run_info.json`` records the
invocation and the wall time of each stage.
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

# bde, flow, singular, conormal and checks are imported by the commands that
# run them, so that each command loads only the modules it uses
from . import affine, surface as surface_mod
from .jsontext import float_texts, json_at, json_records
from .surface import ParseError

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_CONFIG = 2
EXIT_MATH = 3


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are configuration errors."""

    def error(self, message):
        raise ConfigError(message)


def _ascii(convert):
    """``convert`` (int or float) of ASCII text only: both also read other
    scripts' digits, which the expression parser refuses."""
    def read(text):
        if not text.isascii():
            raise ValueError(f"not an ASCII number: {text!r}")
        return convert(text)
    read.__name__ = convert.__name__    # argparse names the type in its message
    return read


_int, _float = _ascii(int), _ascii(float)
# how argparse reads each flag that is not text; a flag not given reads None
_FLAG_SPECS = {"--tol": {"action": "append"}, "--q": {"action": "append"},
               "--R": {"type": _float}, "--r": {"type": _float}, "--sigma": {"type": _float},
               "--epsilon": {"type": _int}, "--eps1": {"type": _int, "choices": (1, -1)},
               "--lam": {"type": _float}, "--bde": {"choices": ("folded", "morse")}}
_CATALOG_FLAGS = ("--R", "--r", "--epsilon", "--sigma", "--q")
_SURFACE_FLAGS = ("--surface", "--region", *_CATALOG_FLAGS)
# the flags each command reads, and its --tol keys, each named after the
# library parameter it sets (trace_res sets build_portrait's trace_resolution)
_COMMANDS = {"analyze": ((*_SURFACE_FLAGS, "--res", "--format", "--tol", "--out"), ("guard",)),
             "portrait": ((*_SURFACE_FLAGS, "--bde", "--lam", "--eps1", "--res", "--format",
                           "--tol", "--out"), ("rel_tol", "max_len", "trace_res")),
             "conormal": ((*_SURFACE_FLAGS, "--res", "--tol", "--out"), ("margin", "norm_cap")),
             "verify": ((), ())}
# the flags each kind of surface or model field reads (--region serves all)
_SOURCES = {"--surface catalog:": ("--surface", *_CATALOG_FLAGS),
            "--surface monge:": ("--surface",), "--surface file:": ("--surface",),
            "--bde folded": ("--bde", "--lam"), "--bde morse": ("--bde", "--eps1")}


def _check_source_flags(args):
    """ConfigError naming the flags given that the surface or field kind does not read."""
    given = [f for f in _COMMANDS[args.command][0] if getattr(args, f[2:]) is not None]
    kind = f"--bde {args.bde}" if "--bde" in given else \
        f"--surface {args.surface.split(':', 1)[0]}:" if "--surface" in given else None
    named = {f for flags in _SOURCES.values() for f in flags}
    stray = [f for f in given if f in named and f not in _SOURCES.get(kind, named)]
    if stray:
        raise ConfigError(f"{args.command} with {kind} does not read {', '.join(stray)}")


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
        bounds = [_float(x) for x in text.split(",")]
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
        nx, ny = (_int(x) for x in text.split("x", 1)) if "x" in text else (_int(text),) * 2
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
            ij, x = (_int(key[0]), _int(key[1:])), _float(val)
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
    if kind == "monge":
        try:
            return surface_mod.monge_surface(rest, args.region)
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
            return surface_mod.catalog_surface(rest, params, args.region)
        except ValueError as exc:
            raise ConfigError(str(exc))
    raise ConfigError(f"unknown surface kind {kind!r}")


def _tolerances(args):
    keys = _COMMANDS[args.command][1]
    tol = {}
    for item in args.tol or ():
        try:
            key, val = item.split("=", 1)
            tol[key] = _float(val)
        except ValueError:
            raise ConfigError(f"--tol wants key=value; got {item!r}")
        if key not in keys:
            raise ConfigError(f"unknown --tol key {key!r} for {args.command}; "
                              f"known keys: {', '.join(keys)}")
        if not (math.isfinite(tol[key]) and tol[key] > 0):
            raise ConfigError(f"tolerance {key} must be positive and finite; got {val!r}")
        if key == "trace_res" and tol[key] != int(tol[key]):
            raise ConfigError(f"tolerance trace_res must be a whole number; got {val!r}")
    return tol


def _write_run_info(outdir, args, **extra):
    info = {
        "argv": args.argv,
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
    region = args.region or surf.domain
    res = _parse_res(args.res or "32")
    formats = _formats(args, "json", ("json", "csv"))
    tol = _tolerances(args)
    t_start = time.perf_counter()
    us, vs = _analysis_grid(surf, region, res)
    U, V = np.meshgrid(us, vs, indexing="ij")  # u-major point order
    try:
        data = affine.affine_point_data(surf, U.ravel(), V.ravel(), **tol)
    except affine.ParabolicPointError as exc:
        u, v = exc.point
        print(f"domain failure at (u, v) = ({u:.6g}, {v:.6g}): {exc}", file=sys.stderr)
        return EXIT_MATH
    flat = np.maximum(np.maximum(np.abs(data.l), np.abs(data.m)), np.abs(data.n)) \
        < affine.FLAT_UMBILIC_TOL
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


_CSV_COLUMNS = tuple(c for c in affine.AffinePointData.FIELDS if c not in affine._VECTORS)


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
    given = {"trace_resolution": int(tol.pop("trace_res"))} if "trace_res" in tol else {}
    if args.res:
        given["grid"] = _parse_res(args.res)
    formats = _formats(args, "svg,json", ("svg", "json"))
    if args.bde == "folded":
        if args.lam is None:
            raise ConfigError("--bde folded needs --lam")
        if not math.isfinite(args.lam):
            raise ConfigError(f"--lam must be finite; got {args.lam}")
        source = bde.folded_model_field(args.lam)
    elif args.bde == "morse":
        source = bde.morse_model_field(args.eps1 or 1)
    else:
        source = _build_surface(args)
    portrait = flow.build_portrait(source, args.region, params=flow.IntegrationParams(**tol),
                                   **given)
    t_write = time.perf_counter()
    outdir = args.out or "."
    os.makedirs(outdir, exist_ok=True)
    if "svg" in formats:
        _atomic_write(os.path.join(outdir, "portrait.svg"), flow.portrait_svg(portrait))
    if "json" in formats:
        _atomic_write(os.path.join(outdir, "portrait.json"), portrait.to_json())
    stages = dict(portrait.stage_seconds, write=time.perf_counter() - t_write)
    _write_run_info(outdir, args, integration=portrait.integration.to_json_dict(),
                    stage_seconds=stages)
    print(f"portrait: {len(portrait.trajectories)} trajectories, "
          f"{sum(len(p) for p in portrait.singular_sets.values())} singular components, "
          f"{len(portrait.reports)} reports -> {outdir}")
    return EXIT_OK


# -- conormal ------------------------------------------------------------------


def _halton(n, base):
    """Points 1..n of the van der Corput sequence in ``base``, in (0, 1)."""
    k, x, f = np.arange(1, n + 1), np.zeros(n), 1.0
    while k.any():
        f /= base
        x += f * (k % base)
        k //= base
    return x


def cmd_conormal(args):
    from . import conormal

    surf = _build_surface(args)
    region = args.region or surf.domain
    given = {"resolution": _parse_res(args.res)} if args.res else {}
    tol = _tolerances(args)
    margin = tol.get("margin", conormal.MARGIN)
    t_mesh = time.perf_counter()
    src, mesh = conormal.conormal_mesh(surf, region, **given, **tol)
    t_verify = time.perf_counter()
    # the first 64 of 4096 Halton points (bases 2, 3) that keep clear of the excluded strips
    uv = np.column_stack([region.u0 + (region.u1 - region.u0) * _halton(4096, 2),
                          region.v0 + (region.v1 - region.v0) * _halton(4096, 3)])
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
    ap = _Parser(prog="affasym", description="affine asymptotic-line toolkit", allow_abbrev=False)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, fn in (("analyze", cmd_analyze), ("portrait", cmd_portrait),
                     ("conormal", cmd_conormal), ("verify", cmd_verify)):
        p = sub.add_parser(name, allow_abbrev=False)
        p.set_defaults(fn=fn)
        for flag in _COMMANDS[name][0]:
            p.add_argument(flag, **_FLAG_SPECS.get(flag, {}))
    return ap


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        try:
            args = _make_parser().parse_args(argv)
        except SystemExit:    # --help printed its text
            return EXIT_OK
        args.argv = argv    # run_info.json records the arguments parsed
        _check_source_flags(args)
        if hasattr(args, "region"):    # verify has no --region
            args.region = _parse_region(args.region) if args.region else None
        with np.errstate(over="raise", invalid="raise"):
            return args.fn(args)
    except (ConfigError, ParseError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError:
        print("configuration error: out of memory; lower --res or trace_res", file=sys.stderr)
        return EXIT_CONFIG
    except (ArithmeticError, surface_mod.EvalError) as exc:
        print(f"domain failure: {exc}", file=sys.stderr)
        return EXIT_MATH
