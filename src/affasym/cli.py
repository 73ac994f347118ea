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
import json
import math
import os
import sys
import time

import numpy as np

# bde, flow and singular are imported by the commands that run them, so that
# analyze and conormal load only the modules they use
from . import affine, conormal, surface as surface_mod
from .jets import Jet2, JetDomainError
from .jsontext import float_texts, json_at, json_records
from .surface import ParseError, Rect

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_CONFIG = 2
EXIT_MATH = 3


class ConfigError(ValueError):
    pass


def _atomic_write(path, text):
    tmp = f"{path}.tmp-{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _parse_region(text):
    try:
        u0, u1, v0, v1 = (float(x) for x in text.split(","))
    except ValueError:
        raise ConfigError(f"--region needs u0,u1,v0,v1; got {text!r}")
    if not (u0 < u1 and v0 < v1):
        raise ConfigError("region rectangle is degenerate")
    return Rect(u0, u1, v0, v1)


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
            q[(int(key[0]), int(key[1:]))] = float(val)
        except (ValueError, IndexError):
            raise ConfigError(f"--q wants ij=value (e.g. 21=1.5); got {item!r}")
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
        params = {}
        if rest == "torus":
            if args.R is None or args.r is None:
                raise ConfigError("catalog:torus needs --R and --r")
            params = {"R": args.R, "r": args.r}
        elif rest == "pick":
            params = {"epsilon": args.epsilon if args.epsilon is not None else 1,
                      "sigma": args.sigma or 0.0, "q": _parse_q(args.q)}
        elif rest in ("cusp_gauss", "flat_umbilic_chart"):
            params = {"q": _parse_q(args.q)}
            if rest == "flat_umbilic_chart":
                params["epsilon"] = args.epsilon if args.epsilon is not None else 1
        else:
            raise ConfigError(f"unknown catalog id {rest!r}")
        try:
            return surface_mod.catalog_surface(rest, params, region)
        except ValueError as exc:
            raise ConfigError(str(exc))
    raise ConfigError(f"unknown surface kind {kind!r}")


def _tolerances(args):
    tol = {}
    for item in args.tol or ():
        try:
            key, val = item.split("=", 1)
            tol[key] = float(val)
        except ValueError:
            raise ConfigError(f"--tol wants key=value; got {item!r}")
    for key, val in tol.items():
        if val <= 0:
            raise ConfigError(f"tolerance {key} must be positive")
    return tol


def _write_run_info(outdir, args, **extra):
    info = {
        "argv": sys.argv[1:],
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        **extra,
    }
    _atomic_write(os.path.join(outdir, "run_info.json"), json.dumps(info, indent=1) + "\n")


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
        _atomic_write(os.path.join(outdir, "analyze.json"), _analyze_json(data, flat) + "\n")
    if "csv" in formats:
        _atomic_write(os.path.join(outdir, "analyze.csv"), _analyze_csv(data))
    _write_run_info(outdir, args, stage_seconds={"evaluate": t_write - t_start,
                                                 "write": time.perf_counter() - t_write})
    print(f"analyze: wrote {U.size} rows to {outdir}")
    return EXIT_OK


def _analyze_json(data, flat):
    """The text of ``json.dumps(rows, indent=1, sort_keys=True)`` for the
    rows ``data.to_json_dict(k)``, written from the column arrays.  A row
    with a flag or a non-finite value goes through json.dumps."""
    columns = data.json_columns()
    floats = np.vstack([np.reshape(c, (-1, len(flat))) for _, c in columns
                        if c.dtype.kind == "f"])
    apart = {}
    for k in np.flatnonzero(flat | ~np.isfinite(floats).all(axis=0)).tolist():
        row = data.to_json_dict(k)
        if flat[k]:
            row["flags"] = ["flat_affine_umbilic"]
        apart[k] = json_at(row, 1)
    return json_records(columns, 0, apart)


_CSV_COLUMNS = ("u", "v", "E", "F", "G", "Ldet", "Mdet", "Ndet", "K", "euclid_class",
                "g11", "g12", "g22", "l", "m", "n", "b11", "b12", "b21", "b22",
                "K_aff", "H_aff", "aff_class")


def _analyze_csv(data):
    """analyze.csv: a header, then one line per point of str() of each value."""
    cols = [getattr(data, c) for c in _CSV_COLUMNS]
    texts = [float_texts(c) if c.dtype.kind == "f" else c.tolist() for c in cols]
    return "\n".join([",".join(_CSV_COLUMNS), *map(",".join, zip(*texts))]) + "\n"


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
        _atomic_write(os.path.join(outdir, "portrait.svg"), flow.portrait_svg(portrait))
    if "json" in formats:
        _atomic_write(os.path.join(outdir, "portrait.json"), portrait.to_json() + "\n")
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
    rng = np.random.default_rng(20260808)
    samples = []
    tries = 0
    while len(samples) < 64 and tries < 4096:
        tries += 1
        u = float(rng.uniform(region.u0, region.u1))
        v = float(rng.uniform(region.v0, region.v1))
        ok = True
        for band in surf.excluded:
            x = u if band.axis == "u" else v
            if abs(x - band.center) < max(band.halfwidth, margin):
                ok = False
        if ok:
            samples.append((u, v))
    report = conormal.verify_conormal_correspondence(surf, samples)
    t_export = time.perf_counter()
    outdir = args.out or "."
    os.makedirs(outdir, exist_ok=True)
    _atomic_write(os.path.join(outdir, "conormal.obj"), conormal.export_mesh(mesh))
    _atomic_write(os.path.join(outdir, "source.obj"), conormal.export_mesh(src))
    _atomic_write(os.path.join(outdir, "correspondence.json"),
                  json.dumps(report, indent=1) + "\n")
    _atomic_write(os.path.join(outdir, "correspondence.csv"),
                  conormal.correspondence_report_csv(report))
    _write_run_info(outdir, args, stage_seconds={"mesh": t_verify - t_mesh,
                                                 "verify": t_export - t_verify,
                                                 "export": time.perf_counter() - t_export})
    worst = max((r["residual"] for r in report if not r["degenerate"]), default=0.0)
    print(f"conormal: {mesh.n_components} components, {len(mesh.vertices)} vertices, "
          f"worst proportionality residual {worst:.3e} -> {outdir}")
    return EXIT_OK


# -- verify --------------------------------------------------------------------


def _verify_checks():
    """Numeric cross-checks of the documented identities; (name, fn) pairs."""
    from . import bde, singular

    def check_torus_closed_forms():
        rng = np.random.default_rng(11)
        for (R, r) in ((2.0, 1.0), (3.0, 1.0), (5.0, 2.0)):
            surf = surface_mod.catalog_surface("torus", {"R": R, "r": r})
            for _ in range(8):
                u = float(rng.uniform(0, 2 * math.pi))
                if min(abs(u - math.pi / 2), abs(u - 3 * math.pi / 2)) < 0.05:
                    continue
                v = float(rng.uniform(0, 2 * math.pi))
                fr = affine.frame_jets(surf, u, v, order=4)
                trip = np.array([float(c.value) for c in affine.lmn_from_frame(fr)])
                closed = np.array([float(x) for x in affine.torus_extended_bde(R, r, u)])
                t = float(trip @ closed / (closed @ closed))
                assert t > 0, f"factor not positive at u={u}"
                resid = float(np.linalg.norm(trip - t * closed) / np.linalg.norm(trip))
                assert resid < 1e-7, f"residual {resid} at u={u}"
        lb, mb, nb = affine.torus_extended_bde(2.0, 1.0, math.pi / 2)
        assert abs(lb + 3 * 2.0 ** 2) < 1e-12 and abs(nb) < 1e-12

    def check_pick_constants():
        rng = np.random.default_rng(5)
        for eps in (1, -1):
            for _ in range(5):
                sig = float(rng.uniform(-1.5, 1.5))
                q = {k: float(rng.uniform(-2, 2)) for k in
                     ((4, 0), (3, 1), (2, 2), (1, 3), (0, 4))}
                surf = surface_mod.catalog_surface(
                    "pick", {"epsilon": eps, "sigma": sig, "q": q})
                l, m, n = affine.monge_lmn_closed_form(surf.height_jet(0.0, 0.0))
                le = -sig ** 2 / 2 + q[(4, 0)] / 4 + eps * q[(2, 2)] / 4
                me = (q[(3, 1)] + eps * q[(1, 3)]) / 4
                ne = -eps * sig ** 2 / 2 + q[(2, 2)] / 4 + eps * q[(0, 4)] / 4
                assert max(abs(l - le), abs(m - me), abs(n - ne)) < 1e-9

    def check_folded_family():
        for lam, kind in ((-1.0, "folded_saddle"), (1 / 32, "folded_node"),
                          (1.0, "folded_focus")):
            fld = bde.folded_model_field(lam)
            rep = singular.classify_folded(fld, (0.0, 0.0))
            assert rep.kind == kind, f"lam={lam}: {rep.kind}"
            assert abs(rep.lambda_invariant - lam) < 1e-6
            mu = rep.eigenvalues[0]
            expect = (1 + complex(1 - 16 * lam) ** 0.5) / 2
            assert abs(complex(mu) - expect) < 1e-6

    def check_morse_models():
        rep = singular.classify_flat_affine_umbilic(bde.morse_model_field(-1), (0.0, 0.0))
        eig = sorted(float(z.real) for z in map(complex, rep.eigenvalues))
        assert rep.kind == "morse_crossing" and np.allclose(eig, [-3.0, 2.0], atol=1e-6)
        rep = singular.classify_flat_affine_umbilic(bde.morse_model_field(1), (0.0, 0.0))
        slopes = sorted(rep.details["lifted_slopes"])
        assert rep.kind == "morse_isolated"
        assert np.allclose(slopes, [-math.sqrt(3), 0.0, math.sqrt(3)], atol=1e-6)

    def check_cusp_origin():
        rng = np.random.default_rng(3)
        for _ in range(5):
            q21 = float(rng.uniform(0.5, 2.0)) * (1 if rng.uniform() < 0.5 else -1)
            q40 = float(rng.uniform(-1.0, 1.0))
            if abs(q21 * q21 - 4 * q40) < 1e-3:
                continue
            surf = surface_mod.catalog_surface("cusp_gauss", {"q21": q21, "q40": q40})
            A, B, C = affine.extended_bde_coeffs(surf.height_jet(0.0, 0.0))
            assert A == 0.0 and B == 0.0
            assert abs(C + 48 * q21 ** 2) <= 1e-12 * abs(48 * q21 ** 2)

    def check_flat_umbilic_discriminant():
        for eps in (1, -1):
            model = surface_mod.monge_surface(
                "u^3 + u*v^2" if eps == 1 else "u^3 - u*v^2")
            fld = bde.monge_extended_field(model)
            rng = np.random.default_rng(7)
            pts = rng.uniform(-0.05, 0.05, size=(60, 2))
            dd = 4.0 * bde.discriminant(fld, pts[:, 0], pts[:, 1])
            shape = eps * (eps * pts[:, 1] ** 2 - 3 * pts[:, 0] ** 2) ** 2
            coef = float(dd @ shape / (shape @ shape))
            assert abs(coef + 589824) < 1e-3 * 589824, coef
            resid = float(np.linalg.norm(dd - coef * shape) / np.linalg.norm(dd))
            assert resid < 1e-9

    def check_conormal_correspondence():
        surf = surface_mod.catalog_surface("torus", {"R": 2, "r": 1})
        rng = np.random.default_rng(23)
        pts = []
        while len(pts) < 12:
            u = float(rng.uniform(0, 2 * math.pi))
            if min(abs(u - math.pi / 2), abs(u - 3 * math.pi / 2)) < 0.1:
                continue
            pts.append((u, float(rng.uniform(0, 2 * math.pi))))
        rows = conormal.verify_conormal_correspondence(surf, pts)
        for row in rows:
            assert not row["degenerate"]
            assert abs(row["lambda"]) > 0
            assert row["residual"] < 1e-7
            assert row["normal_cross"] < 1e-7

    def check_jets_fd():
        from . import jets as J
        exprs = ["sin(u)*cos(v) + u^2*v", "exp(u - v^2)", "u^3 + 3*u*v^2",
                 "sqrt(4 + u^2 + v^2)"]
        rng = np.random.default_rng(2)
        h = 1e-4
        for text in exprs:
            ast = surface_mod.parse_expression(text)
            for _ in range(6):
                u0, v0 = (float(x) for x in rng.uniform(-0.8, 0.8, 2))
                jet = surface_mod.eval_expression_jet(
                    ast, Jet2.variable("u", u0), Jet2.variable("v", v0))

                def f(uu, vv):
                    return float(surface_mod.eval_expression_jet(
                        ast, Jet2.variable("u", uu, 0), Jet2.variable("v", vv, 0)).value)

                fd_u = (f(u0 + h, v0) - f(u0 - h, v0)) / (2 * h)
                fd_uv = (f(u0 + h, v0 + h) - f(u0 + h, v0 - h)
                         - f(u0 - h, v0 + h) + f(u0 - h, v0 - h)) / (4 * h * h)
                for got, want in ((float(jet.partial(1, 0)), fd_u),
                                  (float(jet.partial(1, 1)), fd_uv)):
                    assert abs(got - want) < max(1e-5, 1e-3 * abs(want))

    def check_lifted_tangency():
        fld = bde.torus_extended_field(3.0, 1.0)
        rng = np.random.default_rng(4)
        for _ in range(20):
            u, v = float(rng.uniform(0, 2 * math.pi)), float(rng.uniform(0, 2 * math.pi))
            dirs = bde.asymptotic_directions(fld, u, v)
            if not dirs.dirs:
                continue
            d = dirs.dirs[0]
            st = bde.lift_state(fld, u, v, d[0], d[1])
            X = bde.lie_cartan(fld, st)
            Aj, Bj, Cj = fld.jet_coeff(u, v, 1)
            s = st.slope
            if st.chart == "p":
                grad = np.array([
                    float(Aj.partial(1, 0)) + 2 * s * float(Bj.partial(1, 0)) + s * s * float(Cj.partial(1, 0)),
                    float(Aj.partial(0, 1)) + 2 * s * float(Bj.partial(0, 1)) + s * s * float(Cj.partial(0, 1)),
                    2 * float(Bj.value) + 2 * s * float(Cj.value)])
            else:
                grad = np.array([
                    s * s * float(Aj.partial(1, 0)) + 2 * s * float(Bj.partial(1, 0)) + float(Cj.partial(1, 0)),
                    s * s * float(Aj.partial(0, 1)) + 2 * s * float(Bj.partial(0, 1)) + float(Cj.partial(0, 1)),
                    2 * s * float(Aj.value) + 2 * float(Bj.value)])
            scale = float(np.linalg.norm(grad) * np.linalg.norm(X)) or 1.0
            assert abs(float(grad @ X)) / scale < 1e-9

    return [
        ("torus extended coefficients match the frame pipeline", check_torus_closed_forms),
        ("graph normal form constants at the origin", check_pick_constants),
        ("fold classification and eigenvalues", check_folded_family),
        ("totally degenerate Morse models", check_morse_models),
        ("degenerate-tangency chart at the origin", check_cusp_origin),
        ("flat-point discriminant quartic", check_flat_umbilic_discriminant),
        ("conormal correspondence", check_conormal_correspondence),
        ("jet derivatives vs finite differences", check_jets_fd),
        ("lifted field tangency", check_lifted_tangency),
    ]


def cmd_verify(args):
    checks = _verify_checks()
    print(f"1..{len(checks)}")
    failures = 0
    for k, (name, fn) in enumerate(checks, 1):
        try:
            fn()
            print(f"ok {k} - {name}")
        except AssertionError as exc:
            failures += 1
            print(f"not ok {k} - {name}: {exc}")
        except Exception as exc:  # genuine errors also fail the check
            failures += 1
            print(f"not ok {k} - {name}: {type(exc).__name__}: {exc}")
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
