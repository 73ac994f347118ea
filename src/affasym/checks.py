"""The documented numeric checks, one function per identity.

``affasym verify`` runs ``CHECKS`` at each function's default sample count
and seed; the tests call the same functions with their own.  A check raises
AssertionError when it misses its bound, also under ``python -O``, and the
message carries the measured value.  A ``seed`` may also be a numpy
Generator, which the check draws from in place.
"""

import numpy as np

from . import affine, bde, conormal, singular, surface
from .jets import Jet2

__all__ = ["CHECKS", "torus_points", "torus_closed_forms", "pick_constants", "fold_family",
           "morse_models", "cusp_origin", "flat_quartic", "conormal_correspondence",
           "jets_fd", "lifted_tangency"]


def _require(ok, msg):
    """Raise AssertionError(msg) unless ``ok``: an ``assert`` that ``-O`` keeps."""
    if not ok:
        raise AssertionError(msg)


def torus_points(rng, n, margin):
    """n torus points (u, v) ``margin`` clear of the parabolic circles; v drawn per kept u."""
    pts = []
    while len(pts) < n:
        u = float(rng.uniform(0, 2 * np.pi))
        if min(abs(u - np.pi / 2), abs(u - 3 * np.pi / 2)) >= margin:
            pts.append((u, float(rng.uniform(0, 2 * np.pi))))
    return pts


def torus_closed_forms(n=8, seed=11):
    """Frame-pipeline (l, m, n) = a positive multiple of the torus closed form."""
    rng = np.random.default_rng(seed)
    for R, r in ((2.0, 1.0), (3.0, 1.0), (5.0, 2.0)):
        surf = surface.catalog_surface("torus", {"R": R, "r": r})
        for u, v in torus_points(rng, n, 0.02):
            fr = affine.frame_jets(surf, u, v, order=4)
            trip = np.array([float(c.value) for c in affine.lmn_from_frame(fr)])
            closed = np.array([float(x) for x in affine.torus_extended_bde(R, r, u)])
            t = float(trip @ closed / (closed @ closed))
            _require(t > 0, f"factor {t} at (R, r, u) = ({R}, {r}, {u})")
            resid = float(np.linalg.norm(trip - t * closed) / np.linalg.norm(trip))
            _require(resid < 1e-7, f"residual {resid} at (R, r, u) = ({R}, {r}, {u})")
    lb, _, nb = affine.torus_extended_bde(2.0, 1.0, np.pi / 2)
    _require(abs(lb + 3 * 2.0 ** 2) < 1e-12 and abs(nb) < 1e-12, (lb, nb))


def pick_constants(n=5, seed=5):
    """(l, m, n) at the origin of the graph normal form, n draws per sign."""
    rng = np.random.default_rng(seed)
    for eps in (1, -1):
        for _ in range(n):
            sig = float(rng.uniform(-1.5, 1.5))
            q = {k: float(rng.uniform(-2, 2)) for k in ((4, 0), (3, 1), (2, 2), (1, 3), (0, 4))}
            d = affine.affine_point_data(
                surface.catalog_surface("pick", {"epsilon": eps, "sigma": sig, "q": q}), 0.0, 0.0)
            want = (-sig ** 2 / 2 + q[(4, 0)] / 4 + eps * q[(2, 2)] / 4,
                    (q[(3, 1)] + eps * q[(1, 3)]) / 4,
                    -eps * sig ** 2 / 2 + q[(2, 2)] / 4 + eps * q[(0, 4)] / 4)
            err = max(abs(float(got) - w) for got, w in zip((d.l, d.m, d.n), want))
            _require(err < 1e-9, f"error {err} at eps={eps}, sigma={sig}")


def fold_family(kinds=((-1.0, "folded_saddle"), (1 / 32, "folded_node"), (1.0, "folded_focus"))):
    """Fold of (-v + lam u^2) du^2 + dv^2 per (lam, kind), at the point located on a
    96-resolution trace and at the exact origin: eigenvalue (1 + sqrt(1 - 16 lam)) / 2."""
    for lam, kind in kinds:
        fld = bde.folded_model_field(lam)
        polys = bde.trace_zero_set(lambda u, v: bde.discriminant(fld, u, v), fld.domain, 96)
        pts = singular.find_folded_points(fld, polys, fld.domain, 96)
        _require(len(pts) == 1, f"lam={lam}: {len(pts)} fold points")
        expect = (1 + complex(1 - 16 * lam) ** 0.5) / 2
        for at, tol in ((pts[0], 1e-4), ((0.0, 0.0), 1e-6)):
            rep = singular.classify_folded(fld, at)
            _require(rep.kind == kind, f"lam={lam} at {at}: {rep.kind}")
            err = abs(rep.lambda_invariant - lam)
            _require(err < tol, f"lam={lam} at {at}: lam error {err}")
            mu = max(map(complex, rep.eigenvalues), key=lambda z: (z.real, -abs(z.imag)))
            err = min(abs(mu - expect), abs(mu.conjugate() - expect))
            _require(err < 1e-6, f"lam={lam} at {at}: eigenvalue {mu}, error {err}")


def morse_models():
    """Crossing Morse model: eigenvalues (2, -3); isolated: slopes {0, +-sqrt 3}."""
    rep = singular.classify_flat_affine_umbilic(bde.morse_model_field(-1), (0.0, 0.0))
    eig = sorted(complex(z).real for z in rep.eigenvalues)
    _require(rep.kind == "morse_crossing", rep.kind)
    _require(abs(eig[0] + 3.0) < 1e-6 and abs(eig[1] - 2.0) < 1e-6, eig)
    rep = singular.classify_flat_affine_umbilic(bde.morse_model_field(1), (0.0, 0.0))
    slopes = sorted(rep.details["lifted_slopes"])
    _require(rep.kind == "morse_isolated", rep.kind)
    for got, want in zip(slopes, (-np.sqrt(3), 0.0, np.sqrt(3))):
        _require(abs(got - want) < 1e-6, slopes)


def cusp_origin(n=5, seed=3):
    """Cusp-of-Gauss extended coefficients at the origin: (0, 0, -48 q21^2)."""
    rng = np.random.default_rng(seed)
    checked = 0
    while checked < n:
        q21 = float(rng.uniform(0.5, 2.0)) * (1 if rng.uniform() < 0.5 else -1)
        q40 = float(rng.uniform(-1.0, 1.0))
        if abs(q21 * q21 - 4 * q40) < 1e-3:
            continue
        checked += 1
        extra = {k: float(rng.uniform(-1, 1)) for k in ((0, 3), (3, 1), (2, 2))}
        cg = surface.catalog_surface("cusp_gauss", {"q": {(2, 1): q21, (4, 0): q40, **extra}})
        A, B, C = (float(c) for c in bde.extended_field_for(cg).coeff(0.0, 0.0))
        _require(A == 0.0 and B == 0.0, (A, B))
        err = abs(C + 48 * q21 ** 2) / (48 * q21 ** 2)
        _require(err <= 1e-14, f"C={C} at q21={q21}: relative error {err}")


def flat_quartic(n=60, seed=7):
    """4 (B^2 - AC) on the charts u^3 +- u v^2 is -589824 eps (eps v^2 - 3 u^2)^2."""
    rng = np.random.default_rng(seed)
    for eps in (1, -1):
        fld = bde.extended_field_for(surface.monge_surface(
            "u^3 + u*v^2" if eps == 1 else "u^3 - u*v^2"))
        pts = rng.uniform(-0.05, 0.05, size=(n, 2))
        dd = 4.0 * bde.discriminant(fld, pts[:, 0], pts[:, 1])
        shape = eps * (eps * pts[:, 1] ** 2 - 3 * pts[:, 0] ** 2) ** 2
        coef = float(dd @ shape / (shape @ shape))
        _require(abs(coef + 589824.0) < 1e-3 * 589824.0, f"eps={eps}: coefficient {coef}")
        resid = float(np.linalg.norm(dd - coef * shape) / np.linalg.norm(dd))
        _require(resid < 1e-9, f"eps={eps}: residual {resid}")


def conormal_correspondence(n=12, seed=23, n_pick=8):
    """Conormal image's second form ~ (l, m, n), normals aligned: torus, then a graph."""
    rng = np.random.default_rng(seed)
    rows = conormal.verify_conormal_correspondence(
        surface.catalog_surface("torus", {"R": 2, "r": 1}), torus_points(rng, n, 0.08))
    pick = surface.catalog_surface("pick", {"epsilon": -1, "sigma": 0.8,
                                            "q": {(4, 0): 1.0, (1, 3): 0.5}})
    rows += conormal.verify_conormal_correspondence(
        pick, [(float(a), float(b)) for a, b in rng.uniform(-0.25, 0.25, (n_pick, 2))])
    _require(len(rows) == n + n_pick, len(rows))
    for row in rows:
        _require(not row["degenerate"] and abs(row["lambda"]) > 0, row)
        _require(max(row["residual"], row["normal_cross"]) < 1e-7, row)


def jets_fd(n=6, seed=2):
    """Expression-jet partials u and uv against central differences."""
    rng = np.random.default_rng(seed)
    h = 1e-4
    du, dv = h * np.array([1, -1, 1, 1, -1, -1]), h * np.array([0, 0, 1, -1, 1, -1])
    for text in ("sin(u)*cos(v) + u^2*v", "exp(u - v^2)", "u^3 + 3*u*v^2",
                 "sqrt(4 + u^2 + v^2)"):
        ast = surface.parse_expression(text)
        for _ in range(n):
            u0, v0 = (float(x) for x in rng.uniform(-0.8, 0.8, 2))
            jet = surface.eval_expression_jet(ast, Jet2.variable("u", u0), Jet2.variable("v", v0))
            # values at (u0 +- h, v0) and (u0 +- h, v0 +- h)
            f = surface.eval_expression_jet(
                ast, Jet2.variable("u", u0 + du, 0), Jet2.variable("v", v0 + dv, 0)).value
            for got, want in ((float(jet.partial(1, 0)), (f[0] - f[1]) / (2 * h)),
                              (float(jet.partial(1, 1)),
                               (f[2] - f[3] - f[4] + f[5]) / (4 * h * h))):
                _require(abs(got - want) < max(1e-5, 1e-3 * abs(want)),
                         f"{text} at ({u0}, {v0}): jet {got}, difference {want}")


def lifted_tangency(n=20, seed=4):
    """The lifted field X of a torus annihilates F, at n points where the net is real."""
    fld = bde.torus_extended_field(surface.catalog_surface("torus", {"R": 3.0, "r": 1.0}))
    rng = np.random.default_rng(seed)
    checked = 0
    while checked < n:
        u, v = rng.uniform(0, 2 * np.pi, 2)
        kind, roots = bde.direction_roots(*fld.coeff(u, v))
        if kind in ("none", "degenerate"):
            continue
        checked += 1
        du, dv = roots[0]
        chart_q = abs(dv) > abs(du)
        s = du / dv if chart_q else dv / du
        c = fld.slots(u, v, 1)
        X = bde.lifted_velocity(c, s, chart_q)[0]
        J = c.reshape(3, 3)   # rows A, B, C; columns value, d/du, d/dv
        # weights of (A, B, C) in F = A + 2Bs + Cs^2 (chart p) or As^2 + 2Bs + C, and in dF/ds
        w, ws = np.array(((s * s, 2 * s, 1), (2 * s, 2, 0)) if chart_q else
                         ((1, 2 * s, s * s), (0, 2, 2 * s)))
        grad = np.array([w @ J[:, 1], w @ J[:, 2], ws @ J[:, 0]])
        scale = max(float(np.linalg.norm(grad)) * float(np.linalg.norm(X)), 1e-30)
        err = abs(float(grad @ X)) / scale
        _require(err < 1e-9, f"relative F-gradient component {err} at ({u}, {v})")


CHECKS = [
    ("torus extended coefficients match the frame pipeline", torus_closed_forms),
    ("graph normal form constants at the origin", pick_constants),
    ("fold classification and eigenvalues", fold_family),
    ("totally degenerate Morse models", morse_models),
    ("degenerate-tangency chart at the origin", cusp_origin),
    ("flat-point discriminant quartic", flat_quartic),
    ("conormal correspondence", conormal_correspondence),
    ("jet derivatives vs finite differences", jets_fd),
    ("lifted field tangency", lifted_tangency),
]
