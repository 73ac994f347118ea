"""Acceptance criteria.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all);
tolerances are fixed here and match the package's documented guarantees.
"""

import math
import os
import subprocess
import sys
import time

import numpy as np

from affasym import affine as af, bde, checks, flow, singular as sg, surface as sf
from affasym.surface import Rect

from test_conormal import conormal_image_field, integrate_one
from test_jets import FD_CASES, fd_check_jet
from test_singular import model_focus_blowup
from affasym.jets import Jet2


def _criterion(num, desc, body):
    try:
        body()
    except BaseException:
        print(f"ACCEPTANCE {num:02d} FAIL  {desc}")
        raise
    print(f"ACCEPTANCE {num:02d} PASS  {desc}")


def torus(R, r):
    return sf.catalog_surface("torus", {"R": R, "r": r})


def test_criterion_01_torus_extended_bde():
    def body():
        rng = np.random.default_rng(101)
        for (R, r) in ((2.0, 1.0), (3.0, 1.0), (5.0, 2.0)):
            surf = torus(R, r)
            for u, v in checks.torus_points(rng, 50, 0.02):
                fr = af.frame_jets(surf, u, v, order=4)
                trip = np.array([
                    float(af.dot(fr["nu_u"], fr["xi_u"]).value),
                    float(af.dot(fr["nu_u"], fr["xi_v"]).value),
                    float(af.dot(fr["nu_v"], fr["xi_v"]).value)])
                closed = np.array([float(x) for x in af.torus_extended_bde(R, r, u)])
                t = float(trip @ closed / (closed @ closed))
                assert t > 0
                resid = float(np.linalg.norm(trip - t * closed) / np.linalg.norm(trip))
                assert resid < 1e-7, (R, r, u, resid)

    _criterion(1, "torus extended coefficients proportional to the pipeline "
                  "(3 parameter sets x 50 points, rel < 1e-7, positive factor)", body)


def test_criterion_02_torus_singular_sets():
    def body():
        for (R, r) in ((2.0, 1.0), (3.0, 1.0), (5.0, 2.0)):
            # quartic lbar(c): exactly two roots in (-1, 1)
            coefs = [-3 * R ** 2, -8 * r * R, 15 * R ** 2, 36 * r * R, 16 * r ** 2]
            roots = [c.real for c in np.polynomial.polynomial.polyroots(coefs)
                     if abs(c.imag) < 1e-10 and -1 < c.real < 1]
            assert len(roots) == 2, (R, r, roots)
            # cubic factor of nbar: no roots in (-1, 1)
            q = [R, 0.0, 3 * R, 4 * r]
            qroots = [c.real for c in np.polynomial.polynomial.polyroots(q)
                      if abs(c.imag) < 1e-10 and -1 < c.real < 1]
            assert qroots == [], (R, r, qroots)
        # traced parabolic circles at pi/2, 3 pi/2 to 1e-6
        surf = torus(2.0, 1.0)

        def kfun(u, v):
            al = surf.eval_jets(u, v, order=2)
            return af.euclidean_data(al).K

        polys = bde.trace_zero_set(kfun, Rect(0, 2 * math.pi, 0, 2 * math.pi), 128)
        assert len(polys) == 2
        for p in polys:
            target = math.pi / 2 if abs(p[0, 0] - math.pi / 2) < 1 else 3 * math.pi / 2
            assert np.max(np.abs(p[:, 0] - target)) < 1e-6
        # net nonempty exactly inside the rings: 512-sample scan of delta
        coefs = [-12.0, -16.0, 60.0, 72.0, 16.0]
        c1, c2 = sorted(c.real for c in np.polynomial.polynomial.polyroots(coefs)
                        if abs(c.imag) < 1e-10 and -1 < c.real < 1)
        u1, u2 = math.acos(c2), math.acos(c1)
        u3, u4 = 2 * math.pi - u2, 2 * math.pi - u1
        fld = bde.torus_extended_field(torus(2.0, 1.0))
        us = np.linspace(0, 2 * math.pi, 512, endpoint=False)
        deltas = bde.discriminant(fld, us, np.zeros_like(us))
        for u, d in zip(us, deltas):
            inside = (u1 < u < u2) or (u3 < u < u4)
            if inside:
                assert d > 0, (u, d)
            else:
                assert d < 0, (u, d)

    _criterion(2, "torus singular sets: 2 degenerate circles per ring pair, none "
                  "from the cubic factor, parabolic circles to 1e-6, ring sign scan", body)


def test_criterion_03_pick_constants():
    def body():
        checks.pick_constants(20, 103)

    _criterion(3, "graph normal-form constant terms of (l, m, n) at the origin "
                  "(20 draws, both signs, 1e-9)", body)


def test_criterion_04_flat_affine_umbilic():
    def body():
        rng = np.random.default_rng(104)
        for eps in (1, -1):
            for _ in range(10):
                sigma = float(rng.uniform(-1.5, 1.5))
                q13 = float(rng.uniform(-2, 2))
                q40 = float(rng.uniform(-2, 2))
                surf = sf.catalog_surface("pick", {
                    "epsilon": eps, "sigma": sigma,
                    "q": {(1, 3): q13, (3, 1): -eps * q13, (4, 0): q40, (0, 4): q40,
                          (2, 2): -eps * (-2 * sigma ** 2 + q40)}})
                d = af.affine_point_data(surf, 0.0, 0.0)
                assert max(abs(float(d.l)), abs(float(d.m)), abs(float(d.n))) < 1e-10
        checks.morse_models()

    _criterion(4, "totally degenerate origin: coefficient conditions kill (l, m, n) "
                  "to 1e-10; crossing model eigenvalues (2, -3); isolated model "
                  "slopes {0, +-sqrt 3}", body)


def test_criterion_05_folded_classification():
    def body():
        checks.fold_family(((-2.0, "folded_saddle"), (-0.5, "folded_saddle"),
                            (0.01, "folded_node"), (0.05, "folded_node"),
                            (0.2, "folded_focus"), (1.0, "folded_focus")))

    _criterion(5, "fold classification over the model family: recovered parameter "
                  "to 1e-4 at the traced fold and 1e-6 at the origin, kind exact, "
                  "eigenvalues (1 +- sqrt(1-16 lam))/2 to 1e-6", body)


def _fit_quartic_quadcoef(poly, window=0.05):
    pts = poly[np.abs(poly[:, 0]) <= window]
    A = np.stack([np.ones(len(pts)), pts[:, 0], pts[:, 0] ** 2,
                  pts[:, 0] ** 3, pts[:, 0] ** 4], axis=1)
    sol, *_ = np.linalg.lstsq(A, pts[:, 1], rcond=None)
    return float(sol[2])


def test_criterion_06_cusp_of_gauss():
    def body():
        rng = np.random.default_rng(106)
        # exact coefficients at the origin, 10 draws
        checks.cusp_origin(10, rng)
        # second-order contact of the two degenerate sets, fitted to 1e-3
        for _ in range(3):
            while True:
                q21 = float(rng.uniform(0.8, 1.6)) * (1 if rng.uniform() < 0.5 else -1)
                q40 = float(rng.uniform(-0.5, 0.5))
                if abs(q21 * q21 - 4 * q40) > 0.3:
                    break
            cg = sf.catalog_surface("cusp_gauss", {"q21": q21, "q40": q40},
                                    domain=Rect(-0.09, 0.09, -0.12, 0.12))

            def kfun(u, v):
                hj = cg.eval_jets(u, v, order=2)[2]
                return hj.partial(2, 0) * hj.partial(0, 2) - hj.partial(1, 1) ** 2

            fld = bde.extended_field_for(cg)
            par = bde.trace_zero_set(kfun, cg.domain, 384)
            aff = bde.trace_zero_set(lambda u, v: bde.discriminant(fld, u, v),
                                     cg.domain, 384)
            a_par = _fit_quartic_quadcoef(np.vstack(par))
            a_aff = _fit_quartic_quadcoef(np.vstack(aff))
            e_par = (q21 ** 2 - 6 * q40) / q21
            e_aff = 2 * (4 * q21 ** 2 - 17 * q40) / q21
            assert abs(a_par - e_par) < 1e-3 * abs(e_par), (q21, q40, a_par, e_par)
            assert abs(a_aff - e_aff) < 1e-3 * abs(e_aff), (q21, q40, a_aff, e_aff)

    _criterion(6, "degenerate tangency point: extended coefficients (0, 0, -48 q21^2), "
                  "C to 1e-14 relative; second-order contact coefficients fitted to 1e-3", body)


def test_criterion_07_flat_euclid_umbilic():
    def body():
        # sign chart: discriminant nonpositive on a punctured grid
        fu = sf.catalog_surface("flat_umbilic_chart", {"epsilon": 1})
        rep = sg.classify_flat_euclid_umbilic(fu)
        assert rep.kind == "flat_euclid_umbilic_no_lines"
        assert rep.details["delta_max_punctured"] <= 1e-12
        # focus chart: classification plus winding of an integrated curve
        fu = sf.catalog_surface("flat_umbilic_chart", {"epsilon": -1},
                                domain=Rect(-0.5, 0.5, -0.5, 0.5))
        rep = sg.classify_flat_euclid_umbilic(fu)
        assert rep.kind == "flat_euclid_umbilic_focus"
        assert model_focus_blowup()["blowup_A_matches"]
        fld = bde.extended_field_for(fu)
        best = 0.0
        for sweep in (1, -1):
            traj = integrate_one(
                fld, (0.3, 0.0), "plus",
                flow.IntegrationParams(max_len=12.0, max_steps=60000), sweep)
            ang = np.unwrap(np.arctan2(traj.points[:, 1], traj.points[:, 0]))
            best = max(best, abs(ang[-1] - ang[0]) / (2 * math.pi))
        assert best > 2.0, best
        # leading discriminant quartic on the cubic classification chart;
        # the published constant carries the doubled-middle-coefficient
        # convention, i.e. it equals 4 (B^2 - AC)
        checks.flat_quartic(80, 107)

    _criterion(7, "flat point of the height function: nonpositive discriminant "
                  "(+ chart), focus with winding > 2 (- chart), leading quartic "
                  "coefficient -589824 matched to 1e-3, residual < 1e-9", body)


def test_criterion_08_conormal_correspondence():
    def body():
        t0 = time.time()
        checks.conormal_correspondence(60, 108, n_pick=40)

        # matched asymptotic trajectories under the conormal map
        surf_t = torus(2.0, 1.0)
        src_field = bde.torus_extended_field(surf_t)
        img_field = conormal_image_field(surf_t)
        seed = (1.35, 1.0)
        params = flow.IntegrationParams(max_len=0.35, max_step_frac=5e-4)
        t_src = integrate_one(src_field, seed, "plus", params)
        d_src = bde.direction_roots(src_field.slots(*seed, 0))[1][0]
        img_dirs = bde.direction_roots(img_field.slots(*seed, 0))[1]
        fam = "plus" if abs(float(np.dot(img_dirs[0], d_src))) >= \
            abs(float(np.dot(img_dirs[-1], d_src))) else "minus"
        t_img = integrate_one(img_field, seed, fam, params)
        if float(np.dot(t_img.points[5] - t_img.points[0],
                        t_src.points[5] - t_src.points[0])) < 0:
            t_img = integrate_one(img_field, seed, fam, params, sweep=-1)
        common = min(t_src.samples[-1, 4], t_img.samples[-1, 4]) * 0.98
        sel = t_src.points[t_src.samples[:, 4] <= common]
        a, b = t_img.points[:-1], t_img.points[1:]
        ab = b - a
        den = np.einsum("ij,ij->i", ab, ab)
        den[den == 0] = 1.0
        worst = 0.0
        for p in sel:
            t = np.clip(np.einsum("ij,ij->i", p - a, ab) / den, 0.0, 1.0)
            proj = a + t[:, None] * ab
            worst = max(worst, float(np.min(np.hypot(proj[:, 0] - p[0],
                                                     proj[:, 1] - p[1]))))
        assert worst < 1e-5, worst
        elapsed = time.time() - t0
        assert elapsed < 60.0, elapsed

    _criterion(8, "conormal correspondence: 100 samples with residual and normal "
                  "alignment < 1e-7; matched trajectories agree to 1e-5; under 1 min", body)


def test_criterion_09_jet_oracle():
    def body():
        rng = np.random.default_rng(109)
        checked = 0
        per_case = 200 // len(FD_CASES) + 1
        for fn in FD_CASES:
            for _ in range(per_case):
                if checked >= 200:
                    break
                u0, v0 = (float(x) for x in rng.uniform(-0.7, 0.7, 2))
                jet = fn(Jet2.variable("u", u0), Jet2.variable("v", v0))

                def plain(uu, vv):
                    return float(fn(Jet2.variable("u", uu, 2), Jet2.variable("v", vv, 2)).value)

                fd_check_jet(jet, plain, u0, v0)
                checked += 1
        assert checked >= 200

        # the same oracle applied to the deepest implemented formulas: jets
        # of the extended coefficient fields against finite differences of
        # their pointwise values
        fields = [
            bde.torus_extended_field(torus(2.0, 1.0)),
            bde.extended_field_for(sf.catalog_surface(
                "pick", {"epsilon": -1, "sigma": 0.7,
                         "q": {(4, 0): 0.6, (1, 3): 0.4, (2, 2): -0.3}})),
        ]
        windows = [(0.3, 2 * math.pi - 0.3), (-0.6, 0.6)]
        for fld, (lo, hi) in zip(fields, windows):
            for _ in range(6):
                u0 = float(rng.uniform(lo, hi))
                v0 = float(rng.uniform(lo, hi))
                jets3 = fld.jet_coeff(u0, v0, 3)
                for slot in range(3):
                    def plain(uu, vv, _s=slot):
                        return float(np.asarray(fld.coeff(uu, vv)[_s]))

                    fd_check_jet(jets3[slot], plain, u0, v0)

    _criterion(9, "jet partials of orders 1-3 match finite differences over 200 "
                  "random evaluation points, including the coefficient fields", body)


def test_criterion_10_determinism(tmp_path):
    def body():
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        outs = []
        for name in ("run1", "run2"):
            out = tmp_path / name
            res = subprocess.run(
                [sys.executable, "-m", "affasym", "portrait",
                 "--surface", "catalog:torus", "--R", "2", "--r", "1",
                 "--res", "3", "--tol", "max_len=3.0", "--tol", "trace_res=96",
                 "--out", str(out)],
                capture_output=True, text=True, env=env)
            assert res.returncode == 0, res.stderr
            outs.append(out)
        svg1 = (outs[0] / "portrait.svg").read_bytes()
        svg2 = (outs[1] / "portrait.svg").read_bytes()
        js1 = (outs[0] / "portrait.json").read_bytes()
        js2 = (outs[1] / "portrait.json").read_bytes()
        assert svg1 == svg2
        assert js1 == js2

    _criterion(10, "portrait command is byte-deterministic (SVG and JSON)", body)
