import math
from types import SimpleNamespace

import numpy as np
import pytest

from affasym import affine as af, bde, checks, conormal as cn, flow, surface as sf
from affasym.jets import Jet2
from affasym.surface import Rect


def torus(R=3.0, r=1.0):
    return sf.catalog_surface("torus", {"R": R, "r": r})


def conormal_image_field(surf):
    """The Euclidean second form (L, M, N) of the conormal image nu(u, v), in
    the source parameters: the direction equation of that surface's
    Euclidean asymptotic lines."""

    def slots(u, v, order):
        fr = af.frame_jets(surf, u, v, order=4 + order, guard=1e-8, depth=1)
        return np.concatenate([c.coeffs for c in af.second_form(fr["nu_u"], fr["nu_v"])])

    return bde.BDEField(slots, surf.domain)


def conormal_at(surf, u, v):
    fr = af.frame_jets(surf, u, v, order=2, depth=0)
    return np.array([float(c.value) for c in fr["nu"]])


def test_conormal_point_value():
    nu = conormal_at(torus(), 0.0, 0.0)
    assert nu[0] < 0 and abs(nu[1]) < 1e-14 and abs(nu[2]) < 1e-14
    assert np.linalg.norm(nu) == pytest.approx(4 ** 0.25, rel=1e-12)
    q = sf.monge_surface("(u^2 + v^2)/2")
    assert conormal_at(q, 0.0, 0.0) == pytest.approx([0.0, 0.0, 1.0], abs=1e-14)


def test_mesh_components_and_immersion():
    _, mesh = cn.conormal_mesh(torus(), resolution=(48, 24))
    assert mesh.n_components == 2
    assert len(mesh.vertices) > 0
    assert not mesh.clipped.any()
    # elliptic band (cos u > 0) labels differ from hyperbolic band labels
    cosu = np.cos(mesh.params[:, 0])
    comp_ell = set(mesh.component_id[cosu > 0.1].tolist())
    comp_hyp = set(mesh.component_id[cosu < -0.1].tolist())
    assert comp_ell and comp_hyp and not (comp_ell & comp_hyp)


def test_correspondence_torus_and_pick():
    rng = np.random.default_rng(0)
    rows = cn.verify_conormal_correspondence(torus(), checks.torus_points(rng, 30, 0.1))
    for row in rows:
        assert not row["degenerate"]
        assert row["lambda"] is not None and abs(row["lambda"]) > 0
        assert row["residual"] < 1e-7
        assert row["normal_cross"] < 1e-7
    pick = sf.catalog_surface("pick", {"epsilon": -1, "sigma": 0.8,
                                       "q": {(4, 0): 1.0, (1, 3): 0.5}})
    pts = [(float(a), float(b)) for (a, b) in rng.uniform(-0.2, 0.2, (20, 2))]
    for row in cn.verify_conormal_correspondence(pick, pts):
        assert not row["degenerate"]
        assert row["residual"] < 1e-7
        assert row["normal_cross"] < 1e-7


def test_correspondence_builds_one_frame_per_sample(monkeypatch):
    calls = []
    frame_jets = af.frame_jets

    def counting(*args, **kwargs):
        calls.append(kwargs.get("depth", 3))
        return frame_jets(*args, **kwargs)

    monkeypatch.setattr(af, "frame_jets", counting)
    rng = np.random.default_rng(3)
    pts = checks.torus_points(rng, 10, 0.1)
    rows = cn.verify_conormal_correspondence(torus(), pts)
    assert len(rows) == 10 and calls == [3]
    # the full frame gives the same second form as a depth-1 frame of its own
    monkeypatch.setattr(af, "frame_jets", frame_jets)
    for (u, v), row in zip(pts, rows):
        fr = af.frame_jets(torus(), u, v, order=4)
        assert cn.second_form_of_conormal(fr)[0] == \
            cn.second_form_of_conormal(af.frame_jets(torus(), u, v, order=4, depth=1))[0]


@pytest.mark.parametrize("surf, pts", [
    (torus(), checks.torus_points(np.random.default_rng(8), 25, 0.1)),
    (torus(2.5, 1.0), checks.torus_points(np.random.default_rng(9), 25, 0.1)),
    (sf.catalog_surface("pick", {"epsilon": -1, "sigma": 0.8,
                                 "q": {(4, 0): 1.0, (1, 3): 0.5}}),
     [tuple(p) for p in np.random.default_rng(10).uniform(-0.2, 0.2, (25, 2)).tolist()]),
    (sf.monge_surface("sin(u)*cos(v)+0.1*exp(u)"),
     [tuple(p) for p in np.random.default_rng(11).uniform(-0.9, 0.9, (25, 2)).tolist()]),
    (sf.monge_surface("(u^2 + v^2)/2"), [(0.0, 0.0), (0.2, 0.1), (-0.3, 0.25)]),
])
def test_correspondence_batch_equals_each_sample_alone(surf, pts):
    rows = cn.verify_conormal_correspondence(surf, pts)
    assert rows == [cn.verify_conormal_correspondence(surf, [p])[0] for p in pts]
    assert rows == [correspondence_row_reference(surf, u, v) for (u, v) in pts]


def correspondence_row_reference(surf, u, v, degenerate_tol=1e-12):
    """One report row from the scalar frame of one sample, in Python floats."""
    fr = af.frame_jets(surf, u, v, order=4)
    l, m, n = (float(c.value) for c in af.lmn_from_frame(fr))
    nu_u, nu_v = fr["nu_u"], fr["nu_v"]
    wv = np.array([float(c.value) for c in af.cross(nu_u, nu_v)])
    nvec = wv / np.linalg.norm(wv)
    e, f, g = (float(sum(nvec[k] * float(d[k].value) for k in range(3)))
               for d in ([c.du() for c in nu_u], [c.dv() for c in nu_u],
                         [c.dv() for c in nu_v]))
    xi = np.array([float(c.value) for c in fr["xi"]])
    cross_norm = float(np.linalg.norm(np.cross(nvec, xi / np.linalg.norm(xi))))
    row = {"point": (u, v), "degenerate": True, "lambda": None, "residual": None,
           "normal_cross": cross_norm}
    if max(abs(l), abs(m), abs(n)) >= degenerate_tol:
        trip = {"l": (l, e), "m": (m, f), "n": (n, g)}
        key = max(trip, key=lambda k: abs(trip[k][0]))
        lam = trip[key][1] / trip[key][0]
        resid = max(abs(e - lam * l), abs(f - lam * m), abs(g - lam * n))
        row.update({"degenerate": False, "lambda": lam,
                    "residual": resid / max(abs(e), abs(f), abs(g), 1e-30)})
    return row


def test_immersion_error_names_first_failing_sample():
    def vec(*cols):
        # order-1 jets over a batch of three points: value and both partials
        return tuple(Jet2(1, np.array([c, [1.0, 0.5, 0.0], [0.0, 0.25, 2.0]]))
                     for c in cols)

    frame = {"nu_u": vec([1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]),
             "nu_v": vec([0.0, 2.0, 3.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0])}
    with pytest.raises(cn.ImmersionError, match="sample 1$"):
        cn.second_form_of_conormal(frame)


def test_parabolic_sign_correspondence():
    # sign of the image second-form determinant matches sign of ln - m^2
    rng = np.random.default_rng(5)
    surf = torus()
    for (u, v) in checks.torus_points(rng, 40, 0.1):
        fr = af.frame_jets(surf, u, v, order=4)
        l = float(af.dot(fr["nu_u"], fr["xi_u"]).value)
        m = float(af.dot(fr["nu_u"], fr["xi_v"]).value)
        n = float(af.dot(fr["nu_v"], fr["xi_v"]).value)
        (e, f, g), _ = cn.second_form_of_conormal(fr)
        assert np.sign(e * g - f * f) == np.sign(l * n - m * m)


def test_quadric_degenerate_marker():
    q = sf.monge_surface("(u^2 + v^2)/2")
    rows = cn.verify_conormal_correspondence(q, [(0.0, 0.0), (0.2, 0.1)])
    for row in rows:
        assert row["degenerate"]
        assert row["lambda"] is None
        assert row["normal_cross"] < 1e-10


def test_obj_export_small_grid():
    q = sf.monge_surface("(u^2 + v^2)/2")
    _, mesh = cn.conormal_mesh(q, region=Rect(-0.5, 0.5, -0.5, 0.5), resolution=(2, 2))
    obj = "".join(cn.export_mesh(mesh))
    lines = obj.strip().split("\n")
    assert sum(1 for ln in lines if ln.startswith("v ")) == 4
    assert sum(1 for ln in lines if ln.startswith("f ")) == 1
    assert lines[0].startswith("#")


def test_obj_export_torus_two_objects():
    _, mesh = cn.conormal_mesh(torus(), resolution=(36, 18))
    obj = "".join(cn.export_mesh(mesh))
    objects = [ln for ln in obj.split("\n") if ln.startswith("o ")]
    assert objects == ["o component_0", "o component_1"]
    # faces reference valid 1-based vertices
    nv = sum(1 for ln in obj.split("\n") if ln.startswith("v "))
    for ln in obj.split("\n"):
        if ln.startswith("f "):
            idx = [int(t) for t in ln.split()[1:]]
            assert all(1 <= i <= nv for i in idx)


def test_obj_export_empty_region():
    tor = torus()
    # region entirely inside the widened exclusion strip
    _, mesh = cn.conormal_mesh(tor, region=Rect(math.pi / 2 - 0.01, math.pi / 2 + 0.01,
                                                0.0, 1.0), resolution=(4, 4), margin=0.05)
    assert len(mesh.vertices) == 0
    obj = "".join(cn.export_mesh(mesh))
    assert obj.strip() == "# conormal mesh export"


def test_norm_cap_clipping():
    tor = torus()
    _, mesh = cn.conormal_mesh(tor, region=Rect(0.0, math.pi / 2 - 0.06, 0.0, 1.0),
                               resolution=(24, 6), margin=0.05, norm_cap=2.0)
    assert mesh.clipped.any()
    # clipped vertices appear in no face
    used = set()
    for f in mesh.faces:
        used.update(f)
    assert not any(mesh.clipped[list(used)]) if used else True


def test_one_mesh_pass_builds_both_meshes(monkeypatch):
    counts = {"frame_jets": 0, "eval_jets": 0, "components": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(af, "frame_jets", counted("frame_jets", af.frame_jets))
    monkeypatch.setattr(sf.SurfaceDef, "eval_jets",
                        counted("eval_jets", sf.SurfaceDef.eval_jets))
    monkeypatch.setattr(cn, "_components", counted("components", cn._components))
    src, img = cn.conormal_mesh(torus(), resolution=(24, 12))
    assert counts == {"frame_jets": 1, "eval_jets": 1, "components": 1}
    assert src.n_components == img.n_components == 2
    assert np.array_equal(src.component_id, img.component_id)
    assert np.array_equal(src.params, img.params)
    assert not src.clipped.any()


def grid_faces_reference(surf, region, res, margin, clipped):
    """Quads of the valid grid in row-major order, scanned cell by cell;
    ``clipped`` vertices drop the quads they touch."""
    U, _, mask = cn._grid_and_mask(surf, region, res, margin)
    index = -np.ones(U.shape, dtype=int)
    index[mask] = np.arange(int(mask.sum()))
    ok = mask.copy()
    ok[mask] = ~clipped
    faces = []
    for i in range(res[0] - 1):
        for j in range(res[1] - 1):
            cell = (index[i, j], index[i + 1, j], index[i + 1, j + 1], index[i, j + 1])
            if ok[i, j] and ok[i + 1, j] and ok[i + 1, j + 1] and ok[i, j + 1]:
                faces.append(cell)
    return faces


def obj_reference(mesh):
    """OBJ text scanning every face once per component."""
    lines = ["# conormal mesh export"]
    order = np.argsort(mesh.component_id, kind="stable")
    remap = np.empty(len(mesh.vertices), dtype=int)
    remap[order] = np.arange(len(mesh.vertices))
    for comp in range(mesh.n_components):
        sel = np.nonzero(mesh.component_id == comp)[0]
        if len(sel) == 0:
            continue
        lines.append(f"o component_{comp}")
        lines += [f"v {float(x)!r} {float(y)!r} {float(z)!r}" for x, y, z in mesh.vertices[sel]]
        for face in mesh.faces:
            if mesh.component_id[face[0]] == comp:
                a, b, c, d = (remap[idx] + 1 for idx in face)
                lines.append(f"f {a} {b} {c} {d}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("region, res, norm_cap", [
    (None, (36, 18), 1e3),
    (Rect(0.0, 1.5, 0.0, 1.0), (40, 12), 2.0),
])
def test_mesh_faces_and_obj_match_cell_scan(region, res, norm_cap):
    tor = torus()
    src, img = cn.conormal_mesh(tor, region, res, norm_cap=norm_cap)
    region = region or tor.domain
    none = np.zeros(len(src.vertices), dtype=bool)
    assert src.faces.tolist() == [list(f) for f in
                                  grid_faces_reference(tor, region, res, 0.05, none)]
    assert img.faces.tolist() == [list(f) for f in
                                  grid_faces_reference(tor, region, res, 0.05, img.clipped)]
    assert (len(img.faces) < len(src.faces)) == bool(img.clipped.any())
    for mesh in (src, img):
        assert "".join(cn.export_mesh(mesh)) == obj_reference(mesh)


def test_source_vertices_are_surface_positions():
    for surf in (torus(), sf.monge_surface("sin(u)*cos(v)+0.1*exp(u)")):
        src, _ = cn.conormal_mesh(surf, resolution=(32, 32))
        al = surf.eval_jets(src.params[:, 0], src.params[:, 1], order=1)
        assert np.array_equal(src.vertices, np.stack([c.value for c in al], axis=1))


def test_hyperbolic_band_vertex_norms_grow_near_band_edge():
    # the image runs away towards the parabolic set
    tor = torus()
    near = conormal_at(tor, math.pi / 2 + 0.02, 0.3)
    far = conormal_at(tor, math.pi, 0.3)
    assert np.linalg.norm(near) > 2 * np.linalg.norm(far)


def test_matched_asymptotic_trajectories():
    # the Euclidean asymptotic net of the conormal image, integrated in the
    # shared parameters, retraces the affine asymptotic net of the source
    R, r = 2.0, 1.0
    src_field = bde.torus_extended_field(torus(R, r))
    img_field = conormal_image_field(torus(R, r))
    seed = (1.35, 1.0)
    # steps small enough that polyline chord sagitta sits well under the
    # comparison tolerance, and short enough to stop before the projected
    # cusp, where curvature (hence sagitta) blows up
    params = flow.IntegrationParams(max_len=0.35, max_step_frac=5e-4)
    t_src = flow.integrate_asymptotic(src_field, seed, "plus", params)
    # match the image family to the source root at the seed
    d_src = bde.asymptotic_directions(src_field, *seed).dirs[0]
    img_dirs = bde.asymptotic_directions(img_field, *seed)
    fam = "plus" if abs(float(np.dot(img_dirs.dirs[0], d_src))) >= \
        abs(float(np.dot(img_dirs.dirs[-1], d_src))) else "minus"
    t_img = flow.integrate_asymptotic(img_field, seed, fam, params)
    if float(np.dot(t_img.points[5] - t_img.points[0],
                    t_src.points[5] - t_src.points[0])) < 0:
        t_img = flow.integrate_asymptotic(img_field, seed, fam, params, sweep=-1)
    common = min(t_src.samples[-1, 4], t_img.samples[-1, 4]) * 0.98
    sel = t_src.points[t_src.samples[:, 4] <= common]
    dev = max(point_polyline_distance(p, t_img.points) for p in sel)
    assert dev < 1e-5, dev


def point_polyline_distance(p, poly):
    a = poly[:-1]
    b = poly[1:]
    ab = b - a
    denom = np.einsum("ij,ij->i", ab, ab)
    denom[denom == 0] = 1.0
    t = np.clip(np.einsum("ij,ij->i", p - a, ab) / denom, 0.0, 1.0)
    proj = a + t[:, None] * ab
    return float(np.min(np.hypot(proj[:, 0] - p[0], proj[:, 1] - p[1])))


def test_affine_parabolic_point_both_determinants_vanish():
    # at a point where the net degenerates (l = m = 0, n != 0) the image
    # second form degenerates simultaneously
    eps, sigma, q13, q40 = 1, 0.9, 0.3, 0.5
    surf = sf.catalog_surface("pick", {
        "epsilon": eps, "sigma": sigma,
        "q": {(1, 3): q13, (3, 1): -eps * q13,
              (2, 2): -eps * (-2 * sigma ** 2 + q40), (4, 0): q40,
              (0, 4): q40 + 1.0}})
    fr = af.frame_jets(surf, 0.0, 0.0, order=4)
    l = float(af.dot(fr["nu_u"], fr["xi_u"]).value)
    m = float(af.dot(fr["nu_u"], fr["xi_v"]).value)
    n = float(af.dot(fr["nu_v"], fr["xi_v"]).value)
    assert abs(l * n - m * m) < 1e-10
    (e, f, g), _ = cn.second_form_of_conormal(fr)
    assert abs(e * g - f * f) < 1e-10
    assert abs(n) > 1e-3 and abs(g) > 1e-12  # not a totally degenerate point


def test_tangency_signals_agree_on_source_and_image():
    # along the shared degenerate curve, away from the Euclidean parabolic
    # point at the origin, the double directions of the source equation and
    # of the image second form coincide, so their tangency signals do too
    from affasym import singular as sg
    cg = sf.catalog_surface("cusp_gauss", {"q21": 1.0, "q40": 0.3},
                            domain=Rect(-0.09, 0.09, -0.12, 0.12))
    src = bde.extended_field_for(cg)
    img = conormal_image_field(cg)
    polys = bde.trace_zero_set(lambda u, v: bde.discriminant(src, u, v),
                               cg.domain, 256)
    poly = max(polys, key=len)
    keep = np.abs(poly[:, 0]) > 0.015  # stand off the parabolic point
    poly = poly[keep]
    s_src = sg._tangency_signal(src, poly)
    s_img = sg._tangency_signal(img, poly)
    ok = np.isfinite(s_src) & np.isfinite(s_img)
    assert ok.sum() > 20
    # same signal up to overall sign of the tangent convention
    agree = np.max(np.abs(s_src[ok] - s_img[ok]))
    flip = np.max(np.abs(s_src[ok] + s_img[ok]))
    assert min(agree, flip) < 1e-6
    # and it changes sign across the tangency point at the origin
    left = s_src[ok & (poly[:, 0] < 0)]
    right = s_src[ok & (poly[:, 0] > 0)]
    assert left.size and right.size
    assert np.sign(np.median(left)) != np.sign(np.median(right))


def components_reference(mask, wrap_u, wrap_v):
    """Flood fill of the valid grid mask (4-neighbourhood, wrapping across
    the seams that ``wrap_u``/``wrap_v`` name), numbering components in the
    row-major order of their first points."""
    nx, ny = mask.shape
    comp = -np.ones(mask.shape, dtype=int)
    count = 0
    for i in range(nx):
        for j in range(ny):
            if not mask[i, j] or comp[i, j] >= 0:
                continue
            comp[i, j] = count
            stack = [(i, j)]
            while stack:
                a, b = stack.pop()
                near = [(a - 1, b), (a + 1, b), (a, b - 1), (a, b + 1)]
                if wrap_u:
                    near += [((a - 1) % nx, b), ((a + 1) % nx, b)]
                if wrap_v:
                    near += [(a, (b - 1) % ny), (a, (b + 1) % ny)]
                for c, d in near:
                    if 0 <= c < nx and 0 <= d < ny and mask[c, d] and comp[c, d] < 0:
                        comp[c, d] = count
                        stack.append((c, d))
            count += 1
    return comp, count


def periodic_surface(wrap_u, wrap_v):
    return SimpleNamespace(period=(1.0 if wrap_u else None, 1.0 if wrap_v else None))


def labelling_cases():
    rng = np.random.default_rng(8)
    cases = []
    for wrap_u in (False, True):
        for wrap_v in (False, True):
            for shape in ((1, 9), (9, 1), (1, 1), (2, 2), (13, 17), (40, 31)):
                for density in (0.45, 0.6, 0.8, 1.0):
                    cases.append((rng.random(shape) < density, wrap_u, wrap_v))
    # bands that cut the grid, joined only across the seams
    band = np.ones((24, 20), dtype=bool)
    band[5:7, :] = False
    band[:, 12] = False
    for wrap_u in (False, True):
        for wrap_v in (False, True):
            cases.append((band, wrap_u, wrap_v))
    # a spiral: one long winding component
    spiral = np.zeros((21, 21), dtype=bool)
    lo, hi = 0, 20
    while lo <= hi:
        spiral[lo, lo:hi + 1] = spiral[lo:hi + 1, hi] = True
        spiral[hi, lo:hi + 1] = True
        if lo + 2 <= hi:
            spiral[lo + 2:hi + 1, lo] = True
            spiral[lo + 2, lo:lo + 3] = True
        lo, hi = lo + 2, hi - 2
    cases.append((spiral, False, False))
    cases.append((np.zeros((5, 4), dtype=bool), True, True))
    return cases


def test_components_match_flood_fill():
    region = Rect(0.0, 1.0, 0.0, 1.0)
    for mask, wrap_u, wrap_v in labelling_cases():
        got = cn._components(periodic_surface(wrap_u, wrap_v), region, mask)
        comp, count = components_reference(mask, wrap_u, wrap_v)
        assert got[1] == count
        assert np.array_equal(got[0], comp), (mask.shape, wrap_u, wrap_v)


@pytest.mark.parametrize("surf, region, res", [
    (torus(), None, (48, 24)),                              # both seams, two bands
    (torus(2.7), Rect(0.0, 2 * math.pi, 0.0, 3.0), (40, 9)),  # u seam only
    (torus(), Rect(1.0, 6.0, 0.0, 2 * math.pi), (30, 12)),  # v seam only
    (sf.catalog_surface("pick", {"epsilon": 1, "sigma": 0.9,
                                 "q": {(4, 0): 0.5, (0, 4): 1.5, (2, 2): 1.12}}),
     None, (24, 24)),
])
def test_mesh_components_match_flood_fill(surf, region, res):
    region = region or surf.domain
    mask = cn._grid_and_mask(surf, region, res, 0.05)[2]
    per_u, per_v = surf.period or (None, None)
    wrap_u = per_u is not None and abs((region.u1 - region.u0) - per_u) < 1e-9
    wrap_v = per_v is not None and abs((region.v1 - region.v0) - per_v) < 1e-9
    got, count = cn._components(surf, region, mask)
    want, want_count = components_reference(mask, wrap_u, wrap_v)
    assert count == want_count and np.array_equal(got, want)


def test_obj_export_matches_line_by_line_reference():
    rng = np.random.default_rng(12)
    n = 300
    verts = rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-300, 300, (n, 3))
    verts[rng.random((n, 3)) < 0.05] = -0.0
    verts[rng.random((n, 3)) < 0.02] = 5e-324
    comp = np.sort(rng.integers(0, 4, n))
    rng.shuffle(comp)
    comp = np.unique(comp, return_inverse=True)[1]
    faces = rng.integers(0, n, (200, 4))
    mesh = cn.ConormalMesh(vertices=verts, faces=faces, component_id=comp,
                           params=np.zeros((n, 2)), clipped=np.zeros(n, dtype=bool),
                           n_components=int(comp.max()) + 1)
    assert "".join(cn.export_mesh(mesh)) == obj_reference(mesh)
    one = cn.ConormalMesh(vertices=verts[:1], faces=np.zeros((0, 4), dtype=int),
                          component_id=np.zeros(1, dtype=int), params=np.zeros((1, 2)),
                          clipped=np.zeros(1, dtype=bool), n_components=1)
    assert "".join(cn.export_mesh(one)) == obj_reference(one)


def percent_export_mesh(mesh):
    """OBJ text by the former formula: %r per coordinate, %d per index."""
    comp = mesh.component_id
    order = np.argsort(comp, kind="stable")
    remap = np.empty(len(comp), dtype=int)
    remap[order] = np.arange(1, len(comp) + 1)
    parts = ["# conormal mesh export\n"]
    for c in range(mesh.n_components):
        verts = mesh.vertices[comp == c]
        quads = remap[mesh.faces[comp[mesh.faces[:, 0]] == c]]
        if len(verts):
            parts.append(f"o component_{c}\n")
            parts.append("v %r %r %r\n" * len(verts) % tuple(verts.ravel().tolist()))
            parts.append("f %d %d %d %d\n" * len(quads) % tuple(quads.ravel().tolist()))
    return "".join(parts)


def test_obj_export_matches_percent_format_on_exponent_and_non_finite_values():
    rng = np.random.default_rng(13)
    n = 400
    verts = rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-20, 20, (n, 3))
    pick = rng.random((n, 3))
    verts[pick < 0.03] = np.nan
    verts[(pick >= 0.03) & (pick < 0.06)] = np.inf
    verts[(pick >= 0.06) & (pick < 0.09)] = -np.inf
    verts[(pick >= 0.09) & (pick < 0.12)] = -0.0
    comp = rng.integers(0, 3, n)
    comp[comp == 1] = 2   # component 1 is empty
    faces = rng.integers(0, n, (300, 4))
    mesh = cn.ConormalMesh(vertices=verts, faces=faces, component_id=comp,
                           params=np.zeros((n, 2)), clipped=np.zeros(n, dtype=bool),
                           n_components=3)
    assert "".join(cn.export_mesh(mesh)) == percent_export_mesh(mesh)


def test_correspondence_csv_matches_repr_per_cell():
    rows = [{"point": (0.5, -1e-5), "degenerate": False, "lambda": 2.5e16,
             "residual": 5e-324, "normal_cross": 0.0},
            {"point": (1e-4, 3.0), "degenerate": True, "lambda": None, "residual": None,
             "normal_cross": -0.0},
            {"point": (np.pi, 9.999999999999999e-05), "degenerate": False,
             "lambda": float("nan"), "residual": float("inf"), "normal_cross": 1.5e-9}]
    lines = ["u,v,degenerate,lambda,residual,normal_cross"]
    for r in rows:
        lam = "" if r["lambda"] is None else repr(r["lambda"])
        res = "" if r["residual"] is None else repr(r["residual"])
        lines.append(f"{r['point'][0]!r},{r['point'][1]!r},"
                     f"{int(r['degenerate'])},{lam},{res},{r['normal_cross']!r}")
    assert cn.correspondence_report_csv(rows) == "\n".join(lines) + "\n"
    assert cn.correspondence_report_csv([]) == lines[0] + "\n"


@pytest.mark.parametrize("surf, res, norm_cap", [
    (torus(), (36, 18), 2.0),
    (sf.parametric_surface(["u + 0.1*sin(v)", "v", "0.5*u^2+v^2+0.2*u^3"],
                           Rect(-0.5, 0.5, -0.5, 0.5)), (12, 10), 1e3),
], ids=["torus", "file-nonpoly"])
def test_meshes_and_obj_are_the_same_in_blocks_of_seven_lanes(monkeypatch, surf, res,
                                                              norm_cap):
    whole = cn.conormal_mesh(surf, resolution=res, norm_cap=norm_cap)
    texts = ["".join(cn.export_mesh(mesh)) for mesh in whole]
    calls = []
    frame_jets = af.frame_jets

    def counting(surf, u, v, **kwargs):
        calls.append(len(u))
        return frame_jets(surf, u, v, **kwargs)

    monkeypatch.setattr(af, "frame_jets", counting)
    monkeypatch.setattr(af, "_LANES", 7)
    blocked = cn.conormal_mesh(surf, resolution=res, norm_cap=norm_cap)
    n = len(whole[0].vertices)
    assert n % 7 and calls == [7] * (n // 7) + [n % 7]
    for a, b in zip(whole, blocked):
        for name in ("vertices", "faces", "component_id", "params", "clipped"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert a.n_components == b.n_components
    assert ["".join(cn.export_mesh(mesh)) for mesh in blocked] == texts
