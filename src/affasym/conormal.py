"""The conormal image as a surface: meshing, its Euclidean second form, and
the correspondence between its asymptotic lines and the affine asymptotic
lines of the source surface.

The conormal map scales the Euclidean unit normal by |K|^(-1/4); its image
is immersed wherever the source is non-parabolic.  The unit normal of the
image is parallel to the affine normal of the source, and the second-form
coefficients of the image are proportional to the third-form coefficients
(l, m, n) of the source with a nowhere-zero factor, so the two direction
equations have identical solutions in the shared parameter domain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import affine, jets
from .surface import Band

__all__ = [
    "ConormalMesh",
    "ImmersionError",
    "conormal_mesh",
    "source_mesh",
    "export_mesh",
    "correspondence_report_csv",
    "conormal_point",
    "second_form_of_conormal",
    "verify_conormal_correspondence",
    "export_mesh_obj",
]


class ImmersionError(ArithmeticError):
    pass


@dataclass
class ConormalMesh:
    vertices: np.ndarray          # (n, 3) conormal positions
    faces: list                   # quads as 4-tuples of vertex indices
    component_id: np.ndarray      # (n,) int component label per vertex
    params: np.ndarray            # (n, 2) source (u, v) per vertex
    clipped: np.ndarray           # (n,) bool: |vertex| exceeded the norm cap
    n_components: int = 0


def conormal_point(surf, u, v, guard=jets.DEFAULT_EPS):
    """Conormal vector at one parameter point."""
    fr = affine.frame_jets(surf, u, v, order=2, guard=guard, honor_excluded=False, depth=0)
    return np.array([float(c.value) for c in fr["nu"]])


def _grid_and_mask(surf, region, resolution, margin):
    if np.isscalar(resolution):
        resolution = (int(resolution), int(resolution))
    nx, ny = resolution
    us = np.linspace(region.u0, region.u1, nx)
    vs = np.linspace(region.v0, region.v1, ny)
    U, V = np.meshgrid(us, vs, indexing="ij")
    du = (region.u1 - region.u0) / max(nx - 1, 1)
    dv = (region.v1 - region.v0) / max(ny - 1, 1)
    mask = np.ones(U.shape, dtype=bool)
    for band in surf.excluded:
        # at least one grid step wide, so the strip severs mesh connectivity
        step = du if band.axis == "u" else dv
        wide = Band(band.axis, band.center, max(band.halfwidth, margin, 0.51 * step))
        mask &= ~wide.excludes(U, V)
    return nx, ny, U, V, mask


def _components(surf, region, mask, nx, ny):
    """Connected components of the valid grid mask (4-neighborhood);
    periodic parameters wrap the adjacency across the seam."""
    per_u, per_v = getattr(surf, "periodic", (False, False))
    wrap_u = bool(per_u and surf.period_u and
                  abs((region.u1 - region.u0) - surf.period_u) < 1e-9)
    wrap_v = bool(per_v and surf.period_v and
                  abs((region.v1 - region.v0) - surf.period_v) < 1e-9)

    def neighbors(a, b):
        cand = [(a - 1, b), (a + 1, b), (a, b - 1), (a, b + 1)]
        if wrap_u and a == 0:
            cand.append((nx - 1, b))
        if wrap_u and a == nx - 1:
            cand.append((0, b))
        if wrap_v and b == 0:
            cand.append((a, ny - 1))
        if wrap_v and b == ny - 1:
            cand.append((a, 0))
        return cand

    comp_grid = -np.ones(mask.shape, dtype=int)
    n_comp = 0
    for i in range(nx):
        for j in range(ny):
            if not mask[i, j] or comp_grid[i, j] >= 0:
                continue
            stack = [(i, j)]
            comp_grid[i, j] = n_comp
            while stack:
                a, b = stack.pop()
                for (c, d) in neighbors(a, b):
                    if 0 <= c < nx and 0 <= d < ny and mask[c, d] and comp_grid[c, d] < 0:
                        comp_grid[c, d] = n_comp
                        stack.append((c, d))
            n_comp += 1
    return comp_grid, n_comp


def _faces_from_mask(mask, index, valid, nx, ny):
    faces = []
    for i in range(nx - 1):
        for j in range(ny - 1):
            if valid[i, j] and valid[i + 1, j] and valid[i + 1, j + 1] and valid[i, j + 1]:
                faces.append((int(index[i, j]), int(index[i + 1, j]),
                              int(index[i + 1, j + 1]), int(index[i, j + 1])))
    return faces


def conormal_mesh(surf, region=None, resolution=(48, 48), margin=0.05,
                  guard=jets.DEFAULT_EPS, norm_cap=1e3):
    """Grid mesh of the conormal image, avoiding the parabolic set.

    Exclusion strips carried by the surface are widened to at least
    ``margin`` (the map blows up at the parabolic set; a finite mesh needs a
    standoff).  Vertices whose conormal norm exceeds ``norm_cap`` are kept
    but flagged clipped and excluded from faces.  Components are connected
    components of the valid grid mask.
    """
    region = region or surf.domain
    nx, ny, U, V, mask = _grid_and_mask(surf, region, resolution, margin)

    # evaluate nu and its derivatives on the valid subset
    uu, vv = U[mask], V[mask]
    fr = affine.frame_jets(surf, uu, vv, order=3, guard=guard, honor_excluded=False, depth=1)
    nu = fr["nu"]
    verts = np.stack([np.asarray(c.value) for c in nu], axis=1)
    nu_u = np.stack([np.asarray(c.value) for c in fr["nu_u"]], axis=1)
    nu_v = np.stack([np.asarray(c.value) for c in fr["nu_v"]], axis=1)
    wedge = np.cross(nu_u, nu_v)
    wnorm = np.linalg.norm(wedge, axis=1)
    bad = wnorm <= 1e-10
    if np.any(bad):
        k = int(np.nonzero(bad)[0][0])
        raise ImmersionError(
            f"conormal map fails to immerse at (u, v) = ({uu[k]}, {vv[k]})")

    clipped = np.linalg.norm(verts, axis=1) > norm_cap

    # vertex numbering in row-major grid order
    index = -np.ones(U.shape, dtype=int)
    index[mask] = np.arange(int(mask.sum()))
    comp_grid, n_comp = _components(surf, region, mask, nx, ny)
    ok = mask.copy()
    ok[mask] = ~clipped[index[mask]]
    faces = _faces_from_mask(mask, index, ok, nx, ny)

    return ConormalMesh(
        vertices=verts,
        faces=faces,
        component_id=comp_grid[mask],
        params=np.stack([uu, vv], axis=1),
        clipped=clipped,
        n_components=n_comp,
    )


def source_mesh(surf, region=None, resolution=(48, 48), margin=0.05):
    """Companion grid mesh of the source surface itself, same mask layout."""
    region = region or surf.domain
    nx, ny, U, V, mask = _grid_and_mask(surf, region, resolution, margin)
    uu, vv = U[mask], V[mask]
    al = surf.eval_jets(uu, vv, order=1, check=False)
    verts = np.stack([np.asarray(c.value) for c in al], axis=1)
    index = -np.ones(U.shape, dtype=int)
    index[mask] = np.arange(int(mask.sum()))
    comp_grid, n_comp = _components(surf, region, mask, nx, ny)
    faces = _faces_from_mask(mask, index, mask, nx, ny)
    return ConormalMesh(
        vertices=verts,
        faces=faces,
        component_id=comp_grid[mask],
        params=np.stack([uu, vv], axis=1),
        clipped=np.zeros(len(verts), dtype=bool),
        n_components=n_comp,
    )


def second_form_of_conormal(surf, u, v, guard=jets.DEFAULT_EPS):
    """(e, f, g) of the conormal image and its unit normal, at source (u, v)."""
    fr = affine.frame_jets(surf, u, v, order=4, guard=guard, honor_excluded=False, depth=1)
    nu_u, nu_v = fr["nu_u"], fr["nu_v"]
    nuu = tuple(c.du() for c in nu_u)
    nuv = tuple(c.dv() for c in nu_u)
    nvv = tuple(c.dv() for c in nu_v)
    w = affine.cross(nu_u, nu_v)
    wv = np.array([float(c.value) for c in w])
    norm = np.linalg.norm(wv)
    if norm <= 1e-10:
        raise ImmersionError(f"conormal map fails to immerse at ({u}, {v})")
    nvec = wv / norm
    e = float(sum(nvec[k] * float(nuu[k].value) for k in range(3)))
    f = float(sum(nvec[k] * float(nuv[k].value) for k in range(3)))
    g = float(sum(nvec[k] * float(nvv[k].value) for k in range(3)))
    return (e, f, g), nvec


def verify_conormal_correspondence(surf, sample_points, guard=jets.DEFAULT_EPS,
                                   degenerate_tol=1e-12):
    """Proportionality report between II of the conormal image and (l, m, n).

    One row per sample: the scalar factor lambda (ratio in the best-
    conditioned slot), the normalized residual of (e, f, g) - lambda (l, m, n),
    and the alignment of the image normal with the affine normal.  Samples
    where all of l, m, n vanish are marked degenerate and carry no factor.
    """
    rows = []
    for (u, v) in sample_points:
        fr = affine.frame_jets(surf, u, v, order=4, guard=guard, honor_excluded=False)
        l, m, n = (float(c.value) for c in affine.lmn_from_frame(fr))
        (e, f, g), nvec = second_form_of_conormal(surf, u, v, guard)
        xi = np.array([float(c.value) for c in fr["xi"]])
        xin = xi / np.linalg.norm(xi)
        cross_norm = float(np.linalg.norm(np.cross(nvec, xin)))
        scale = max(abs(l), abs(m), abs(n))
        if scale < degenerate_tol:
            rows.append({"point": (float(u), float(v)), "degenerate": True,
                         "lambda": None, "residual": None,
                         "normal_cross": cross_norm})
            continue
        trip = {"l": (l, e), "m": (m, f), "n": (n, g)}
        key = max(trip, key=lambda k: abs(trip[k][0]))
        lam = trip[key][1] / trip[key][0]
        resid = max(abs(e - lam * l), abs(f - lam * m), abs(g - lam * n))
        norm = max(abs(e), abs(f), abs(g), 1e-30)
        rows.append({"point": (float(u), float(v)), "degenerate": False,
                     "lambda": lam, "residual": resid / norm,
                     "normal_cross": cross_norm})
    return rows


def export_mesh(mesh, format="obj"):
    """Serialize a mesh; ``obj`` is the only supported format."""
    if format != "obj":
        raise ValueError(f"unsupported mesh format {format!r}")
    return export_mesh_obj(mesh)


def correspondence_report_csv(rows):
    lines = ["u,v,degenerate,lambda,residual,normal_cross"]
    for r in rows:
        lam = "" if r["lambda"] is None else repr(r["lambda"])
        res = "" if r["residual"] is None else repr(r["residual"])
        lines.append(f"{r['point'][0]!r},{r['point'][1]!r},"
                     f"{int(r['degenerate'])},{lam},{res},{r['normal_cross']!r}")
    return "\n".join(lines) + "\n"


def export_mesh_obj(mesh):
    """Wavefront OBJ text: components as separate objects, 1-indexed faces."""
    lines = ["# conormal mesh export"]
    order = np.argsort(mesh.component_id, kind="stable")
    remap = np.empty(len(mesh.vertices), dtype=int)
    remap[order] = np.arange(len(mesh.vertices))
    face_comp = [mesh.component_id[f[0]] for f in mesh.faces]
    for comp in range(mesh.n_components):
        sel = np.nonzero(mesh.component_id == comp)[0]
        if len(sel) == 0:
            continue
        lines.append(f"o component_{comp}")
        for k in sel:
            x, y, z = (float(t) for t in mesh.vertices[k])
            lines.append(f"v {x!r} {y!r} {z!r}")
        for face, fc in zip(mesh.faces, face_comp):
            if fc == comp:
                a, b, c, d = (remap[idx] + 1 for idx in face)
                lines.append(f"f {a} {b} {c} {d}")
    return "\n".join(lines) + "\n"
