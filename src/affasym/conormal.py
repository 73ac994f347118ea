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

import numpy as np

from . import affine
from .jsontext import float_texts, row_texts
from .surface import Band

__all__ = [
    "ConormalMesh",
    "ImmersionError",
    "conormal_mesh",
    "export_mesh",
    "correspondence_report_csv",
    "second_form_of_conormal",
    "verify_conormal_correspondence",
]


class ImmersionError(ArithmeticError):
    """The conormal map fails to immerse."""


# the least standoff of a mesh or sample point from an excluded strip
MARGIN = 0.05


class ConormalMesh:
    def __init__(self, vertices, faces, component_id, params, clipped, n_components=0):
        self.vertices = vertices            # (n, 3) positions
        self.faces = faces                  # (k, 4) int quads of vertex indices
        self.component_id = component_id    # (n,) int component label per vertex
        self.params = params                # (n, 2) source (u, v) per vertex
        self.clipped = clipped              # (n,) bool: |vertex| exceeded the norm cap
        self.n_components = n_components


def _grid_and_mask(surf, region, resolution, margin):
    """The grid's axis samples ``us``, ``vs`` and their valid masks
    ``valid_u``, ``valid_v``.  Every excluded strip reads one coordinate, so
    the valid grid is their product ``valid_u[:, None] & valid_v[None, :]``."""
    nx, ny = resolution
    axes = {"u": (region.u0, region.u1, nx), "v": (region.v0, region.v1, ny)}
    samples = {a: np.linspace(*ax) for a, ax in axes.items()}
    valid = {a: np.ones(n, dtype=bool) for a, (_, _, n) in axes.items()}
    for band in surf.excluded:
        lo, hi, n = axes[band.axis]
        # at least one grid step wide, so the strip severs mesh connectivity
        half = max(band.halfwidth, margin, 0.51 * (hi - lo) / max(n - 1, 1))
        valid[band.axis] &= ~Band(band.axis, band.center, half).excludes(*samples.values())
    return samples["u"], samples["v"], valid["u"], valid["v"]


def _runs(valid, span, period):
    """Run number of each valid index of one axis mask (from 0, in order)
    and the number of runs; the last run joins the first when the axis spans
    its period."""
    start = valid & ~np.concatenate(([False], valid[:-1]))
    run = np.cumsum(start) - 1
    count = int(start.sum())
    if period and abs(span - period) < 1e-9 and count > 1 and valid[0] and valid[-1]:
        count -= 1
        run[run == count] = 0
    return run, count


def _components(surf, region, valid_u, valid_v):
    """Connected components of the valid grid ``valid_u[:, None] &
    valid_v[None, :]`` (4-neighborhood), as a label grid (-1 where invalid)
    and their number; periodic parameters wrap the adjacency across the seam.

    A component of a product of axis masks is a product of axis runs, so
    point (i, j) is labelled ``run_u[i] * n_v + run_v[j]`` with n_v runs of
    v: components are numbered in the row-major order of their first
    points."""
    per_u, per_v = surf.period or (None, None)
    run_u, n_u = _runs(valid_u, region.u1 - region.u0, per_u)
    run_v, n_v = _runs(valid_v, region.v1 - region.v0, per_v)
    label = np.where(np.outer(valid_u, valid_v), run_u[:, None] * n_v + run_v, -1)
    return label, n_u * n_v


def _rows(vec):
    """Values of three scalar jets as rows: (n, 3) for a batch, (3,) at a point."""
    return np.stack([np.asarray(c.value, dtype=float) for c in vec], axis=-1)


def _norms(rows):
    # vecdot takes the same dot product per row as np.linalg.norm of one
    # vector, so a sample gives the same bits alone as inside a batch
    return np.sqrt(np.vecdot(rows, rows))


def _immersion(nu_u, nu_v):
    """Rows of nu_u ^ nu_v and their norms, from the values of two triples
    of jets, and the first point, in batch order, where the conormal map
    fails to immerse (norm at most 1e-10), or None."""
    wv = np.cross(_rows(nu_u), _rows(nu_v))
    norm = _norms(wv)
    bad = np.flatnonzero(norm <= 1e-10)
    return wv, norm, int(bad[0]) if len(bad) else None


def _mesh_rows(surf, u, v):
    """Conormal rows and position rows of one block of grid points, from
    one ``frame_jets`` call."""
    fr = affine.frame_jets(surf, u, v, order=3, depth=1)
    k = _immersion(fr["nu_u"], fr["nu_v"])[2]
    if k is not None:
        raise ImmersionError(f"conormal map fails to immerse at (u, v) = ({u[k]}, {v[k]})")
    return _rows(fr["nu"]), _rows(fr["alpha"])


def conormal_mesh(surf, region=None, resolution=(48, 48), margin=MARGIN, norm_cap=1e3):
    """Grid meshes ``(source, image)`` of the surface and of its conormal
    image, from one grid, one component labelling and one ``frame_jets``
    call per block of ``affine._LANES`` valid grid points.

    Exclusion strips carried by the surface are widened to at least
    ``margin`` (the map blows up at the parabolic set; a finite mesh needs a
    standoff).  Both meshes share vertex numbering (row-major over the valid
    grid points), parameters and components, which are the connected
    components of the valid grid mask.  Image vertices whose norm exceeds
    ``norm_cap`` are kept but flagged clipped, and the image keeps only the
    source faces that touch no clipped vertex.
    """
    region = region or surf.domain
    us, vs, valid_u, valid_v = _grid_and_mask(surf, region, resolution, margin)
    iu, iv = np.flatnonzero(valid_u), np.flatnonzero(valid_v)
    uu, vv = np.repeat(us[iu], len(iv)), np.tile(vs[iv], len(iu))
    verts, alpha = map(np.concatenate, zip(*(
        _mesh_rows(surf, uu[s], vv[s]) for s in affine._lane_blocks(len(uu)))))
    clipped = np.linalg.norm(verts, axis=1) > norm_cap

    # quads of the grid in row-major order, numbered by valid vertex: the
    # valid indices of ranks k and l start a cell where the next ones follow
    ku, kv = np.flatnonzero(np.diff(iu) == 1), np.flatnonzero(np.diff(iv) == 1)
    faces = (ku[:, None] * len(iv) + kv).reshape(-1, 1) + [0, len(iv), len(iv) + 1, 1]
    comp_grid, n_comp = _components(surf, region, valid_u, valid_v)
    shared = dict(component_id=comp_grid[np.ix_(iu, iv)].ravel(),
                  params=np.stack([uu, vv], axis=1), n_components=n_comp)
    source = ConormalMesh(vertices=alpha, faces=faces,
                          clipped=np.zeros(len(uu), dtype=bool), **shared)
    image = ConormalMesh(vertices=verts, faces=faces[~clipped[faces].any(axis=1)],
                         clipped=clipped, **shared)
    return source, image


def second_form_of_conormal(frame):
    """(e, f, g) of the conormal image and its unit normal, as arrays over
    the points of an order-4 ``affine.frame_jets`` result (depth >= 1); only
    its nu_u and nu_v are read.  ``ImmersionError`` names the first point,
    in batch order, where the image fails to immerse."""
    nu_u, nu_v = frame["nu_u"], frame["nu_v"]
    wv, norm, k = _immersion(nu_u, nu_v)
    if k is not None:
        raise ImmersionError(f"conormal map fails to immerse at sample {k}")
    nvec = wv / norm[..., None]
    second = (_rows(c.du() for c in nu_u), _rows(c.dv() for c in nu_u),
              _rows(c.dv() for c in nu_v))
    e, f, g = (sum(nvec[..., k] * d[..., k] for k in range(3)) for d in second)
    return (e, f, g), nvec


def verify_conormal_correspondence(surf, sample_points):
    """Proportionality report between II of the conormal image and (l, m, n).

    One row per sample, all read from one ``frame_jets`` call: the scalar
    factor lambda (ratio in the best-conditioned slot), the normalized
    residual of (e, f, g) - lambda (l, m, n), and the alignment of the image
    normal with the affine normal.  Samples where all of l, m, n vanish are
    marked degenerate (all below 1e-12) and carry no factor.
    """
    pts = np.asarray(sample_points, dtype=float).reshape(-1, 2)
    fr = affine.frame_jets(surf, pts[:, 0], pts[:, 1], order=4)
    lmn = _rows(affine.lmn_from_frame(fr))
    efg, nvec = second_form_of_conormal(fr)
    efg = np.stack(efg, axis=-1)
    xi = _rows(fr["xi"])
    cross = _norms(np.cross(nvec, xi / _norms(xi)[:, None]))
    degenerate = np.max(np.abs(lmn), axis=1) < 1e-12
    # best-conditioned slot: the first of l, m, n with the largest modulus
    k = np.argmax(np.abs(lmn), axis=1)
    at = np.arange(len(pts))
    lam = np.divide(efg[at, k], lmn[at, k], out=np.zeros(len(pts)), where=~degenerate)
    resid = np.max(np.abs(efg - lam[:, None] * lmn), axis=1) / \
        np.maximum(np.max(np.abs(efg), axis=1), 1e-30)
    return [{"point": (float(u), float(v)), "degenerate": bool(d),
             "lambda": None if d else float(la), "residual": None if d else float(r),
             "normal_cross": float(c)}
            for (u, v), d, la, r, c in zip(pts, degenerate, lam, resid, cross)]


def correspondence_report_csv(rows):
    cells = [(*r["point"], r["lambda"], r["residual"], r["normal_cross"]) for r in rows]
    texts = iter(float_texts(np.array(cells, dtype=float).reshape(-1, 5)))
    lines = ["u,v,degenerate,lambda,residual,normal_cross"]
    for r, row in zip(rows, cells):
        u, v, lam, res, cross = ("" if c is None else t for c, t in zip(row, texts))
        lines.append(f"{u},{v},{int(r['degenerate'])},{lam},{res},{cross}")
    return "\n".join(lines) + "\n"


def export_mesh(mesh):
    """Wavefront OBJ text in chunks: components as separate objects,
    1-indexed faces.

    Vertices and faces are sorted by component once (stably, so each object
    keeps the mesh order) and written object by object, in blocks of
    ``affine._LANES``, each block's ``v`` or ``f`` lines from one
    ``row_texts`` call."""
    comp = mesh.component_id
    vorder = np.argsort(comp, kind="stable")
    remap = np.empty(len(comp), dtype=int)
    remap[vorder] = np.arange(1, len(comp) + 1)
    face_comp = comp[mesh.faces[:, 0]]
    forder = np.argsort(face_comp, kind="stable")
    labels = np.arange(mesh.n_components + 1)
    vcut = np.searchsorted(comp[vorder], labels)
    fcut = np.searchsorted(face_comp[forder], labels)
    yield "# conormal mesh export\n"
    for c in range(mesh.n_components):
        if vcut[c] == vcut[c + 1]:
            continue
        yield f"o component_{c}\n"
        for tag, rows in (("v", mesh.vertices[vorder[vcut[c]:vcut[c + 1]]]),
                          ("f", remap[mesh.faces[forder[fcut[c]:fcut[c + 1]]]])):
            for s in affine._lane_blocks(len(rows)):
                texts = row_texts(rows[s])
                if texts:
                    yield f"{tag} " + f"\n{tag} ".join(texts).replace(",", " ") + "\n"
