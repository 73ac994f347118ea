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

from . import affine
from .jsontext import float_texts
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


@dataclass
class ConormalMesh:
    vertices: np.ndarray          # (n, 3) positions
    faces: np.ndarray             # (k, 4) int quads of vertex indices
    component_id: np.ndarray      # (n,) int component label per vertex
    params: np.ndarray            # (n, 2) source (u, v) per vertex
    clipped: np.ndarray           # (n,) bool: |vertex| exceeded the norm cap
    n_components: int = 0


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
    return U, V, mask


def _components(surf, region, mask):
    """Connected components of the valid grid mask (4-neighborhood);
    periodic parameters wrap the adjacency across the seam.

    Labelled with array passes: every edge between two valid points hooks
    the larger of its two roots onto the smaller, then pointer jumping
    flattens the forest, until no edge joins two roots.  Each root ends as
    its component's first valid point in row-major order, so components are
    numbered in the order of their first points."""
    wrap_u, wrap_v = (bool(p) and abs(span - p) < 1e-9 for p, span in
                      zip(surf.period or (None, None),
                          (region.u1 - region.u0, region.v1 - region.v0)))
    n = np.count_nonzero(mask)
    index = -np.ones(mask.shape, dtype=np.intp)
    index[mask] = np.arange(n)
    pairs = [(index[:-1, :], index[1:, :]), (index[:, :-1], index[:, 1:])]
    if wrap_u:
        pairs.append((index[:1, :], index[-1:, :]))
    if wrap_v:
        pairs.append((index[:, :1], index[:, -1:]))
    a = np.concatenate([p.ravel() for p, _ in pairs])
    b = np.concatenate([q.ravel() for _, q in pairs])
    keep = (a >= 0) & (b >= 0)
    a, b = a[keep], b[keep]
    parent = np.arange(n)
    while True:
        ra, rb = parent[a], parent[b]
        joined = ra != rb
        if not joined.any():
            break
        np.minimum.at(parent, np.maximum(ra, rb)[joined], np.minimum(ra, rb)[joined])
        while True:
            up = parent[parent]
            if np.array_equal(up, parent):
                break
            parent = up
    roots, label = np.unique(parent, return_inverse=True)
    comp_grid = -np.ones(mask.shape, dtype=int)
    comp_grid[mask] = label
    return comp_grid, len(roots)


def _rows(vec):
    """Values of three scalar jets as rows: (n, 3) for a batch, (3,) at a point."""
    return np.stack([np.asarray(c.value, dtype=float) for c in vec], axis=-1)


def _norms(rows):
    # vecdot takes the same dot product per row as np.linalg.norm of one
    # vector, so a sample gives the same bits alone as inside a batch
    return np.sqrt(np.vecdot(rows, rows))


def _mesh_rows(surf, u, v):
    """Conormal rows, |nu_u ^ nu_v| and position rows of one block of grid
    points, from one ``frame_jets`` call."""
    fr = affine.frame_jets(surf, u, v, order=3, depth=1)
    wnorm = np.linalg.norm(np.cross(_rows(fr["nu_u"]), _rows(fr["nu_v"])), axis=1)
    return _rows(fr["nu"]), wnorm, _rows(fr["alpha"])


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
    U, V, mask = _grid_and_mask(surf, region, resolution, margin)
    uu, vv = U[mask], V[mask]
    verts, wnorm, alpha = map(np.concatenate, zip(*(
        _mesh_rows(surf, uu[s], vv[s]) for s in affine._lane_blocks(len(uu)))))
    bad = wnorm <= 1e-10
    if np.any(bad):
        k = int(np.nonzero(bad)[0][0])
        raise ImmersionError(
            f"conormal map fails to immerse at (u, v) = ({uu[k]}, {vv[k]})")
    clipped = np.linalg.norm(verts, axis=1) > norm_cap

    # quads of the grid in row-major order, numbered by valid vertex
    index = -np.ones(U.shape, dtype=int)
    index[mask] = np.arange(len(uu))
    quads = np.stack([index[:-1, :-1], index[1:, :-1], index[1:, 1:], index[:-1, 1:]],
                     axis=-1).reshape(-1, 4)
    faces = quads[(quads >= 0).all(axis=1)]
    comp_grid, n_comp = _components(surf, region, mask)
    shared = dict(component_id=comp_grid[mask], params=np.stack([uu, vv], axis=1),
                  n_components=n_comp)
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
    wv = _rows(affine.cross(nu_u, nu_v))
    norm = _norms(wv)
    bad = np.atleast_1d(norm <= 1e-10)
    if bad.any():
        raise ImmersionError(
            f"conormal map fails to immerse at sample {int(np.flatnonzero(bad)[0])}")
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
    ``affine._LANES``: ``v`` lines from one ``float_texts`` call, ``f`` lines
    from one orjson pass."""
    import orjson

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
        vsel, fsel = vorder[vcut[c]:vcut[c + 1]], forder[fcut[c]:fcut[c + 1]]
        yield f"o component_{c}\n"
        for s in affine._lane_blocks(len(vsel)):
            verts = mesh.vertices[vsel[s]]
            yield "v %s %s %s\n" * len(verts) % tuple(float_texts(verts))
        for s in affine._lane_blocks(len(fsel)):
            quads = remap[mesh.faces[fsel[s]]]
            if len(quads):
                text = orjson.dumps(quads, option=orjson.OPT_SERIALIZE_NUMPY).decode()
                yield "f " + text[2:-2].replace("],[", "\nf ").replace(",", " ") + "\n"
