"""Span recorder for the traced benchmark run.

Run as ``python bench/tracer.py SPANS.npz ARGV...``: it wraps the public
functions of every affasym module (plus the Jet2 products, ``Poly.__call__``,
``Portrait.to_json`` and the coefficient closures of every field that
``bde.extended_field_for`` builds), runs ``affasym.cli.main(ARGV)`` and writes
the spans to SPANS.npz.  Nothing inside the package changes; every span is
taken at a call from one module into another.

A span is (name, start, end, parent span, size, raised).  ``size`` is the
number of points of a batched call (0 for a scalar call) where that matters.
Counts that are not spans (accepted integrator steps) go to ``counters``.
``metrics`` turns a spans file into the per-layer metrics.
"""

from __future__ import annotations

import array
import functools
import importlib
import json
import sys
import time
import types

import numpy as np

MODULES = ("cli", "flow", "bde", "singular", "surface", "affine", "jets", "conormal")
CLI_FUNCTIONS = ("main", "cmd_analyze", "cmd_portrait", "cmd_conormal")
# module functions outside __all__ that a per-layer metric needs
EXTRA_FUNCTIONS = {"bde": ("lie_cartan_scaled",)}
UNARY = ("sin", "cos", "tan", "exp", "log", "sqrt", "abs_pow", "jet_apply_unary")


def _points(u, v):
    if np.ndim(u) == 0 and np.ndim(v) == 0:
        return 0
    return int(np.broadcast(np.asarray(u), np.asarray(v)).size)


class Recorder:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.size = array.array("q")
        self.t0 = array.array("d")
        self.t1 = array.array("d")
        self.raised = array.array("i")
        self.stack = [-1]
        self.counters = {}

    def _nid(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, sizer=None, toplevel_only=False):
        nid = self._nid(name)
        names, parents, sizes = self.name, self.parent, self.size
        t0s, t1s, raised, stack = self.t0, self.t1, self.raised, self.stack
        clock = time.perf_counter
        depth = [0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if toplevel_only and depth[0]:
                return fn(*args, **kwargs)
            idx = len(t0s)
            names.append(nid)
            parents.append(stack[-1])
            sizes.append(sizer(*args, **kwargs) if sizer else 0)
            t1s.append(0.0)
            stack.append(idx)
            depth[0] += 1
            ok = False
            t0s.append(clock())
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                t1s[idx] = clock()
                depth[0] -= 1
                stack.pop()
                if not ok:
                    raised.append(idx)

        return wrapper

    def count(self, name, fn, predicate):
        counters = self.counters
        counters.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if predicate(*args, **kwargs):
                counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def save(self, path):
        np.savez(path, name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 size=np.frombuffer(self.size, dtype=np.int64),
                 t0=np.frombuffer(self.t0, dtype=float),
                 t1=np.frombuffer(self.t1, dtype=float),
                 raised=np.frombuffer(self.raised, dtype=np.int32),
                 names=np.array(json.dumps(self.names)),
                 counters=np.array(json.dumps(self.counters)))


def _replace_everywhere(mods, original, wrapper):
    """Point every module global, module-level dict entry and class attribute
    that holds `original` at `wrapper`."""
    for mod in mods:
        for key, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, key, wrapper)
            elif isinstance(val, dict):
                for k, v in list(val.items()):
                    if v is original:
                        val[k] = wrapper


def install(rec):
    from affasym import bde, flow, jets, surface

    mods = [importlib.import_module(f"affasym.{m}") for m in MODULES]
    for mod in mods:
        short = mod.__name__.rsplit(".", 1)[1]
        public = CLI_FUNCTIONS if short == "cli" else mod.__all__
        public = tuple(public) + EXTRA_FUNCTIONS.get(short, ())
        for fname in public:
            fn = getattr(mod, fname)
            if not isinstance(fn, types.FunctionType) or fname == "extended_field_for":
                continue
            sizer = None
            if fname in ("affine_point_data", "frame_jets"):
                sizer = lambda surf, u, v, *a, **k: max(_points(u, v), 1)  # noqa: E731
            wrapper = rec.wrap(f"{short}.{fname}", fn, sizer=sizer,
                               toplevel_only=fname == "eval_expression_jet")
            _replace_everywhere(mods, fn, wrapper)

    mul = rec.wrap("jets.mul", jets.Jet2.__mul__)
    jets.Jet2.__mul__ = jets.Jet2.__rmul__ = mul
    surface.Poly.__call__ = rec.wrap("surface.poly_call", surface.Poly.__call__)
    flow.Portrait.to_json = rec.wrap("flow.Portrait.to_json", flow.Portrait.to_json)
    flow._project_slope = rec.count(
        "flow.accepted_steps", flow._project_slope,
        lambda fld, u, v, slope, chart, iters=1: iters == 1)

    extended = bde.extended_field_for

    def traced_field(surf):
        fld = extended(surf)
        fld.coeff = rec.wrap("bde.coeff", fld.coeff, sizer=_points)
        jet = fld.jet_coeff
        by_order = {o: rec.wrap(f"bde.jet_coeff.o{o}", jet) for o in (1, 2)}
        other = rec.wrap("bde.jet_coeff.other", jet)

        def jet_coeff(u, v, order=2):
            return by_order.get(order, other)(u, v, order)

        fld.jet_coeff = jet_coeff
        return fld

    wrapped = rec.wrap("bde.extended_field_for", traced_field)
    _replace_everywhere(mods, extended, wrapped)


# -- metrics -----------------------------------------------------------------


def _percentile_ms(durs, p):
    """p-th percentile in ms, or 0 when fewer than ten samples lie beyond it."""
    if len(durs) * (1.0 - p / 100.0) < 10:
        return 0.0
    return float(np.percentile(durs, p)) * 1e3


def load(paths):
    """Concatenate spans files (one per command) into one set of arrays."""
    names, ids, counters = [], {}, {}
    cols = {k: [] for k in ("name", "parent", "size", "dur", "raised")}
    offset = 0
    for path in paths:
        with np.load(path) as z:
            local = json.loads(str(z["names"]))
            for key, val in json.loads(str(z["counters"])).items():
                counters[key] = counters.get(key, 0) + val
            for nm in local:
                if nm not in ids:
                    ids[nm] = len(names)
                    names.append(nm)
            remap = np.array([ids[nm] for nm in local], dtype=np.int64)
            cols["name"].append(remap[z["name"]])
            cols["parent"].append(np.where(z["parent"] >= 0, z["parent"] + offset, -1))
            cols["size"].append(z["size"])
            cols["dur"].append(z["t1"] - z["t0"])
            cols["raised"].append(z["raised"] + offset)
            offset += len(z["t0"])
    arrays = {k: np.concatenate(v) for k, v in cols.items()}
    return names, counters, arrays


def metrics(paths, outputs):
    """Per-layer metrics from the spans files of one iteration.  `outputs`
    holds exact counts read from the command outputs (trajectories, samples,
    reports)."""
    names, counters, a = load(paths)
    nid, parent, size = a["name"].astype(int), a["parent"].astype(int), a["size"]
    dur, raised = a["dur"], a["raised"].astype(int)
    n = len(dur)
    if n == 0:
        raise ValueError(f"{paths} hold no spans")
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)[:n]
    self_t = dur - child
    label = np.array(names, dtype=object)[nid]
    layer = np.array([s.split(".", 1)[0] for s in names], dtype=object)[nid]

    def sel(*span_names):
        return np.isin(label, span_names)

    def calls(*span_names):
        return int(sel(*span_names).sum())

    def total(*span_names):
        return float(dur[sel(*span_names)].sum())

    def self_s(*span_names):
        return float(self_t[sel(*span_names)].sum())

    def per_call_us(*span_names):
        c = calls(*span_names)
        return total(*span_names) / c * 1e6 if c else 0.0

    m = {}
    for mod in MODULES:
        m[f"{mod}.self_s"] = float(self_t[layer == mod].sum())

    m["surface.poly_eval_jet.calls"] = calls("surface.poly_eval_jet")
    m["surface.poly_eval_jet.self_s"] = self_s("surface.poly_eval_jet")
    m["surface.poly_eval_jet.us_per_call"] = per_call_us("surface.poly_eval_jet")
    m["surface.poly_call.s"] = total("surface.poly_call")
    m["surface.eval_expression_jet.s"] = total("surface.eval_expression_jet")

    integ = sel("flow.integrate_asymptotic")
    idx = np.nonzero(integ)[0]
    accepted = counters.get("flow.accepted_steps", 0)
    rhs = int((sel("bde.lie_cartan_scaled") & np.isin(parent, idx)).sum())
    m["flow.integrate.self_s"] = self_s("flow.integrate_asymptotic")
    m["flow.us_per_step"] = total("flow.integrate_asymptotic") / accepted * 1e6 \
        if accepted else 0.0
    m["flow.integrate.ms.p50"] = _percentile_ms(dur[integ], 50)
    m["flow.integrate.ms.p90"] = _percentile_ms(dur[integ], 90)
    m["flow.accept_ratio"] = accepted / (rhs / 6.0) if rhs else 0.0
    m["flow.rhs_per_step"] = rhs / accepted if accepted else 0.0
    m["flow.drop_ratio"] = float(np.isin(raised, idx).sum()) / len(idx) if len(idx) else 0.0
    m["flow.trajectories"] = outputs.get("trajectories", 0)
    m["flow.samples"] = outputs.get("samples", 0)
    m["flow.write_s"] = total("flow.portrait_svg", "flow.Portrait.to_json")

    for o in (1, 2):
        m[f"bde.jet_coeff.o{o}.calls"] = calls(f"bde.jet_coeff.o{o}")
        m[f"bde.jet_coeff.o{o}.us_per_call"] = per_call_us(f"bde.jet_coeff.o{o}")
    coeff = sel("bde.coeff")
    m["bde.coeff.scalar_calls"] = int((coeff & (size == 0)).sum())
    m["bde.coeff.batch_points"] = int(size[coeff].sum())
    m["bde.lie_cartan.self_s"] = self_s("bde.lie_cartan", "bde.lie_cartan_scaled")
    m["bde.trace_zero_set.calls"] = calls("bde.trace_zero_set")
    m["bde.trace_zero_set.s"] = total("bde.trace_zero_set")

    m["singular.detect_special_points.s"] = total("singular.detect_special_points")
    m["singular.find_folded_points.s"] = total("singular.find_folded_points")
    m["singular.classify.calls"] = calls("singular.classify_folded",
                                         "singular.classify_flat_affine_umbilic",
                                         "singular.classify_flat_euclid_umbilic")
    m["singular.reports"] = outputs.get("reports", 0)

    apd = sel("affine.affine_point_data")
    m["affine.affine_point_data.calls"] = int(apd.sum())
    points = int(size[apd].sum())
    m["affine.affine_point_data.us_per_point"] = float(dur[apd].sum()) / points * 1e6 \
        if points else 0.0
    fj = sel("affine.frame_jets")
    m["affine.frame_jets.points_per_call"] = float(size[fj].sum()) / int(fj.sum()) \
        if fj.any() else 0.0

    m["jets.mul.calls"] = calls("jets.mul")
    m["jets.mul.us_per_call"] = per_call_us("jets.mul")
    m["jets.div.calls"] = calls("jets.jet_div")
    unary = sel(*(f"jets.{f}" for f in UNARY))
    m["jets.unary.calls"] = int((unary & ~np.isin(parent, np.nonzero(unary)[0])).sum())

    m["conormal.mesh_s"] = total("conormal.conormal_mesh", "conormal.source_mesh")
    m["conormal.verify_s"] = total("conormal.verify_conormal_correspondence")
    m["conormal.export_s"] = total("conormal.export_mesh", "conormal.correspondence_report_csv")
    m["trace.spans"] = n
    return m


def main(argv):
    path, args = argv[0], argv[1:]
    rec = Recorder()
    install(rec)
    from affasym import cli

    code = cli.main(args)
    rec.save(path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
