import inspect
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from affasym import affine, cli
from affasym.surface import Rect

PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_cli(*args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(PKG_ROOT, "src")
    return subprocess.run([sys.executable, "-m", "affasym", *args],
                          capture_output=True, text=True, cwd=cwd, env=env)


def test_analyze_torus_row_count(tmp_path):
    res = run_cli("analyze", "--surface", "catalog:torus", "--R", "3", "--r", "1",
                  "--res", "32", "--out", str(tmp_path), "--format", "json,csv")
    assert res.returncode == 0, res.stderr
    rows = json.loads((tmp_path / "analyze.json").read_text())
    assert len(rows) == 1024
    assert {"K", "K_aff", "euclid_class", "aff_class"} <= set(rows[0])
    csv = (tmp_path / "analyze.csv").read_text().splitlines()
    assert csv[0].startswith("u,v,")
    assert len(csv) == 1025


def test_analyze_bad_expression(tmp_path):
    res = run_cli("analyze", "--surface", "monge:sin(u", "--out", str(tmp_path))
    assert res.returncode == 2
    assert "offset 6" in res.stderr


def test_analyze_flags_flat_affine_umbilic(tmp_path):
    eps, sigma, q13, q40 = 1, 0.9, 0.3, 0.5
    cfg = {
        "kind": "catalog", "id": "pick",
        "params": {"epsilon": eps, "sigma": sigma,
                   "q": {"1,3": q13, "3,1": -eps * q13, "4,0": q40, "0,4": q40,
                         "2,2": -eps * (-2 * sigma ** 2 + q40)}},
    }
    cfg_path = tmp_path / "surf.json"
    cfg_path.write_text(json.dumps(cfg))
    res = run_cli("analyze", "--surface", f"file:{cfg_path}", "--res", "5",
                  "--region=-0.5,0.5,-0.5,0.5", "--out", str(tmp_path))
    assert res.returncode == 0, res.stderr
    rows = json.loads((tmp_path / "analyze.json").read_text())
    assert len(rows) == 25
    origin = [r for r in rows if abs(r["u"]) < 1e-12 and abs(r["v"]) < 1e-12]
    assert origin and origin[0].get("flags") == ["flat_affine_umbilic"]
    others = [r for r in rows if r.get("flags") and (abs(r["u"]) > 1e-6 or abs(r["v"]) > 1e-6)]
    assert not others


def test_portrait_synthetic_folded(tmp_path):
    res = run_cli("portrait", "--bde", "folded", "--lam", "-1", "--res", "4",
                  "--tol", "max_len=2.0", "--out", str(tmp_path))
    assert res.returncode == 0, res.stderr
    svg = (tmp_path / "portrait.svg").read_text()
    assert "folded_saddle" in svg
    data = json.loads((tmp_path / "portrait.json").read_text())
    assert data["reports"][0]["kind"] == "folded_saddle"
    assert data["trajectories"]


def test_portrait_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        res = run_cli("portrait", "--surface", "catalog:torus", "--R", "2", "--r", "1",
                      "--res", "4", "--tol", "max_len=4.0", "--tol", "trace_res=96",
                      "--out", str(out))
        assert res.returncode == 0, res.stderr
    assert (out1 / "portrait.svg").read_bytes() == (out2 / "portrait.svg").read_bytes()
    assert (out1 / "portrait.json").read_bytes() == (out2 / "portrait.json").read_bytes()


def test_portrait_run_info_carries_integration_stats(tmp_path):
    blocks = []
    for out in (tmp_path / "a", tmp_path / "b"):
        res = run_cli("portrait", "--bde", "folded", "--lam", "-1", "--res", "3",
                      "--tol", "max_len=1.0", "--out", str(out))
        assert res.returncode == 0, res.stderr
        blocks.append(json.loads((out / "run_info.json").read_text())["integration"])
    for name in ("portrait.json", "portrait.svg"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    a = blocks[0]
    assert a == blocks[1]
    # the keys, in the order run_info.json has written them since the block was added
    assert list(a) == ["lanes", "rounds", "accepted", "rejected", "rhs_evals", "chart_switches",
                       "creep_steps", "terminations", "dropped", "skipped_seeds",
                       "dropped_reports"]
    assert a["dropped_reports"] == []
    data = json.loads((tmp_path / "a" / "portrait.json").read_text())
    assert a["lanes"] == len(data["trajectories"]) == sum(a["terminations"].values())
    assert a["rounds"] > 0 and a["accepted"] > 0 and a["rhs_evals"] >= 6 * a["accepted"]
    # seeds with v < -u^2 have no real direction and are skipped before any job
    assert a["skipped_seeds"] and all(s["reason"] == "negative discriminant"
                                      for s in a["skipped_seeds"])


def test_portrait_requires_lambda(tmp_path):
    res = run_cli("portrait", "--bde", "folded", "--out", str(tmp_path))
    assert res.returncode == 2


def test_conormal_command(tmp_path):
    res = run_cli("conormal", "--surface", "catalog:torus", "--R", "3", "--r", "1",
                  "--res", "24", "--out", str(tmp_path))
    assert res.returncode == 0, res.stderr
    obj = (tmp_path / "conormal.obj").read_text()
    assert obj.count("o component_") == 2
    assert (tmp_path / "source.obj").exists()
    report = json.loads((tmp_path / "correspondence.json").read_text())
    assert all(r["residual"] < 1e-7 for r in report if not r["degenerate"])


def test_conormal_domain_failure(tmp_path):
    # a grid point exactly on the parabolic set of a graph chart, with no
    # declared exclusion strip to save it
    res = run_cli("conormal", "--surface", "monge:v^2 + u^2*v",
                  "--res", "5", "--region=-0.4,0.4,-0.4,0.4",
                  "--out", str(tmp_path))
    assert res.returncode == 3
    assert "domain failure" in res.stderr


@pytest.mark.parametrize("command", ["analyze", "portrait"])
def test_an_overflowing_polynomial_chart_is_a_domain_failure(tmp_path, command):
    # 1e308 parses, but the chart's u-derivative 2e308 overflows
    res = run_cli(command, "--surface", "monge:1e308*u^2+v^2", "--res", "4",
                  "--out", str(tmp_path))
    assert res.returncode == 3
    assert res.stderr == "domain failure: a polynomial coefficient or its derivative overflows\n"
    assert os.listdir(tmp_path) == []


def test_an_overflowing_first_form_is_a_domain_failure(tmp_path):
    # a chart that is not polynomial: its first form E = a_u . a_u overflows,
    # and the floating-point rule of cli.main raises there
    res = run_cli("analyze", "--surface", "monge:1e300*sin(u)*1e10+v^2", "--res", "4",
                  "--out", str(tmp_path))
    assert res.returncode == 3
    assert [line for line in res.stderr.splitlines() if "domain failure" in line] == [
        "domain failure: overflow encountered in multiply"]
    assert os.listdir(tmp_path) == []


_TORUS = ("--surface", "catalog:torus", "--R", "3", "--r", "1")
_HUGE_U = "--region=-1e200,1e200,-1,1"
# (exit code, argv) of commands on charts or fields whose numbers overflow or
# underflow, or whose flags are extreme
HOSTILE = [
    (3, ["portrait", "--surface", "monge:sin(u)*1e200*1e200+v^2", "--res", "1"]),
    (3, ["conormal", "--surface", "monge:sin(u)*1e200*1e200+v^2", "--res", "32"]),
    (3, ["portrait", "--surface", "monge:exp(800*u)+v^2"]),
    (3, ["portrait", "--surface", "monge:1e300*sin(u)*1e10+v^2"]),
    (0, ["portrait", "--surface", "monge:exp(u*v)*1e-200+u^2*v", "--res", "1"]),
    (3, ["analyze", "--surface", "monge:u^2+v^2", _HUGE_U, "--res", "4"]),
    (3, ["conormal", "--surface", "monge:u^2+v^2", _HUGE_U, "--res", "8"]),
    (3, ["analyze", "--surface", "monge:sin(u)*1e200*1e200+v^2", "--res", "4"]),
    (3, ["conormal", "--surface", "monge:1e300*sin(u)*1e10+v^2", "--res", "8"]),
    (3, ["analyze", "--surface", "monge:exp(800*u)+v^2", "--res", "4"]),
    (3, ["conormal", "--surface", "monge:exp(800*u)+v^2", "--res", "8"]),
    (3, ["portrait", "--surface", "monge:exp(exp(10*u))+v^2", "--res", "1"]),
    (3, ["portrait", "--surface", "monge:sqrt(u^2*1e300*1e300)+v^2", "--res", "1"]),
    (3, ["portrait", "--surface", "monge:1e200*(u^3-3*u*v^2)", "--res", "1"]),
    (3, ["analyze", "--surface", "monge:u^2+1e150*v^2", "--res", "4"]),
    (0, ["portrait", "--surface", "monge:u^2+1e150*v^2", "--res", "1"]),
    (0, ["conormal", "--surface", "monge:1e200*u^2+v^2", "--res", "8"]),
    (3, ["portrait", "--surface", "catalog:torus", "--R", "1e200", "--r", "1", "--res", "1"]),
    (3, ["analyze", "--surface", "catalog:torus", "--R", "1e200", "--r", "1", "--res", "4"]),
    (3, ["conormal", "--surface", "catalog:torus", "--R", "1e200", "--r", "1", "--res", "8"]),
    (0, ["portrait", "--bde", "folded", "--lam", "1e300", "--res", "1"]),
    (0, ["portrait", "--bde", "folded", "--lam", "1e-300", "--res", "1"]),
    (2, ["portrait", "--bde", "folded", "--lam", "inf"]),
    (3, ["portrait", "--bde", "morse", "--eps1", "1", "--region=-1e200,1e200,-1e200,1e200",
         "--res", "1"]),
    (3, ["portrait", "--surface", "catalog:pick", "--sigma", "1e200", "--res", "1"]),
    (0, ["portrait", "--surface", "monge:1e-300*u^2+v^2", "--res", "1"]),
    (3, ["analyze", "--surface", "monge:1e-300*u^2+v^2", "--res", "4"]),
    (3, ["conormal", "--surface", "monge:u^3+1e-200*v^2", "--res", "8"]),
    (3, ["portrait", "--surface", "monge:log(u+1e-300)+v^2", "--res", "1"]),
    (0, ["analyze", *_TORUS, _HUGE_U, "--res", "4"]),
    (2, ["analyze", "--surface", "catalog:cusp_gauss", "--q", "21=1e300", "--res", "4"]),
    # numbers and exponents read ASCII digits only, and an exponent is at most 64
    (2, ["analyze", "--surface", "monge:u^\u00b2", "--res", "2"]),
    (2, ["analyze", "--surface", "monge:u^(1/\u00b2)", "--res", "2"]),
    (2, ["analyze", "--surface", "monge:\u0663*u^2+v^2", "--res", "2"]),
    (2, ["analyze", "--surface", "monge:u^99999999+v^2", "--res", "2"]),
    # expressions deeper than the parser's bound: nested parentheses, long
    # sums, polynomial and not, and a run of minus signs
    (2, ["analyze", "--surface", "monge:" + "(" * 250 + "u" + ")" * 250 + "^2+v^2",
         "--res", "2"]),
    (2, ["analyze", "--surface", "monge:" + "+".join(["0.001*u^2"] * 1200), "--res", "2"]),
    (2, ["analyze", "--surface", "monge:" + "+".join(["0.001*sin(u)*u"] * 700), "--res", "2"]),
    (2, ["analyze", "--surface", "monge:" + "-" * 3000 + "u", "--res", "2"]),
]


def _short_id(argv):
    """The test id of a command: its words, each long one cut to its head and length."""
    return " ".join(a if len(a) <= 60 else f"{a[:24]}...[{len(a)} chars]" for a in argv)


@pytest.mark.parametrize("code, argv", HOSTILE, ids=[_short_id(a) for _, a in HOSTILE])
def test_a_hostile_command_works_or_fails_with_one_line(tmp_path, capsys, code, argv):
    # in process with warnings as errors: no warning and no traceback; a
    # failure prints one line and writes nothing, and a portrait is finite
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main([*argv, "--out", str(out)]) == code
    err = capsys.readouterr().err
    if code:
        assert len(err.splitlines()) == 1
        assert err.startswith("configuration error: " if code == 2 else "domain failure")
        assert not out.exists()
        return
    assert err == ""
    if argv[0] == "portrait":
        payload = json.loads((out / "portrait.json").read_text())
        rows = [r for t in payload["trajectories"] for r in t["samples"]]
        rows += [r for polys in payload["singular_sets"].values() for p in polys for r in p]
        assert np.isfinite([x for r in rows for x in r]).all()


def test_a_huge_exponent_is_refused_at_parse_time(tmp_path, capsys):
    # u^99999999 as a polynomial would be 99999998 ring products
    start = time.perf_counter()
    code = cli.main(["analyze", "--surface", "monge:u^99999999+v^2", "--res", "2",
                     "--out", str(tmp_path / "out")])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert capsys.readouterr().err == (
        "configuration error: bad expression: exponent above 64 (offset 3)\n")


def test_main_leaves_the_numpy_error_state_as_it_found_it(tmp_path, capsys):
    with np.errstate(divide="ignore", over="warn", under="ignore", invalid="print"):
        before = np.geterr()
        assert cli.main(["analyze", *_TORUS, "--res", "4", "--out", str(tmp_path / "a")]) == 0
        assert np.geterr() == before
        assert cli.main(["analyze", "--surface", "monge:u^2+v^2", _HUGE_U, "--res", "4",
                         "--out", str(tmp_path / "b")]) == 3
        assert np.geterr() == before


VERIFY_NAMES = [
    "torus extended coefficients match the frame pipeline",
    "graph normal form constants at the origin",
    "fold classification and eigenvalues",
    "totally degenerate Morse models",
    "degenerate-tangency chart at the origin",
    "flat-point discriminant quartic",
    "conormal correspondence",
    "jet derivatives vs finite differences",
    "lifted field tangency",
]


def test_verify_passes():
    res = run_cli("verify")
    assert res.returncode == 0, res.stdout + res.stderr
    lines = res.stdout.strip().splitlines()
    assert lines == ["1..9"] + [f"ok {k} - {name}" for k, name in enumerate(VERIFY_NAMES, 1)]


def test_checks_still_check_under_python_O():
    # -O strips assert statements; a missed bound must still raise
    env = dict(os.environ, PYTHONPATH=os.path.join(PKG_ROOT, "src"))
    code = "from affasym import checks; checks.fold_family(((-1.0, 'folded_node'),))"
    res = subprocess.run([sys.executable, "-O", "-c", code],
                         capture_output=True, text=True, env=env)
    assert res.returncode != 0
    assert "AssertionError: lam=-1.0 at" in res.stderr


def test_unknown_catalog(tmp_path):
    res = run_cli("analyze", "--surface", "catalog:sphere", "--out", str(tmp_path))
    assert res.returncode == 2


def test_run_info_sidecar(tmp_path):
    argv = ["portrait", "--bde", "morse", "--eps1", "-1", "--res", "3",
            "--tol", "max_len=1.0", "--out", str(tmp_path)]
    res = run_cli(*argv)
    assert res.returncode == 0, res.stderr
    info = json.loads((tmp_path / "run_info.json").read_text())
    assert "timestamp" in info and info["argv"] == argv
    # payloads carry no timestamps
    assert "timestamp" not in (tmp_path / "portrait.json").read_text()


def hessian_det(hj):
    return hj.partial(2, 0) * hj.partial(0, 2) - hj.partial(1, 1) ** 2


def assert_first_parabolic_point_reported(tmp_path, surface_args):
    res = run_cli("analyze", "--surface", *surface_args,
                  "--region=-0.2,0.2,-0.2,0.2", "--res", "5",
                  "--out", str(tmp_path))
    assert res.returncode == 3
    # first grid point in u-major order where |LN - M^2| <= guard (1e-9);
    # on a graph chart L, M, N are the height Hessian
    args = cli._make_parser().parse_args(["analyze", "--surface", *surface_args])
    surf = cli._build_surface(args)
    us, vs = cli._analysis_grid(surf, Rect(-0.2, 0.2, -0.2, 0.2), (5, 5))
    hits = [(u, v) for u in us for v in vs
            if abs(hessian_det(surf.eval_jets(u, v, order=2)[2])) <= 1e-9]
    u, v = hits[0]
    assert f"domain failure at (u, v) = ({u:.6g}, {v:.6g}):" in res.stderr


def test_analyze_domain_failure_reports_location(tmp_path):
    # grid hits the parabolic point of the chart exactly
    assert_first_parabolic_point_reported(
        tmp_path, ["catalog:cusp_gauss", "--q", "21=1.0", "--q", "40=0.0"])


def test_analyze_domain_failure_reports_first_point_in_u_major_order(tmp_path):
    # LN - M^2 = uv: the grid meets the parabolic set along both axes, and
    # the first hit in u-major order, (-0.133333, 0), is not the first in
    # v-major order, (0, -0.133333)
    assert_first_parabolic_point_reported(tmp_path, ["monge:(u^3 + v^3)/6"])


def test_analyze_is_one_batched_call(tmp_path, monkeypatch):
    calls = []
    point_data = affine.affine_point_data

    def counting(surf, u, v, **kwargs):
        calls.append(np.size(u))
        return point_data(surf, u, v, **kwargs)

    monkeypatch.setattr(affine, "affine_point_data", counting)
    argv = ["analyze", "--surface", "catalog:torus", "--R", "3", "--r", "1",
            "--res", "6x5", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    assert calls == [30]
    monkeypatch.setattr(affine, "affine_point_data", point_data)
    rows = json.loads((tmp_path / "analyze.json").read_text())
    surf = cli._build_surface(cli._make_parser().parse_args(argv))
    # rows in u-major order, each as its point alone would give it
    expect = [point_data(surf, r["u"], r["v"]).to_json_dict() for r in rows]
    assert rows == json.loads(json.dumps(expect, sort_keys=True))
    assert [(r["u"], r["v"]) for r in rows] == sorted((r["u"], r["v"]) for r in rows)


@pytest.mark.parametrize("surface", [
    "monge:0.5*u^2+v^2+0.3*sin(u)",
    {"kind": "parametric", "exprs": ["u", "v", "0.5*u^2+v^2+0.2*u^3"],
     "domain": [-0.5, 0.5, -0.5, 0.5]},
    {"kind": "parametric", "exprs": ["u + 0.1*sin(v)", "v", "0.5*u^2+v^2+0.2*u^3"],
     "domain": [-0.5, 0.5, -0.5, 0.5]},
])
def test_portrait_without_polynomial_field_runs(tmp_path, surface):
    # Cash-Karp stages overshoot the region; those lanes end left_domain
    if isinstance(surface, dict):
        cfg = tmp_path / "surf.json"
        cfg.write_text(json.dumps(surface))
        surface = f"file:{cfg}"
    res = run_cli("portrait", "--surface", surface, "--region=-0.5,0.5,-0.5,0.5",
                  "--res", "2", "--tol", "trace_res=48", "--tol", "max_len=1.0",
                  "--out", str(tmp_path / "out"))
    assert res.returncode == 0, res.stderr
    assert "Traceback" not in res.stderr
    assert json.loads((tmp_path / "out" / "portrait.json").read_text())["trajectories"]


def test_parametric_chart_portrays_across_the_parabolic_set(tmp_path):
    # the graph of u^3 + v^2 is parabolic along u = 0: as a parametric chart
    # it gives the same portrait, byte for byte, as the Monge chart
    cfg = tmp_path / "surf.json"
    cfg.write_text(json.dumps({"kind": "parametric", "exprs": ["u", "v", "u^3+v^2"],
                               "domain": [-0.5, 0.5, -0.5, 0.5]}))
    for name, surface in (("file", f"file:{cfg}"), ("monge", "monge:u^3+v^2")):
        assert cli.main(["portrait", "--surface", surface, "--region=-0.5,0.5,-0.5,0.5",
                         "--res", "2", "--out", str(tmp_path / name)]) == cli.EXIT_OK
    doc = json.loads((tmp_path / "file" / "portrait.json").read_text())
    assert doc["singular_sets"]["parabolic"] and doc["trajectories"]
    assert not {t["termination"] for t in doc["trajectories"]} & {
        "hit_parabolic_set", "evaluation_failed"}
    for fname in ("portrait.json", "portrait.svg"):
        assert (tmp_path / "file" / fname).read_bytes() == (tmp_path / "monge" / fname).read_bytes()


def test_a_monge_config_without_domain_is_the_monge_chart(tmp_path):
    # both take the one default square, so both write its region text
    cfg = tmp_path / "surf.json"
    cfg.write_text(json.dumps({"kind": "monge", "expr": "u^2+2*v^2"}))
    for name, surface in (("file", f"file:{cfg}"), ("monge", "monge:u^2+2*v^2")):
        assert cli.main(["portrait", "--surface", surface, "--res", "1", "--tol", "max_len=0.2",
                         "--tol", "trace_res=16", "--out", str(tmp_path / name)]) == cli.EXIT_OK
    assert (tmp_path / "file" / "portrait.json").read_bytes() == \
        (tmp_path / "monge" / "portrait.json").read_bytes()


@pytest.mark.parametrize("argv", [
    ["analyze", "--surface", "catalog:torus", "--R", "3", "--r", "1", "--res", "6,5"],
    ["analyze", "--surface", "catalog:torus", "--R", "3", "--r", "1", "--res", "-2"],
    ["analyze", "--surface", "catalog:torus", "--R", "3", "--r", "1", "--res", "0"],
    ["conormal", "--surface", "catalog:torus", "--R", "3", "--r", "1", "--res", "6x0"],
    ["conormal", "--surface", "catalog:torus", "--R", "3", "--r", "1", "--res", "6x5x4"],
    ["portrait", "--bde", "folded", "--lam", "-1", "--res", "x"],
])
def test_bad_res_is_a_configuration_error(tmp_path, capsys, argv):
    assert cli.main(argv + ["--out", str(tmp_path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: --res") and err.count("\n") == 1
    assert not list(tmp_path.iterdir())


def test_out_of_memory_is_a_configuration_error(tmp_path, capsys, monkeypatch):
    # a trace grid too large to allocate gives one line, not a traceback
    from affasym import bde

    def no_memory(*args):
        raise MemoryError

    monkeypatch.setattr(bde, "trace_zero_set", no_memory)
    argv = ["portrait", "--surface", "monge:u^2+v^2", "--res", "1",
            "--tol", "trace_res=100000", "--out", str(tmp_path)]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == \
        "configuration error: out of memory; lower --res or trace_res\n"


_TORUS3 = ["--surface", "catalog:torus", "--R", "3", "--r", "1"]


@pytest.mark.parametrize("argv, message", [
    (["portrait", "--bde", "folded", "--lam", "-1", "--tol", "trace_res=0.5"],
     "tolerance trace_res must be a whole number"),
    (["portrait", "--bde", "folded", "--lam", "-1", "--tol", "rel_tol=nan"],
     "tolerance rel_tol must be positive and finite"),
    (["portrait", "--bde", "folded", "--lam", "-1", "--tol", "max_len=inf"],
     "tolerance max_len must be positive and finite"),
    (["portrait", "--bde", "folded", "--lam", "-1", "--tol", "margin=0.1"],
     "unknown --tol key 'margin' for portrait"),
    (["analyze", *_TORUS3, "--tol", "guard=nan"], "tolerance guard must be positive"),
    (["analyze", *_TORUS3, "--tol", "trace_res=48"], "unknown --tol key 'trace_res' for analyze"),
    (["conormal", *_TORUS3, "--tol", "guard=1e-9"], "unknown --tol key 'guard' for conormal"),
    (["verify", "--tol", "rel_tol=1e-8"], "unrecognized arguments: --tol rel_tol=1e-8 --res 3"),
    (["portrait", "--bde", "folded", "--lam", "nan"], "--lam must be finite"),
    (["portrait", "--surface", "catalog:pick", "--epsilon", "1", "--sigma", "nan"],
     "sigma must be finite"),
    (["portrait", "--surface", "catalog:pick", "--q", "21=nan"],
     "q21 must be finite"),
    (["portrait", "--surface", "catalog:pick", "--region=-inf,1,-1,1", "--tol", "trace_res=8"],
     "--region: rectangle bounds must be finite"),
    (["portrait", "--surface", "catalog:torus", "--R", "inf", "--r", "1"],
     "R must be finite"),
    (["portrait", "--surface", {"kind": "catalog", "id": "pick", "params": {"q": {"4,0": "nan"}}}],
     "bad surface config {cfg!r}: q40 must be finite"),
    (["analyze", "--surface", {"kind": "parametric", "exprs": ["u", "v", "u^2 + v^2"],
                               "domain": [-1, "inf", 0, 1]}],
     "bad surface config {cfg!r}: rectangle bounds must be finite"),
    # a flag that the catalog id does not read, or a missing one
    (["portrait", "--surface", "catalog:torus", "--R", "2", "--r", "1", "--sigma", "5",
      "--q", "21=3"], "unknown torus parameters ['q', 'sigma']"),
    (["portrait", "--surface", "catalog:torus", "--R", "2"], "torus needs R and r"),
    (["portrait", "--surface", "catalog:cusp_gauss", "--q", "21=1", "--epsilon", "1"],
     "unknown cusp_gauss parameters ['epsilon']"),
    # config entries of the wrong JSON type
    (["analyze", "--surface", {"kind": "catalog", "id": "torus", "params": [1, 2]}],
     "bad surface config {cfg!r}: catalog params must be a JSON object"),
    (["analyze", "--surface", {"kind": "monge", "expr": 5}],
     "bad surface config {cfg!r}: monge expr must be a string"),
    (["analyze", "--surface", [1]],
     "bad surface config {cfg!r}: a surface config must be a JSON object"),
    (["analyze", "--surface", {"kind": "monge", "expr": "u^2", "domain": 5}],
     "bad surface config {cfg!r}: domain must be a list of 4 numbers"),
    (["analyze", "--surface", {"kind": "parametric", "exprs": [1, 2, 3],
                               "domain": [-1, 1, -1, 1]}],
     "bad surface config {cfg!r}: parametric exprs must be 3 strings"),
    (["analyze", "--surface", {"kind": "catalog", "id": "pick", "params": {"q": {"21": 1.0}}}],
     'bad surface config {cfg!r}: catalog q must map "i,j" keys to numbers'),
    (["analyze", "--surface", {"kind": "catalog", "id": "pick", "params": {"q": [1]}}],
     'bad surface config {cfg!r}: catalog q must map "i,j" keys to numbers'),
    (["analyze", "--surface", {"kind": "catalog", "id": "torus", "params": {"R": [2], "r": 1}}],
     "bad surface config {cfg!r}: catalog parameters other than q must be numbers"),
    # epsilon is a sign: neither truncated nor overflowing
    (["analyze", "--surface", {"kind": "catalog", "id": "pick", "params": {"epsilon": 1.9}}],
     "bad surface config {cfg!r}: epsilon must be +1 or -1; got 1.9"),
    (["analyze", "--surface", {"kind": "catalog", "id": "pick", "params": {"epsilon": -1.5}}],
     "bad surface config {cfg!r}: epsilon must be +1 or -1; got -1.5"),
    (["analyze", "--surface", {"kind": "catalog", "id": "pick",
                               "params": {"epsilon": math.inf}}],
     "bad surface config {cfg!r}: epsilon must be +1 or -1; got inf"),
    # a flag that the command, or its kind of surface or field, does not read
    (["verify", "--surface", "catalog:torus"],
     "unrecognized arguments: --surface catalog:torus --res 3"),
    (["conormal", *_TORUS3, "--format", "csv"], "unrecognized arguments: --format csv"),
    (["analyze", "--surface", "catalog:pick", "--sig", "0.5"], "unrecognized arguments: --sig 0.5"),
    (["portrait", "--bde", "folded", "--lam", "-1", *_TORUS3],
     "portrait with --bde folded does not read --surface, --R, --r"),
    (["portrait", "--surface", "catalog:cusp_gauss", "--q", "21=1", "--q", "40=0.1",
      "--lam", "3", "--eps1", "1"], "portrait with --surface catalog: does not read --lam, --eps1"),
    (["portrait", "--bde", "morse", "--eps1", "1", "--lam", "3"],
     "portrait with --bde morse does not read --lam"),
    (["analyze", "--surface", "monge:u^2+v^3", "--R", "3", "--q", "21=1"],
     "analyze with --surface monge: does not read --R, --q"),
    (["analyze", *_TORUS3, "--tol", "k_zero_tol=1e-9"], "unknown --tol key 'k_zero_tol'"),
    (["analyze", *_TORUS3, "--tol", "degenerate=1e-8"], "unknown --tol key 'degenerate'"),
    (["portrait", "--bde", "folded", "--lam", "-1", "--tol", "lift_tol=1e-8"],
     "unknown --tol key 'lift_tol'"),
    # a q index is a non-negative integer
    (["analyze", "--surface", "catalog:cusp_gauss", "--q", "21=1", "--q", "6-2=1"],
     "q indices must be non-negative integers; got (6, -2)"),
    (["portrait", "--surface", "catalog:flat_umbilic_chart", "--q", "6-2=1"],
     "q indices must be non-negative integers; got (6, -2)"),
    (["portrait", "--surface", "catalog:pick", "--q", "2-1=1"],
     "q indices must be non-negative integers; got (2, -1)"),
    # a number literal that rounds to inf
    (["portrait", "--surface", "monge:1e309*u^2+v^2"],
     "bad expression: number out of range (offset 1)"),
    (["analyze", "--surface", {"kind": "parametric", "exprs": ["u", "v", "u^2 + 1e309*v^2"],
                               "domain": [-1, 1, -1, 1]}],
     "bad surface config {cfg!r}: number out of range (offset 7)"),
    # int() and float() read any script's digits; every number flag reads ASCII only
    (["analyze", "--surface", "catalog:cusp_gauss", "--q", "\u0662\u0661=1.0"],
     "--q wants ij=value (e.g. 21=1.5); got '\u0662\u0661=1.0'"),
    (["analyze", "--surface", "catalog:cusp_gauss", "--q", "21=\u0661"],
     "--q wants ij=value (e.g. 21=1.5); got '21=\u0661'"),
    (["analyze", "--surface", "catalog:torus", "--R", "\u0663", "--r", "1"],
     "argument --R: invalid float value: '\u0663'"),
    (["analyze", "--surface", "catalog:torus", "--R", "3", "--r", "\u0661"],
     "argument --r: invalid float value: '\u0661'"),
    (["analyze", "--surface", "catalog:pick", "--epsilon", "1", "--sigma", "\u0660.5"],
     "argument --sigma: invalid float value: '\u0660.5'"),
    (["analyze", "--surface", "catalog:pick", "--epsilon", "\u0661"],
     "argument --epsilon: invalid int value: '\u0661'"),
    (["portrait", "--bde", "folded", "--lam", "\u0661"],
     "argument --lam: invalid float value: '\u0661'"),
    (["portrait", "--bde", "morse", "--eps1", "\u0661"],
     "argument --eps1: invalid int value: '\u0661'"),
    (["analyze", *_TORUS3, "--res", "\u0668"], "--res needs N or NxM; got '\u0668'"),
    (["conormal", *_TORUS3, "--res", "4x\u0668"], "--res needs N or NxM; got '4x\u0668'"),
    (["analyze", *_TORUS3, "--region=\u0661,2,0,1"],
     "--region needs u0,u1,v0,v1; got '\u0661,2,0,1'"),
    (["portrait", "--bde", "folded", "--lam", "-1", "--tol", "max_len=\u0661"],
     "--tol wants key=value; got 'max_len=\u0661'"),
    (["analyze", "--surface", {"kind": "catalog", "id": "cusp_gauss",
                               "params": {"q": {"\u0662,\u0661": 1.0, "4,0": 0.1}}}],
     'bad surface config {cfg!r}: catalog q must map "i,j" keys to numbers'),
])
def test_bad_tol_or_lam_is_a_configuration_error(tmp_path_factory, tmp_path, capsys, argv,
                                                 message):
    # a surface config (a dict, or a list where a dict belongs) is written
    # outside the output directory
    cfg = str(tmp_path_factory.mktemp("config") / "surf.json")
    for k, item in enumerate(argv):
        if isinstance(item, (dict, list)):
            with open(cfg, "w", encoding="utf-8") as fh:
                json.dump(item, fh)
            argv = argv[:k] + [f"file:{cfg}"] + argv[k + 1:]
    # a case with its own --res keeps it: argparse reads the last one given
    res = [] if "--res" in argv else ["--res", "3"]
    assert cli.main(argv + res + ["--out", str(tmp_path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {message.format(cfg=cfg)}")
    assert err.count("\n") == 1
    assert not list(tmp_path.iterdir())


def test_readme_table_lists_each_commands_flags_and_tol_defaults():
    # the README's table of commands names exactly the flags and --tol keys
    # that cli declares, and each key's default is that of the library
    # parameter it sets
    from affasym import conormal, flow

    def default(fn, name):
        return inspect.signature(fn).parameters[name].default

    defaults = {"guard": default(affine.affine_point_data, "guard"),
                "rel_tol": flow.IntegrationParams.rel_tol,
                "max_len": flow.IntegrationParams.max_len,
                "trace_res": default(flow.build_portrait, "trace_resolution"),
                "margin": default(conormal.conormal_mesh, "margin"),
                "norm_cap": default(conormal.conormal_mesh, "norm_cap")}
    with open(os.path.join(PKG_ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    rows = re.findall(r"^\| `(\w+)` +\| (.*?) \| (.*?) \|$", readme, re.MULTILINE)
    table = {cmd: (tuple(re.findall(r"--\w+", flags)),
                   dict(re.findall(r"`(\w+)` \(([^)]+)\)", keys)))
             for cmd, flags, keys in rows if cmd in cli._COMMANDS}
    assert {cmd: (flags, tuple(keys)) for cmd, (flags, keys) in table.items()} == cli._COMMANDS
    assert {k: float(v) for _, keys in table.values() for k, v in keys.items()} == defaults


def test_overflowing_step_ratio_warns_nothing(tmp_path, capsys):
    # tol / err overflows to inf where err is tiny against rel_tol=1e300; an
    # infinite ratio gives the capped growth factor, as it should, silently
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["portrait", "--bde", "folded", "--lam", "-1", "--tol", "rel_tol=1e300",
                         "--res", "3", "--out", str(tmp_path)])
    assert code == cli.EXIT_OK
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("eps1", ["2", "0"])
def test_morse_eps1_must_be_a_sign(tmp_path, capsys, eps1):
    argv = ["portrait", "--bde", "morse", "--eps1", eps1, "--res", "3",
            "--out", str(tmp_path)]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["analyze", "--surface", "catalog:torus", "--R", "3", "--r", "1", "--format", "xml"],
    ["analyze", "--surface", "catalog:torus", "--R", "3", "--r", "1", "--format", "json,svg"],
    ["portrait", "--bde", "folded", "--lam", "-1", "--format", "svg,csv"],
])
def test_unknown_format_is_a_configuration_error(tmp_path, capsys, argv):
    # a case with its own --res keeps it: argparse reads the last one given
    res = [] if "--res" in argv else ["--res", "3"]
    assert cli.main(argv + res + ["--out", str(tmp_path)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("configuration error: --format")
    assert not list(tmp_path.iterdir())


def test_conormal_immersion_failure_is_a_domain_failure(tmp_path, capsys, monkeypatch):
    from affasym import conormal

    def fail(frame):
        raise conormal.ImmersionError("conormal map fails to immerse at sample 0")

    monkeypatch.setattr(conormal, "second_form_of_conormal", fail)
    argv = ["conormal", "--surface", "catalog:torus", "--R", "3", "--r", "1",
            "--res", "6", "--out", str(tmp_path)]
    assert cli.main(argv) == cli.EXIT_MATH
    assert capsys.readouterr().err == \
        "domain failure: conormal map fails to immerse at sample 0\n"


MATRIX_SURFACES = {
    "torus": ["catalog:torus", "--R", "3", "--r", "1"],
    "pick": ["catalog:pick", "--epsilon", "-1", "--sigma", "0.8", "--q", "40=1"],
    "cusp_gauss": ["catalog:cusp_gauss", "--q", "21=1", "--q", "40=0.3"],
    "flat_umbilic_chart": ["catalog:flat_umbilic_chart", "--epsilon=-1"],
    "monge_polynomial": ["monge:0.5*u^2+v^2+0.2*u^3"],
    "monge_transcendental": ["monge:sin(u)*cos(v)+0.1*exp(u)"],
    "file_parametric": None,
}


@pytest.mark.parametrize("command, res", [("analyze", "6"), ("analyze", "12"),
                                          ("conormal", "6"), ("conormal", "12"),
                                          ("portrait", "2")])
@pytest.mark.parametrize("surface", sorted(MATRIX_SURFACES))
def test_cli_matrix_analyze_and_conormal(tmp_path, capsys, surface, command, res):
    # every documented surface kind ends in a documented exit code, for each
    # command; portraits are cut to short lanes, and the transcendental chart
    # to a coarser trace, to keep the column within seconds
    spec = MATRIX_SURFACES[surface]
    if spec is None:
        cfg = tmp_path / "surf.json"
        cfg.write_text(json.dumps({"kind": "parametric",
                                   "exprs": ["u", "v", "0.5*u^2+v^2+0.2*u^3"],
                                   "domain": [-0.5, 0.5, -0.5, 0.5]}))
        spec = [f"file:{cfg}"]
    tol = []
    if command == "portrait":
        tol = ["--tol", "max_len=1.0"]
        if surface == "monge_transcendental":
            tol += ["--tol", "trace_res=48"]
    out = tmp_path / "out"
    code = cli.main([command, "--surface", *spec, "--res", res, *tol, "--out", str(out)])
    err = capsys.readouterr().err
    assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_MATH), err
    assert (code == cli.EXIT_OK) == (err == "")
    if code == cli.EXIT_OK:
        payload = {"analyze": "analyze.json", "conormal": "correspondence.json",
                   "portrait": "portrait.json"}[command]
        assert json.loads((out / payload).read_text())


def old_analyze_rows(data, flat):
    rows = []
    for k in range(len(flat)):
        row = data.to_json_dict(k)
        if flat[k]:
            row["flags"] = ["flat_affine_umbilic"]
        rows.append(row)
    return rows


def old_analyze_csv(rows):
    cols = ["u", "v", "E", "F", "G", "Ldet", "Mdet", "Ndet", "K", "euclid_class",
            "g11", "g12", "g22", "l", "m", "n", "b11", "b12", "b21", "b22",
            "K_aff", "H_aff", "aff_class"]
    lines = [",".join(cols)] + [",".join(str(row.get(c)) for c in cols) for row in rows]
    return "\n".join(lines) + "\n"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_analyze_writers_match_json_dumps_of_rows():
    surf = cli._build_surface(cli._make_parser().parse_args(
        ["analyze", "--surface", "catalog:torus", "--R", "3", "--r", "1"]))
    us, vs = cli._analysis_grid(surf, surf.domain, (7, 5))
    U, V = np.meshgrid(us, vs, indexing="ij")
    data = affine.affine_point_data(surf, U.ravel(), V.ravel(), guard=1e-9)
    flat = np.zeros(U.size, dtype=bool)
    flat[[0, 9]] = True
    data.K_aff[3] = np.nan
    data.nu[1, 9] = np.inf
    data.l[20] = -np.inf
    data.E[4] = -0.0
    data.m[5] = 5e-324
    rows = old_analyze_rows(data, flat)
    assert "".join(cli._analyze_json(data, flat)) == \
        json.dumps(rows, indent=1, sort_keys=True) + "\n"
    assert "".join(cli._analyze_csv(data)) == old_analyze_csv(rows)
    one = affine.affine_point_data(surf, U.ravel()[:1], V.ravel()[:1], guard=1e-9)
    for flag in (False, True):
        rows = old_analyze_rows(one, np.array([flag]))
        assert "".join(cli._analyze_json(one, np.array([flag]))) == \
            json.dumps(rows, indent=1, sort_keys=True) + "\n"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_analyze_writers_are_the_same_in_blocks_of_seven_rows(monkeypatch):
    surf = cli._build_surface(cli._make_parser().parse_args(
        ["analyze", "--surface", "catalog:torus", "--R", "3", "--r", "1"]))
    us, vs = cli._analysis_grid(surf, surf.domain, (8, 4))
    U, V = np.meshgrid(us, vs, indexing="ij")
    data = affine.affine_point_data(surf, U.ravel(), V.ravel(), guard=1e-9)
    # 32 rows in blocks of 7, the last of 4; rows written apart in three blocks
    flat = np.zeros(U.size, dtype=bool)
    flat[[0, 15, 30]] = True
    data.K_aff[17] = np.nan
    data.nu[1, 29] = np.inf
    rows = json.dumps(old_analyze_rows(data, flat), indent=1, sort_keys=True) + "\n"
    csv = "".join(cli._analyze_csv(data))
    monkeypatch.setattr(affine, "_LANES", 7)
    chunks = list(cli._analyze_json(data, flat))
    assert len(chunks) == 6 and "".join(chunks) == rows
    chunks = list(cli._analyze_csv(data))
    assert len(chunks) == 6 and "".join(chunks) == csv


@pytest.mark.parametrize("surface", ["torus", "file-nonpoly"])
def test_payloads_are_the_same_in_blocks_of_seven_lanes(tmp_path, monkeypatch, surface):
    spec = ["catalog:torus", "--R", "3", "--r", "1"]
    if surface == "file-nonpoly":
        # the non-polynomial parametric chart of tools/payload_hashes.py
        cfg = tmp_path / "nonpoly.json"
        cfg.write_text(json.dumps({"kind": "parametric",
                                   "exprs": ["u + 0.1*sin(v)", "v", "0.5*u^2+v^2+0.2*u^3"],
                                   "domain": [-0.5, 0.5, -0.5, 0.5]}))
        spec = [f"file:{cfg}"]

    def payloads(lanes):
        monkeypatch.setattr(affine, "_LANES", lanes)
        out = tmp_path / str(lanes)
        # 30 analyze rows and over 100 mesh vertices: ragged last blocks of 7
        assert cli.main(["analyze", "--surface", *spec, "--res", "6x5",
                         "--format", "json,csv", "--out", str(out)]) == 0
        assert cli.main(["conormal", "--surface", *spec, "--res", "12x10",
                         "--out", str(out)]) == 0
        return {p.name: p.read_bytes() for p in out.iterdir() if p.name != "run_info.json"}

    whole = payloads(4096)
    assert sorted(whole) == ["analyze.csv", "analyze.json", "conormal.obj",
                             "correspondence.csv", "correspondence.json", "source.obj"]
    assert payloads(7) == whole


def test_atomic_write_removes_its_temporary_file_when_writing_fails(tmp_path):
    target = tmp_path / "payload.txt"
    target.write_text("earlier payload\n")

    def chunks():
        yield "first chunk\n"
        raise RuntimeError("writer failed")

    with pytest.raises(RuntimeError, match="writer failed"):
        cli._atomic_write(str(target), chunks())
    assert target.read_text() == "earlier payload\n"
    assert [p.name for p in tmp_path.iterdir()] == ["payload.txt"]
    cli._atomic_write(str(target), ("one", " chunk\n"))
    assert target.read_text() == "one chunk\n"
    assert [p.name for p in tmp_path.iterdir()] == ["payload.txt"]


def percent_analyze_csv(data):
    """analyze.csv by the former formula: %r per float, %s per string."""
    cols = [getattr(data, c) for c in cli._CSV_COLUMNS]
    line = ",".join("%r" if c.dtype.kind == "f" else "%s" for c in cols) + "\n"
    cells = [x for row in zip(*[c.tolist() for c in cols]) for x in row]
    return ",".join(cli._CSV_COLUMNS) + "\n" + line * len(cols[0]) % tuple(cells)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_analyze_csv_matches_percent_format_on_exponent_and_non_finite_values():
    surf = cli._build_surface(cli._make_parser().parse_args(
        ["analyze", "--surface", "catalog:torus", "--R", "3", "--r", "1"]))
    us, vs = cli._analysis_grid(surf, surf.domain, (6, 4))
    U, V = np.meshgrid(us, vs, indexing="ij")
    data = affine.affine_point_data(surf, U.ravel(), V.ravel(), guard=1e-9)
    data.K[:6] = [np.nan, np.inf, -np.inf, 1e-5, -2.5e16, 5e-324]
    data.l[6:10] = [9.999999999999999e-05, 1e-4, 1e16, -0.0]
    data.H_aff *= 1e-7
    assert "".join(cli._analyze_csv(data)) == percent_analyze_csv(data)


@pytest.mark.parametrize("argv, stages", [
    (["analyze", "--surface", "catalog:torus", "--R", "3", "--r", "1", "--res", "4"],
     {"evaluate", "write"}),
    (["conormal", "--surface", "catalog:torus", "--R", "3", "--r", "1", "--res", "8"],
     {"mesh", "verify", "export"}),
    (["portrait", "--bde", "folded", "--lam", "-1", "--res", "2", "--tol", "max_len=0.5",
      "--tol", "trace_res=24"], {"trace", "detect", "folds", "integrate", "write"}),
    (["portrait", "--surface", "catalog:cusp_gauss", "--q", "21=1.0", "--q", "40=0.1",
      "--res", "1", "--tol", "max_len=0.2",
      "--tol", "trace_res=24"], {"trace", "detect", "folds", "integrate", "write"}),
])
def test_run_info_records_stage_wall_times(tmp_path, argv, stages):
    payloads = []
    for out in (tmp_path / "a", tmp_path / "b"):
        assert cli.main(argv + ["--out", str(out)]) == 0
        payloads.append({p.name: p.read_bytes() for p in out.iterdir()
                         if p.name != "run_info.json"})
    info = json.loads((tmp_path / "a" / "run_info.json").read_text())
    # the arguments main parsed, not those of the process calling it
    assert info["argv"] == argv + ["--out", str(tmp_path / "a")]
    assert set(info["stage_seconds"]) == stages
    assert all(isinstance(t, float) and t >= 0.0 for t in info["stage_seconds"].values())
    # the payloads carry no stage times and do not change from run to run
    assert payloads[0] == payloads[1]
    assert not any(b"stage_seconds" in text for text in payloads[0].values())


def test_traced_portrait_runs(tmp_path):
    # bench/tracer.py patches the module functions and the field's coeff and
    # jet_coeff; the traced benchmark needs the patched run to complete
    spans = tmp_path / "spans.npz"
    env = dict(os.environ, PYTHONPATH=os.path.join(PKG_ROOT, "src"))
    res = subprocess.run(
        [sys.executable, os.path.join(PKG_ROOT, "bench", "tracer.py"), str(spans),
         "portrait", "--surface", "catalog:cusp_gauss", "--q", "21=1.0", "--q", "40=0.1",
         "--res", "2", "--tol", "trace_res=64", "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    with np.load(spans) as z:
        assert len(z["name"]) >= 1
        assert len(json.loads(str(z["names"]))) >= 1


def test_analyze_and_conormal_load_only_what_they_run(tmp_path):
    code = (
        "import contextlib, io, sys\n"
        "from affasym import cli\n"
        "assert cli.main(['analyze', '--surface', 'catalog:pick', '--res', '8',\n"
        "                 '--out', sys.argv[1] + '/pick']) == 0\n"
        "assert 'affasym.program' not in sys.modules  # polynomial charts only\n"
        "for cmd in ('analyze', 'conormal'):\n"
        "    out = sys.argv[1] + '/' + cmd\n"
        "    assert cli.main([cmd, '--surface', 'catalog:torus', '--R', '3', '--r', '1',\n"
        "                     '--res', '16', '--out', out]) == 0\n"
        "names = ('orjson', 'numpy.random', 'numpy.polynomial', 'dataclasses')\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('affasym.') or m in names)\n"
        "assert cli.main(['portrait', '--surface', 'catalog:cusp_gauss', '--q', '21=1.0',\n"
        "                 '--q', '40=0.1', '--res', '2', '--tol', 'trace_res=32',\n"
        "                 '--out', sys.argv[1] + '/portrait']) == 0\n"
        "assert cli.main(['portrait', '--surface', 'catalog:torus', '--R', '2', '--r', '1',\n"
        "                 '--res', '2', '--tol', 'trace_res=32',\n"
        "                 '--out', sys.argv[1] + '/torus']) == 0\n"
        "print(loaded)\n"
        "print(sorted(m for m in sys.modules if m.startswith('affasym.') or m in names))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['verify']) == 0\n"
        "print('dataclasses' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(PKG_ROOT, "src"))
    res = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                         capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    loaded, after_portrait, after_verify = res.stdout.strip().splitlines()[-3:]
    for name in ("affasym.flow", "affasym.bde", "affasym.singular", "affasym.checks"):
        assert repr(name) not in loaded
    assert "'affasym.conormal'" in loaded
    assert "'orjson'" in loaded  # the payload writers load it on first use
    # only verify draws random points
    assert "'numpy.random'" not in loaded
    assert "'affasym.flow'" in after_portrait and "'numpy.random'" not in after_portrait
    # the torus closed form evaluates its tables by Horner's rule
    assert "'numpy.polynomial'" not in after_portrait
    # no command generates class code at import: records are plain classes
    assert "'dataclasses'" not in after_portrait and after_verify == "False"


def test_the_benchmark_set_up_loads_no_dataclasses_or_json():
    # the benchmark's set-up process: the package and the torus's extended field
    code = ("import sys\n"
            "from affasym import bde, surface\n"
            "bde.extended_field_for(surface.catalog_surface('torus', {'R': 3.0, 'r': 1.0}))\n"
            "print(sorted(m for m in ('dataclasses', 'json', 'copy') if m in sys.modules))\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(PKG_ROOT, "src"))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n"


def test_portrait_does_not_load_conormal(tmp_path):
    # main maps the conormal immersion error to exit 3 without loading conormal
    code = (
        "import sys\n"
        "from affasym import cli\n"
        "assert cli.main(['analyze', '--surface', 'catalog:torus', '--R', '3', '--r', '1',\n"
        "                 '--res', '4', '--out', sys.argv[1] + '/analyze']) == 0\n"
        "assert cli.main(['portrait', '--bde', 'folded', '--lam', '-1', '--res', '3',\n"
        "                 '--tol', 'max_len=1.0', '--out', sys.argv[1] + '/portrait']) == 0\n"
        "print('affasym.conormal' in sys.modules)\n"
        "from affasym import conormal\n"
        "def fail(*args, **kwargs):\n"
        "    raise conormal.ImmersionError('conormal map fails to immerse at (0, 0)')\n"
        "conormal.conormal_mesh = fail\n"
        "print(cli.main(['conormal', '--surface', 'catalog:torus', '--R', '3', '--r', '1',\n"
        "                '--res', '4', '--out', sys.argv[1] + '/conormal']))\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(PKG_ROOT, "src"))
    res = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                         capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-2:] == ["False", str(cli.EXIT_MATH)]
    assert res.stderr == "domain failure: conormal map fails to immerse at (0, 0)\n"


def test_in_process_callers_keep_the_default_collector(tmp_path):
    # only the process entry point run() freezes the heap; importing the
    # module that holds it, as the console script does, runs no command
    code = (
        "import gc, sys\n"
        "from affasym import bde, cli, conormal, flow, singular\n"
        "assert cli.main(['analyze', '--surface', 'catalog:torus', '--R', '3', '--r', '1',\n"
        "                 '--res', '4', '--out', sys.argv[1]]) == 0\n"
        "import affasym.__main__\n"
        "print(gc.isenabled(), gc.get_freeze_count())\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(PKG_ROOT, "src"))
    res = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                         capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == [f"analyze: wrote 16 rows to {tmp_path}", "True 0"]


def test_run_imports_without_collecting_and_freezes_the_heap():
    # no cyclic collection walks the modules while they import; the command
    # runs with the collector on, the imported heap frozen
    code = (
        "import contextlib, gc, io, sys\n"
        "unfrozen = []\n"
        "gc.callbacks.append(lambda phase, info: unfrozen.append(gc.get_freeze_count() == 0))\n"
        "sys.argv = ['affasym', '--help']\n"
        "from affasym.__main__ import run\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = run()\n"
        "print(code, any(unfrozen), gc.isenabled(), gc.get_freeze_count() > 10000,\n"
        "      'numpy' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(PKG_ROOT, "src"))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["0", "False", "True", "True", "True"]


def test_both_entry_points_write_the_same_portrait(tmp_path):
    argv = ["portrait", "--bde", "folded", "--lam", "-1", "--res", "3", "--tol", "max_len=1.0"]
    res = run_cli(*argv, "--out", str(tmp_path / "run"))
    assert res.returncode == cli.main(argv + ["--out", str(tmp_path / "main")]) == 0, res.stderr
    for name in ("portrait.json", "portrait.svg"):
        assert (tmp_path / "run" / name).read_bytes() == (tmp_path / "main" / name).read_bytes()


@pytest.mark.parametrize("argv, code", [
    (["portrait", "--bde", "folded"], cli.EXIT_CONFIG),
    (["analyze", "--no-such-flag"], cli.EXIT_CONFIG),
    (["--help"], cli.EXIT_OK),
])
def test_both_entry_points_keep_exit_codes_and_output(capsys, monkeypatch, argv, code):
    monkeypatch.setenv("COLUMNS", "80")   # argparse wraps its text to the terminal
    res = run_cli(*argv)
    assert cli.main(argv) == res.returncode == code
    assert capsys.readouterr() == (res.stdout, res.stderr)
    assert res.stdout or res.stderr
