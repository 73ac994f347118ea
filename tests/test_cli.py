import json
import os
import subprocess
import sys

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
    assert {"lanes", "rounds", "accepted", "rejected", "rhs_evals", "chart_switches",
            "creep_steps", "terminations", "dropped", "skipped_seeds", "dropped_reports"} <= set(a)
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
    res = run_cli("portrait", "--bde", "morse", "--eps1", "-1", "--res", "3",
                  "--tol", "max_len=1.0", "--out", str(tmp_path))
    assert res.returncode == 0, res.stderr
    info = json.loads((tmp_path / "run_info.json").read_text())
    assert "timestamp" in info and "argv" in info
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
    (["verify", "--tol", "rel_tol=1e-8"], "unknown --tol key 'rel_tol' for verify"),
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
])
def test_bad_tol_or_lam_is_a_configuration_error(tmp_path_factory, tmp_path, capsys, argv,
                                                 message):
    # a surface config (a dict) is written outside the output directory
    cfg = str(tmp_path_factory.mktemp("config") / "surf.json")
    for k, item in enumerate(argv):
        if isinstance(item, dict):
            with open(cfg, "w", encoding="utf-8") as fh:
                json.dump(item, fh)
            argv = argv[:k] + [f"file:{cfg}"] + argv[k + 1:]
    assert cli.main(argv + ["--res", "3", "--out", str(tmp_path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {message.format(cfg=cfg)}")
    assert err.count("\n") == 1
    assert not list(tmp_path.iterdir())


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
    assert cli.main(argv + ["--res", "3", "--out", str(tmp_path)]) == cli.EXIT_CONFIG
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


@pytest.mark.parametrize("res", ["6", "12"])
@pytest.mark.parametrize("command", ["analyze", "conormal"])
@pytest.mark.parametrize("surface", sorted(MATRIX_SURFACES))
def test_cli_matrix_analyze_and_conormal(tmp_path, capsys, surface, command, res):
    # every documented surface kind ends in a documented exit code
    spec = MATRIX_SURFACES[surface]
    if spec is None:
        cfg = tmp_path / "surf.json"
        cfg.write_text(json.dumps({"kind": "parametric",
                                   "exprs": ["u", "v", "0.5*u^2+v^2+0.2*u^3"],
                                   "domain": [-0.5, 0.5, -0.5, 0.5]}))
        spec = [f"file:{cfg}"]
    out = tmp_path / "out"
    code = cli.main([command, "--surface", *spec, "--res", res, "--out", str(out)])
    err = capsys.readouterr().err
    assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_MATH), err
    assert (code == cli.EXIT_OK) == (err == "")
    if code == cli.EXIT_OK:
        payload = "analyze.json" if command == "analyze" else "correspondence.json"
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
        "import sys\n"
        "from affasym import cli\n"
        "assert cli.main(['analyze', '--surface', 'catalog:pick', '--res', '8',\n"
        "                 '--out', sys.argv[1] + '/pick']) == 0\n"
        "assert 'affasym.program' not in sys.modules  # polynomial charts only\n"
        "for cmd in ('analyze', 'conormal'):\n"
        "    out = sys.argv[1] + '/' + cmd\n"
        "    assert cli.main([cmd, '--surface', 'catalog:torus', '--R', '3', '--r', '1',\n"
        "                     '--res', '16', '--out', out]) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('affasym.') or m == 'orjson'))\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(PKG_ROOT, "src"))
    res = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                         capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    loaded = res.stdout.strip().splitlines()[-1]
    for name in ("affasym.flow", "affasym.bde", "affasym.singular", "affasym.checks"):
        assert repr(name) not in loaded
    assert "'affasym.conormal'" in loaded
    assert "'orjson'" in loaded  # the payload writers load it on first use
