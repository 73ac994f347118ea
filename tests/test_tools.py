import importlib.util
import json
import os
import warnings

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(TOOLS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_portraits_accounts_for_each_polyline():
    # of three parabolic polylines one is kept, one moves by a 3-4-5 step at
    # one vertex and one is dropped; the discriminant gains a polyline
    compare = load_tool("compare_portraits").compare
    kept, moved, gone = [[0.0, 0.0], [1.0, 0.0]], [[0.0, 1.0], [1.0, 1.0]], [[2.0, 2.0], [3.0, 2.0]]
    old = {"reports": [], "trajectories": [],
           "singular_sets": {"parabolic": [kept, moved, gone], "discriminant": []}}
    new = {"reports": [], "trajectories": [],
           "singular_sets": {"parabolic": [kept, [[0.0, 1.0], [1.3, 1.4]]],
                             "discriminant": [[[0.5, 0.5], [0.5, 0.75], [0.5, 1.0]]]}}
    assert compare(old, new) == [
        "  trajectories: 0 kept byte-identical (same order), 0 changed only in the last row,"
        " 0 dropped, 0 new",
        "  discriminant polylines: 0 kept byte-identical, 0 changed, 0 dropped, 1 new",
        "  discriminant new 0 (3 vertices, from (0.5, 0.5))",
        "  parabolic polylines: 1 kept byte-identical, 1 changed, 1 dropped, 0 new",
        "  parabolic 1 -> 1 (2 vertices): largest vertex move 0.5",
        "  parabolic dropped 2 (2 vertices, from (2, 2))",
    ]


def test_compare_portraits_pairs_changed_reports():
    # a fold moves by a 3-4-5 step and changes lambda and one eigenvalue, a
    # meeting is kept byte-identical, one meeting is removed and a cusp added
    compare = load_tool("compare_portraits").compare
    fold = {"kind": "folded_node", "location": [0.0, 0.0], "lambda_invariant": 0.04,
            "eigenvalues": [[1.0, 0.0], [2.0, 0.0]]}
    meeting = {"kind": "parabolic_meeting", "location": [1.0, 1.0], "eigenvalues": []}
    old = {"reports": [fold, meeting, {**meeting, "location": [2.0, 2.0]}],
           "trajectories": [], "singular_sets": {}}
    new = {"reports": [{**fold, "location": [3e-13, 4e-13], "lambda_invariant": 0.05,
                        "eigenvalues": [[1.0, 0.0], [2.0, 1.0]]}, meeting,
                       {**fold, "kind": "cusp_of_gauss", "location": [0.5, 0.5]}],
           "trajectories": [], "singular_sets": {}}
    assert compare(old, new)[:3] == [
        "  report changed: folded_node (0, 0): location move 5e-13, lambda 0.25,"
        " eigenvalue 0, eigenvalue 0.5",
        "  report removed: parabolic_meeting (2, 2)",
        "  report added: cusp_of_gauss (0.5, 0.5)",
    ]


def test_compare_portraits_compares_lanes_by_index():
    # of three lanes one is kept, one moves by 1e-10 in v and arclength at
    # its last sample, and one gains a sample and ends at another event
    compare_lanes = load_tool("compare_portraits").compare_lanes

    def lane(family, samples, termination):
        return {"family": family, "samples": samples, "termination": termination}

    rows = [[0.0, 0.0, 0.5, 0.0, 0.0], [0.0, 1.0, 0.5, 0.0, 1.0]]
    old = [lane("plus", rows, "left_domain"), lane("minus", rows, "max_length"),
           lane("plus", rows, "lost_direction_field")]
    moved = [rows[0], [0.0, 1.0 + 1e-10, 0.5, 0.0, 1.0 + 1e-10]]
    new = [old[0], lane("minus", moved, "max_length"),
           lane("plus", rows + [[0.0, 2.0, 0.5, 0.0, 2.0]], "hit_degenerate_point")]
    lines = compare_lanes(old, new)
    assert lines[0] == "  lanes by index: 2 of 3 changed, 1 of them with the same sample count"
    assert lines[1] == "  largest move at the same sample count: 1e-10 in (u, v) (lane 1)," \
        " 1e-10 in arclength (lane 1)"
    assert lines[2:] == ["  lane 2 (plus): 2 -> 3 samples,"
                         " lost_direction_field -> hit_degenerate_point"]
    # runs with other trajectory counts have no lanes to compare by index
    assert compare_lanes(old, new[:2]) == []


def test_payload_hashes_fails_a_run_that_warns(tmp_path, monkeypatch):
    # a run that warns fails like a run that does not exit 0, and neither is hashed
    hashes = load_tool("payload_hashes")

    def main(argv):
        os.makedirs(argv[-1])
        if argv[0] == "warns":
            warnings.warn("overflow encountered in multiply", RuntimeWarning)
        return 3 if argv[0] == "fails" else 0

    monkeypatch.setattr(hashes, "RUNS", [(name, [name]) for name in ("warns", "fails", "ok")])
    monkeypatch.setattr(hashes.cli, "main", main)
    assert hashes.hash_runs(str(tmp_path)) == ([], [
        ("warns", "warned: RuntimeWarning: overflow encountered in multiply"),
        ("fails", "exited 3")])


def test_payload_hashes_pins_the_integration_block(tmp_path, monkeypatch):
    # a portrait's run_info.json is hashed through its integration block
    # only: wall times do not move the line, a changed counter does
    hashes = load_tool("payload_hashes")
    info = {"same": ({"rhs_evals": 10, "dropped_reports": []}, {"integrate": 0.5}),
            "slower": ({"rhs_evals": 10, "dropped_reports": []}, {"integrate": 0.9}),
            "counted": ({"rhs_evals": 11, "dropped_reports": []}, {"integrate": 0.5}),
            "analyze": (None, {"evaluate": 0.5})}

    def main(argv):
        os.makedirs(argv[-1])
        integration, stages = info[argv[0]]
        doc = {"argv": argv, "stage_seconds": stages}
        if integration is not None:
            doc["integration"] = integration
        with open(os.path.join(argv[-1], "run_info.json"), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return 0

    monkeypatch.setattr(hashes, "RUNS", [(name, [name]) for name in info])
    monkeypatch.setattr(hashes.cli, "main", main)
    lines, failed = hashes.hash_runs(str(tmp_path))
    assert failed == []
    got = dict(ln.split("  ", 1)[::-1] for ln in lines)
    assert sorted(got) == [f"{name}/run_info.json:integration"
                           for name in ("counted", "same", "slower")]
    assert got["same/run_info.json:integration"] == got["slower/run_info.json:integration"]
    assert got["same/run_info.json:integration"] != got["counted/run_info.json:integration"]


def test_startup_cost_runs_one_pair(capsys):
    # one pair of fresh processes per copy and command; each tree's copies
    # are made apart, one without bytecode files and one compiled
    cost = load_tool("startup_cost")
    src = os.path.join(os.path.dirname(TOOLS), "src")
    assert cost.main(["--src", src, "--against", src, "--pairs", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [ln.split()[:2] for ln in lines[:2]] == [["pair", "1"]] * 2
    summary = lines[2:]
    assert len(summary) == len(cost.MODES) * len(cost.COMMANDS) * 2 * 2
    for mode in cost.MODES:
        for name, _ in cost.COMMANDS:
            for label in ("wall", "after numpy"):
                rows = [ln for ln in summary if ln.startswith(f"{mode:8s} {name:11s} {label:11s}")]
                assert len(rows) == 2
                wins = [int(ln.split("won ")[1].split()[0]) for ln in rows]
                assert sum(wins) <= 1 and all(ln.endswith("of 1 pairs") for ln in rows)
