import json
import os
import subprocess
import sys

import numpy as np
import pytest

from affasym.jsontext import float_texts, json_records, json_rows

PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# where repr switches between plain and exponent form, and the ends of the range
EDGES = [0.0, -0.0, 1e-4, 9.999999999999999e-05, 0.00010000000000000002,
         9999999999999998.0, 1e16, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]


def reprs(a):
    return list(map(float.__repr__, np.asarray(a, dtype=float).ravel().tolist()))


def test_float_texts_match_repr_at_the_edges():
    a = np.array(EDGES + [-x for x in EDGES] + [np.nan, np.inf, -np.inf, 1e-5, 1.5e17])
    assert float_texts(a) == reprs(a)


@pytest.mark.parametrize("a", [
    np.zeros(0),
    np.zeros((0, 3)),
    np.arange(24.0).reshape(4, 6)[:, ::2] * 1e-3,   # not contiguous
    np.linspace(-2e16, 2e16, 21).reshape(7, 3),
    np.geomspace(1e-320, 1e300, 40).reshape(5, 8),
    np.float64(-1e-7),
])
def test_float_texts_match_repr_in_c_order(a):
    assert float_texts(a) == reprs(a)


def test_float_texts_match_repr_on_random_bit_patterns():
    rng = np.random.default_rng(20261018)
    bits = rng.integers(0, 2 ** 64, size=1_000_000, dtype=np.uint64)
    # half of them with a binary exponent in [-14, 53], around the range
    # 1e-4 <= |x| < 1e16 that orjson writes alone (random bits rarely land there)
    exponent = rng.integers(1023 - 14, 1023 + 54, size=500_000, dtype=np.uint64)
    bits[:500_000] = (bits[:500_000] & ~np.uint64(0x7FF << 52)) | (exponent << np.uint64(52))
    a = bits.view(float)
    assert float_texts(a) == reprs(a)


def test_json_rows_and_records_match_json_dumps():
    rows = np.array([[1e-5, -0.0, 3.5], [2e16, 5e-324, 0.1], [1e-4, -7e-300, 1e300]])
    assert json_rows(rows, 0) == json.dumps(rows.tolist(), indent=1)
    cols = [("a", rows[:, 0]), ("b", rows.T.copy()), ("c", ["x", "y", "x"])]
    want = [{"a": rows[k, 0], "b": rows[k].tolist(), "c": "xyx"[k]} for k in range(3)]
    assert json_records(cols, 0, {}) == json.dumps(want, indent=1, sort_keys=True)


def test_set_up_path_loads_no_writer():
    # the benchmark's set-up process builds a field and writes nothing, so it
    # must not pay for the payload writers or orjson
    code = ("import sys\n"
            "from affasym import bde, surface\n"
            "bde.extended_field_for(surface.catalog_surface(\n"
            "    'cusp_gauss', {'q': {(2, 1): 1.0, (4, 0): 0.1}}))\n"
            "bde.extended_field_for(surface.catalog_surface('torus', {'R': 3.0, 'r': 1.0}))\n"
            "print(sorted(m for m in ('orjson', 'affasym.jsontext') if m in sys.modules))\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(PKG_ROOT, "src"))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"
