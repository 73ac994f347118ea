"""Payload text as ``json.dumps(obj, indent=1, sort_keys=True)`` writes it,
built directly from arrays.

An item at nesting level L sits on its own line indented by L spaces.  The
writers below fill one %-template per array with ``float_texts``, repr's
text, which json writes for a finite float; anything else (non-finite
values, small dicts) goes through ``json.dumps`` itself.  ``row_texts``
prints a whole array with orjson's shortest round-trip printer (Ryu), whose
digits are repr's; its form differs where repr writes an exponent, and for
NaN and infinities ("1e16", "0.00001", null against "1e+16", "1e-05",
"nan"), so a row holding such an entry (non-finite, or non-zero with
|x| < 1e-4 or |x| >= 1e16) is re-written with ``float.__repr__``.  orjson
is imported on the first call: a process that writes no payload never loads it.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

__all__ = ["float_texts", "json_at", "json_block", "json_object", "json_rows", "json_records",
           "row_texts"]


def row_texts(arr):
    """The text of each row of a 1-D or 2-D int or float array, from one
    orjson pass: a 1-D row is its entry, a 2-D row its entries joined by
    commas, and a float is written as ``float.__repr__`` writes it."""
    import orjson

    a = np.ascontiguousarray(arr)
    text = orjson.dumps(a, option=orjson.OPT_SERIALIZE_NUMPY).decode()
    rows = text[2:-2].split("],[") if a.ndim == 2 else text[1:-1].split(",")
    if a.dtype.kind == "f":
        mag = np.abs(a)
        odd = ~(mag < 1e16) | ((mag < 1e-4) & (mag != 0))  # NaN is not < 1e16
        by_row = a.reshape(len(rows), -1)
        for k in np.flatnonzero(odd if a.ndim == 1 else odd.any(axis=1)).tolist():
            rows[k] = ",".join(map(float.__repr__, by_row[k].tolist()))
    return rows if a.size else []


def float_texts(arr):
    """``float.__repr__`` of every entry of a float array, in C order."""
    return row_texts(np.ravel(np.asarray(arr, dtype=float)))


def json_at(obj, level):
    """``obj`` as json.dumps writes it at nesting ``level``."""
    return json.dumps(obj, indent=1, sort_keys=True).replace("\n", "\n" + " " * level)


def json_block(items, level, brackets="[]"):
    """A list (or, with brackets "{}", a dict) at ``level`` from its items,
    each already written at level + 1."""
    if not items:
        return brackets
    pad = "\n" + " " * (level + 1)
    return brackets[0] + pad + ("," + pad).join(items) + "\n" + " " * level + brackets[1]


def json_object(pairs, level):
    """A dict at ``level`` from (key, value text) pairs in sorted key order."""
    return json_block([f"{json.dumps(k)}: {text}" for k, text in pairs], level, "{}")


def _list_template(k, level):
    """A list of ``k`` placeholders at ``level``."""
    return json_block(["%s"] * k, level)


def json_rows(arr, level):
    """An (n, k) float array as a list of rows at ``level``."""
    arr = np.asarray(arr, dtype=float)
    if not arr.size or not np.isfinite(arr).all():
        # json writes NaN and Infinity, which float repr does not
        return json_at(arr.tolist(), level)
    row = _list_template(arr.shape[1], level + 1)
    return json_block([row] * len(arr), level) % tuple(float_texts(arr))


def json_records(columns, level, apart):
    """A list of n dicts at ``level``, dict k mapping each key to its
    column's entry k, from (key, column) pairs in sorted key order.

    A column is a float array of shape (n,), a float array of shape (m, n)
    (a list of m floats per dict), or n strings.  ``apart`` maps a row index
    to that dict's text, already written at level + 1, which replaces the
    row; every other row's floats must be finite.
    """
    slots, cells = [], []
    for key, col in columns:
        if np.ndim(col) == 2:
            slots.append((key, _list_template(len(col), level + 2)))
            cells += map(float_texts, np.asarray(col, float))
        elif isinstance(col, np.ndarray) and col.dtype.kind == "f":
            slots.append((key, "%s"))
            cells.append(float_texts(col))
        else:
            text = {s: json.dumps(s) for s in set(col)}
            slots.append((key, "%s"))
            cells.append([text[s] for s in col])
    row = json_object(slots, level + 1)
    per_row = list(zip(*cells))
    for k, text in apart.items():
        per_row[k] = (text,)
    template = json_block(["%s" if k in apart else row for k in range(len(per_row))], level)
    return template % tuple(itertools.chain.from_iterable(per_row))
