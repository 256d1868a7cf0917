"""The JSON reader and the one JSON writer of the package.

`load(path, kind)` reads a JSON document and raises ParseError naming the
file when it cannot be read or decoded.  `write(path, text, kind)` is the
one writer of every output file, JSON or CSV: it raises HexflowError
naming the file when the file cannot be written, and
`check_writable(path, kind)` raises that error before any work for a path
that is a directory or lies in no directory.  The messages name the path
once: an OSError contributes its strerror, not its text, which repeats the
path.

`dumps(obj)` returns exactly the text of `json.dumps(obj, indent=1)`, and
`dump(obj, path, kind)` writes it with a final newline; dict keys must be
strings.  The stdlib falls back to its pure-Python encoder whenever
`indent` is set; this one writes a list (or the values of a dict) that
holds only floats or only ints in a single join, which is most of a
curvature dump.  Non-finite floats are written as `NaN`, `Infinity` and
`-Infinity`, as the stdlib does by default.
"""

from __future__ import annotations

import errno
import json
import math
import os
import stat
from json.encoder import encode_basestring_ascii as _string

from .errors import HexflowError, ParseError


def load(path, kind: str):
    """The JSON document in the `kind` file at path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad JSON or UTF-8
        raise ParseError(f"cannot read {kind} file {path}: {_reason(exc)}") from exc


def dumps(obj) -> str:
    return _encode(obj, "\n")


def write(path, text: str, kind: str) -> None:
    """Write text to the `kind` file at path, in UTF-8 and with no newline
    translation."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise _cannot_write(path, kind, exc) from exc


def check_writable(path, kind: str) -> None:
    """Raise write's error for a path that is a directory or whose directory
    does not exist, before anything is computed for it."""
    try:
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        if not stat.S_ISDIR(os.stat(os.path.dirname(os.path.abspath(path))).st_mode):
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR))
    except OSError as exc:
        raise _cannot_write(path, kind, exc) from exc


def _cannot_write(path, kind: str, exc: OSError) -> HexflowError:
    return HexflowError(f"cannot write {kind} file {path}: {_reason(exc)}")


def _reason(exc: Exception):
    """Why a file could not be read or written, without its path."""
    return getattr(exc, "strerror", None) or exc


def dump(obj, path, kind: str) -> None:
    write(path, dumps(obj) + "\n", kind)


def _float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _key(k) -> str:
    if not isinstance(k, str):
        raise TypeError(f"keys must be str, not {k.__class__.__name__}")
    return _string(k)


def _values(seq: list, newline: str):
    """The encoded items of seq, in one map when they are all plain floats
    (finite: a sum that is not finite sends them the long way) or all ints."""
    kinds = set(map(type, seq))
    if kinds == {float} and math.isfinite(sum(seq)):
        return map(float.__repr__, seq)
    if kinds == {int}:
        return map(int.__repr__, seq)
    return [_encode(v, newline) for v in seq]


def _encode(o, newline: str) -> str:
    """o as JSON text whose container lines start with newline (a line
    break and the current indent)."""
    if isinstance(o, str):
        return _string(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _float(o)
    inner = newline + " "
    sep = "," + inner
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        return "[" + inner + sep.join(_values(o, inner)) + newline + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        items = map("{}: {}".format, map(_key, o), _values(list(o.values()), inner))
        return "{" + inner + sep.join(items) + newline + "}"
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")
