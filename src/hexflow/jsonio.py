"""The JSON reader and the one JSON writer of the package.

`load(path, kind)` reads a JSON document and raises ParseError naming the
file when it cannot be read or decoded.  The cyclic garbage collector is
paused while it decodes (a large surface is tens of thousands of dicts and
lists, none in a cycle, and the collector would walk them again and
again), and the caller's collector state is restored afterwards.

`write(path, text, kind)` is the one writer of every output file, JSON or
CSV: it raises HexflowError naming the file when the file cannot be
written, and `check_writable(path, kind)` raises that error before any
work for a path that is a directory or lies in no directory.  The messages
name the path once: an OSError contributes its strerror, not its text,
which repeats the path.  An existing file is rewritten in place: opened
without truncation, written from offset 0, and then cut to the new length
if it was longer.  Truncating to zero first would make ext4 (with its
default `auto_da_alloc`) start writeback of the new bytes inside
`close()`, which costs several times the write itself.  Only a regular
file is cut, so `/dev/null` and other devices or pipes work as targets.
A write that fails part way cuts the regular file to zero bytes before
raising, so no old bytes follow new ones.  hexflow never fsyncs; the
tradeoff is that a power loss during writeback can now leave old and new
pages mixed in the file, where the truncating open's early flush made an
empty or a complete file more likely.

`dumps(obj)` returns exactly the text of `json.dumps(obj, indent=1)`, and
`dump(obj, path, kind)` writes it with a final newline; dict keys must be
strings.  The stdlib falls back to its pure-Python encoder whenever
`indent` is set; this one writes a list (or the values of a dict) that
holds only floats or only ints in a single join, which is most of a
curvature dump.  A list of at least REPEAT_MIN such numbers in which at
least a quarter repeat goes through `reprs`, which formats each distinct
value once: the symmetric Jacobian of a dump holds every off-diagonal value
twice, and its index columns hold each row or column index several times.
`reprs` also formats the cells of `hexflow volume`'s CSV.
Non-finite floats are written as `NaN`, `Infinity` and `-Infinity`, as the
stdlib does by default.
"""

from __future__ import annotations

import errno
import gc
import json
import math
import os
import stat
from json.encoder import encode_basestring_ascii as _string

import numpy as np

from .errors import HexflowError, ParseError


def load(path, kind: str):
    """The JSON document in the `kind` file at path."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad JSON or UTF-8
        raise ParseError(f"cannot read {kind} file {path}: {_reason(exc)}") from exc
    finally:
        if collecting:
            gc.enable()


def dumps(obj) -> str:
    return _encode(obj, "\n")


def write(path, text: str, kind: str) -> None:
    """Write text to the `kind` file at path, in UTF-8 and with no newline
    translation, in place of whatever the file held."""
    data = text.encode("utf-8")
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
        try:
            _rewrite(fd, data)
        finally:
            os.close(fd)
    except OSError as exc:
        raise _cannot_write(path, kind, exc) from exc


def _rewrite(fd: int, data: bytes) -> None:
    """Write data from offset 0 of the open fd, then cut a regular file that
    was longer to the length of data; cut it to zero if a write fails."""
    info = os.fstat(fd)
    regular = stat.S_ISREG(info.st_mode)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        if regular and info.st_size > len(data):
            os.ftruncate(fd, len(data))
    except OSError:
        if regular:
            os.ftruncate(fd, 0)
        raise


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


def _keys(d: dict):
    """The encoded keys of d, in one map when they are all plain strings."""
    return map(_string if set(map(type, d)) == {str} else _key, d)


# A list of at least this many ints or finite floats goes through reprs
# when its values repeat.
REPEAT_MIN = 512


def reprs(a: np.ndarray) -> list:
    """The repr of each entry of the float64 or int64 array a, in the nested
    lists of a.tolist(), each distinct value formatted once: floats are told
    apart by their bits, so -0.0 stays apart from 0.0."""
    distinct, cell = np.unique(a.view(np.int64), return_inverse=True)
    cells = np.array(list(map(repr, distinct.view(a.dtype).tolist())), dtype=object)
    return cells[cell.reshape(a.shape)].tolist()


def _repeating(seq: list, kinds: set):
    """The list seq of ints or finite floats as an int64 or float64 array
    when at least a quarter of its items repeat an earlier one, else None
    (also when an int lies beyond int64 or a float is not finite).  With
    fewer repeats, the sort in reprs costs more than it saves."""
    try:
        a = np.fromiter(seq, np.int64 if kinds == {int} else np.float64, len(seq))
    except OverflowError:
        return None
    ordered = np.sort(a.view(np.int64))
    if 4 * np.count_nonzero(ordered[1:] == ordered[:-1]) < a.size or not np.isfinite(a).all():
        return None
    return a


def _values(seq: list, newline: str):
    """The encoded items of seq, in one map when they are all ints or all
    plain floats (finite: a sum that is not finite sends them the long way),
    through reprs when there are at least REPEAT_MIN of them that repeat."""
    kinds = set(map(type, seq))
    if kinds == {int} or kinds == {float}:
        a = _repeating(seq, kinds) if len(seq) >= REPEAT_MIN else None
        if a is not None:
            return reprs(a)
        if kinds == {int} or math.isfinite(sum(seq)):
            return map(repr, seq)
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
        items = map("{}: {}".format, _keys(o), _values(list(o.values()), inner))
        return "{" + inner + sep.join(items) + newline + "}"
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")
