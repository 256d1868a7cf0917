"""The JSON reader and the one JSON writer of the package.

`load(path, kind)` reads a JSON document and raises ParseError naming the
file when it cannot be read or decoded.  It decodes under
`paused_collector()`: a large surface is tens of thousands of dicts and
lists, none in a cycle, and the cyclic garbage collector would walk them
again and again while they accumulate.  Once it resumes, its first pass
walks every one of them still alive, so `load_surface` keeps it paused
until the decoded records are gone; the caller's collector state is
restored either way.  `floats` is the one number check of the vectors the
input files hold, a factor's and a target's.

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

`dumps(obj)` returns exactly the text of
`json.dumps(obj, indent=1, default=np.ndarray.tolist)` for an obj whose
only arrays are 1-d int64 or float64 ones; any other array raises
TypeError.  `dump(obj, path, kind)` writes it with a final newline; dict
keys must be strings.  The stdlib falls back to its pure-Python encoder
whenever `indent` is set; this one writes an array, or a list (or the
values of a dict) that holds only floats or only ints, in a single join,
which is all of a curvature dump but its keys.  One rule, `reprs`,
formats every run of numbers: an array, a list of floats or the float
values of a dict (as the array of them), and the cells of `hexflow
volume`'s CSV.  At least REPEAT_MIN finite numbers of which at least a
quarter repeat go through their distinct values, each formatted once,
with the one sort that found the repeats (`np.unique`, which also builds
`Surface.jacobian_pattern`): the symmetric Jacobian of a dump holds every
off-diagonal value twice, its index columns hold each row or column index
several times, and at a uniform factor a dump's margins and K and a
factor's components repeat one or two values.  A list of ints is joined
in one map, as its ints may lie beyond int64.  Non-finite floats are
written as `NaN`, `Infinity` and `-Infinity`, as the stdlib does by
default; the CSV's cells are finite, as `volume_grid` skips the points
the kernel cannot evaluate.  Each container's text is built in one piece
by an f-string: a chain of `+` allocates and copies a fresh string per
operator, about 2 ms for a 1.5 MB text on a 2-vCPU x86-64 VM against
0.1 ms for the f-string.
"""

from __future__ import annotations

import errno
import gc
import json
import math
import os
import stat
from contextlib import contextmanager
from json.encoder import encode_basestring_ascii as _string

import numpy as np

from .errors import HexflowError, ParseError


@contextmanager
def paused_collector():
    """Pause the cyclic garbage collector for the block and then restore
    the caller's state, also when the block raises."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


def load(path, kind: str):
    """The JSON document in the `kind` file at path."""
    with paused_collector():
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad JSON or UTF-8
            raise ParseError(f"cannot read {kind} file {path}: {_reason(exc)}") from exc


def floats(data: dict, key: str, path, kind: str) -> np.ndarray:
    """data[key], from the `kind` file at path, as a float array.  numpy
    would read a string or a boolean as a number and null as NaN, so a list
    holding one raises ParseError, as does a value numpy cannot convert;
    both messages name the file."""
    value = data[key]
    if isinstance(value, list) and set(map(type, value)) & {str, bool, type(None)}:
        raise ParseError(f"{kind} file {path}: every entry of {key!r} must be a number")
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{kind} file {path}: {exc}") from exc


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


# At least this many ints or finite floats go through their distinct values
# when they repeat.
REPEAT_MIN = 512


def reprs(a: np.ndarray) -> list:
    """The encoded entries of the float64 or int64 array a, in a.ravel()
    order: through their distinct values, each formatted once, when there
    are at least REPEAT_MIN, all finite, and at least a quarter of them
    repeat an earlier one (with fewer repeats the sort costs more than it
    saves), else in one map.  Floats are told apart by their bits, so -0.0
    stays apart from 0.0."""
    a = a.ravel()
    finite = a.dtype.kind == "i" or bool(np.isfinite(a).all())
    if finite and a.size >= REPEAT_MIN:
        bits, inverse = np.unique(a.view(np.int64), return_inverse=True)
        if 4 * (a.size - bits.size) >= a.size:
            cells = np.array(list(map(repr, bits.view(a.dtype).tolist())), object)
            return cells[inverse].tolist()
    return list(map(repr if finite else _float, a.tolist()))


def _values(seq: list, newline: str):
    """The encoded items of seq: ints in one map (they may lie beyond
    int64), floats as the array of them, anything else item by item."""
    kinds = set(map(type, seq))
    if kinds == {int}:
        return map(repr, seq)
    if kinds == {float}:
        return reprs(np.array(seq))
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
        return f"[{inner}{sep.join(_values(o, inner))}{newline}]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        items = map(": ".join, zip(_keys(o), _values(list(o.values()), inner)))
        return f"{{{inner}{sep.join(items)}{newline}}}"
    if type(o) is np.ndarray:
        if o.ndim != 1 or o.dtype not in (np.int64, np.float64):
            raise TypeError(f"an array of shape {o.shape} and dtype {o.dtype} is not JSON serializable")
        if not o.size:
            return "[]"
        return f"[{inner}{sep.join(reprs(o))}{newline}]"
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")
