"""Span recording around the public functions of each comprelie layer.

``install()`` wraps every public module-level function of the layer
modules, plus a few hot methods, and rebinds each wrapped name in every
loaded ``comprelie`` module that holds it (modules import names directly,
as in ``from .words import shuffle``).  While the recorder is active each
call appends one span: function id, start, end, parent span, the number
of terms it returned, and two counters used for ratios.  Spans stay in
memory and are written out in one binary file at the end; ``aggregate``
turns span files into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from array import array
from fractions import Fraction
from pathlib import Path
from time import perf_counter

LAYERS = (
    "words", "endo", "prelie", "enveloping", "characters",
    "trees", "forests", "admissible", "exactla", "cli",
)

# Per-letter and per-coefficient helpers: they do no algebra of their own
# and would multiply the span count by the number of coefficients.
SKIP = {
    "words": {"check_coefficient", "word", "parse_letter", "parse_rational",
              "rational_to_str", "word_to_str"},
    "trees": {"vec"},
}

METHODS = {
    "enveloping": [("OudomGuin", "bullet"), ("OudomGuin", "star")],
    "exactla": [("SpanBasis", "add"), ("SpanBasis", "contains")],
}

_ARRAYS = (("fn", "i"), ("parent", "i"), ("start", "d"), ("end", "d"),
           ("terms", "q"), ("kept", "q"), ("nonint", "q"))


def n_terms(x) -> int:
    """Terms in a returned linear combination (0 for scalars and text)."""
    t = getattr(x, "terms", None)
    if isinstance(t, dict):
        return len(t)
    for attr in ("tensor", "series"):  # TruncatedSeries, FliessElement
        inner = getattr(x, attr, None)
        if inner is not None:
            return n_terms(inner)
    if isinstance(x, (dict, list)):
        return len(x)
    if isinstance(x, tuple):
        return sum(n_terms(e) for e in x if not isinstance(e, (int, Fraction)))
    return 0


def _trunc_of(args, kwargs):
    if kwargs.get("trunc") is not None:
        return kwargs["trunc"]
    for a in args:
        if isinstance(a, (tuple, list)) and a:
            a = a[0]
        a = getattr(a, "series", a)
        t = getattr(a, "trunc", None)
        if isinstance(t, int):
            return t
    return None


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        for name, code in _ARRAYS:
            setattr(self, name, array(code))
        self.stack: list[int] = []
        self.truncs: list[int | None] = []
        self.active = False
        self.meta: dict = {}

    def wrap(self, layer: str, name: str, fn):
        fid = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        rec = self
        is_shuffle = layer == "words" and name == "shuffle"
        is_char = layer == "characters"
        is_prelie = layer == "prelie"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            idx = len(rec.fn)
            rec.fn.append(fid)
            rec.parent.append(rec.stack[-1] if rec.stack else -1)
            rec.start.append(0.0)
            rec.end.append(0.0)
            rec.terms.append(0)
            rec.kept.append(-1)
            rec.nonint.append(0)
            rec.stack.append(idx)
            if is_char:
                rec.truncs.append(_trunc_of(args, kwargs))
            rec.start[idx] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.end[idx] = perf_counter()
                rec.stack.pop()
                if is_char:
                    rec.truncs.pop()
            rec.terms[idx] = n_terms(out)
            if is_shuffle and rec.truncs and rec.truncs[-1] is not None:
                limit = rec.truncs[-1]
                rec.kept[idx] = sum(1 for w in out.terms if len(w) <= limit)
            if is_prelie and isinstance(getattr(out, "terms", None), dict):
                rec.nonint[idx] = sum(
                    1 for c in out.terms.values()
                    if isinstance(c, Fraction) and c.denominator != 1
                )
            return out

        return wrapper

    def write(self, path: Path) -> None:
        """Write the spans as raw arrays after a one-line JSON header."""
        header = {"names": self.names, "layers": self.layers,
                  "count": len(self.fn), "meta": self.meta}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for name, _ in _ARRAYS:
                getattr(self, name).tofile(fh)


def install() -> Recorder:
    """Wrap the layer functions of every loaded comprelie module."""
    rec = Recorder()
    originals: dict[int, object] = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"comprelie.{layer}")
        skip = SKIP.get(layer, set())
        for name, fn in list(vars(mod).items()):
            if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                    and not name.startswith("_") and name not in skip):
                originals[id(fn)] = rec.wrap(layer, name, fn)
        for cls_name, meth in METHODS.get(layer, ()):
            cls = getattr(mod, cls_name)
            setattr(cls, meth, rec.wrap(layer, f"{cls_name}.{meth}", getattr(cls, meth)))
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "comprelie" or mod_name.startswith("comprelie.")):
            continue
        for name, value in list(vars(mod).items()):
            wrapper = originals.get(id(value))
            if wrapper is not None:
                setattr(mod, name, wrapper)
    return rec


def _read(path: Path):
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["count"]
        cols = {}
        for name, code in _ARRAYS:
            a = array(code)
            a.fromfile(fh, n)
            cols[name] = a
    return header, cols


def aggregate(paths) -> dict:
    """Per-layer calls, self time and terms out, summed over span files."""
    calls = {layer: 0 for layer in LAYERS}
    self_s = {layer: 0.0 for layer in LAYERS}
    terms = {layer: 0 for layer in LAYERS}
    kept = produced = nonint = prelie_terms = 0
    metas = []
    for path in paths:
        header, c = _read(path)
        metas.append(header["meta"])
        layer_of = header["layers"]
        n = header["count"]
        child = [0.0] * n
        fn, parent, start, end = c["fn"], c["parent"], c["start"], c["end"]
        # children always have larger indices than their parent
        for i in range(n - 1, -1, -1):
            dur = end[i] - start[i]
            layer = layer_of[fn[i]]
            calls[layer] += 1
            self_s[layer] += dur - child[i]
            terms[layer] += c["terms"][i]
            if parent[i] >= 0:
                child[parent[i]] += dur
            if c["kept"][i] >= 0:
                kept += c["kept"][i]
                produced += c["terms"][i]
            if layer == "prelie":
                nonint += c["nonint"][i]
                prelie_terms += c["terms"][i]
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.terms_out"] = terms[layer]
    out["characters.shuffle_kept_ratio"] = kept / produced if produced else 0.0
    out["prelie.fraction_share"] = nonint / prelie_terms if prelie_terms else 0.0
    return out, metas
