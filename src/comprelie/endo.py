"""Linear endomorphisms of the letter space.

Three kinds cover everything the library needs:

* ``matrix`` — a square rational matrix over a finite ordered alphabet;
  entry ``[i][j]`` is the coefficient of letter ``i`` in the image of
  letter ``j``;
* ``diagonal`` — one rational weight per letter;
* ``biletter_shift`` — the raise-the-index map ``k:d -> (k+1):d`` on the
  (lazily materialized, infinite) alphabet of indexed letters.

The two finite kinds share one stored form, the column table
``letter -> image``; a diagonal map is the table ``{x: {x: w}}``.  The
shift is a rule on the letter and stores no table.

Values of the endomorphism are degree-one tensors (linear combinations of
single-letter words), so images compose directly with the word operations.
"""

from __future__ import annotations

from itertools import islice
from types import MappingProxyType
from typing import Iterator, Mapping, Sequence

from .words import (
    Frozen,
    Letter,
    Rat,
    Tensor,
    Word,
    _linear,
    _set,
    check_coefficient,
    parse_letter,
    parse_rational,
    rational_to_str,
)


class Endo(Frozen):
    """A linear endomorphism of the span of letters.

    Construct via :meth:`matrix`, :meth:`diagonal`, :meth:`biletter_shift`
    or the presets :func:`fliess_channel` / :func:`diagonal_weights`.
    Maps compare by kind, alphabet and columns.
    """

    __slots__ = ("kind", "alphabet", "columns")

    def __init__(
        self,
        kind: str,
        alphabet: tuple[Letter, ...],
        columns: Mapping[Letter, Mapping[Letter, Rat]] | None = None,
    ):
        if kind not in ("matrix", "diagonal", "biletter_shift"):
            raise ValueError(f"unknown endomorphism kind: {kind!r}")
        _set(self, "kind", kind)
        _set(self, "alphabet", alphabet)
        # read-only views: contexts cache products under the map, so an
        # image handed out must not be able to change it
        if columns is not None:
            columns = MappingProxyType(
                {x: MappingProxyType(dict(col)) for x, col in columns.items()}
            )
        _set(self, "columns", columns)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.kind, self.alphabet, self.columns) == (
            other.kind, other.alphabet, other.columns
        )

    __hash__ = None  # equal maps compare equal, but column mappings have no hash

    def __reduce__(self):
        # the read-only views do not pickle: rebuild from plain column dicts
        columns = None if self.columns is None else {x: dict(c) for x, c in self.columns.items()}
        return type(self), (self.kind, self.alphabet, columns)

    # -- constructors -------------------------------------------------------

    @classmethod
    def matrix(cls, alphabet: Sequence[Letter | str], entries: Sequence[Sequence[Rat]]) -> "Endo":
        """Square matrix over ``alphabet``; ``entries[i][j]`` is the
        coefficient of ``alphabet[i]`` in the image of ``alphabet[j]``."""
        letters = tuple(_as_letter(x) for x in alphabet)
        n = len(letters)
        if n == 0:
            raise ValueError("matrix endomorphism needs a nonempty alphabet")
        if len(set(letters)) != n:
            raise ValueError("matrix alphabet names a letter twice")
        if len(entries) != n or any(len(row) != n for row in entries):
            raise ValueError(f"matrix must be {n}x{n} to match the alphabet")
        columns: dict[Letter, dict[Letter, Rat]] = {}
        for j, col_letter in enumerate(letters):
            col = {}
            for i, row_letter in enumerate(letters):
                c = check_coefficient(entries[i][j])
                if c:
                    col[row_letter] = c
            columns[col_letter] = col
        return cls("matrix", letters, columns=columns)

    @classmethod
    def diagonal(cls, weights: Mapping[Letter | str, Rat]) -> "Endo":
        wmap = {_as_letter(k): check_coefficient(v) for k, v in weights.items()}
        if len(wmap) != len(weights):  # "a" and Letter("a") name one letter
            raise ValueError("diagonal weights name a letter twice")
        columns = {x: {x: w} if w else {} for x, w in wmap.items()}
        return cls("diagonal", tuple(sorted(wmap)), columns=columns)

    @classmethod
    def biletter_shift(cls, decorations: Sequence[str] = ()) -> "Endo":
        """The shift ``k:d -> (k+1):d``.  An empty ``decorations`` list means
        every decoration symbol is allowed."""
        return cls("biletter_shift", tuple(Letter(d) for d in decorations))

    @property
    def weights(self) -> Mapping[Letter, Rat] | None:
        """The weight of each letter of a diagonal map, in input order."""
        if self.kind != "diagonal":
            return None
        return MappingProxyType({x: col.get(x, 0) for x, col in self.columns.items()})

    # -- basic protocol -----------------------------------------------------

    def __repr__(self) -> str:
        return f"<Endo {self.kind} on {len(self.alphabet)} letters>"

    def image_letter(self, x: Letter) -> Mapping[Letter, Rat]:
        """The image of a single letter as a letter -> coefficient map."""
        if self.columns is not None:
            col = self.columns.get(x)
            if col is None:
                raise ValueError(f"letter {x} outside the alphabet of this endomorphism")
            return col
        # biletter shift
        if x.shift is None:
            raise ValueError(f"biletter shift needs indexed letters, got plain {x}")
        if self.alphabet and Letter(x.name) not in self.alphabet:
            raise ValueError(f"decoration {x.name!r} outside the alphabet of this shift")
        return {Letter(x.name, x.shift + 1): 1}


def _as_letter(x: Letter | str) -> Letter:
    return x if isinstance(x, Letter) else parse_letter(x)


def apply_endo(f: Endo, v: Tensor) -> Tensor:
    """Linear extension of ``f`` to a degree-one tensor."""
    return iterate_endo(f, 1, v)


def iterate_endo(f: Endo, k: int, v: Tensor) -> Tensor:
    """Apply ``f`` a total of ``k`` times; ``k = 0`` is the identity.
    The linear extension of :func:`iterate_endo_letter`."""
    if k < 0:
        raise ValueError("iteration count must be >= 0")

    def image(w: Word):
        if len(w) != 1:
            raise ValueError(f"apply_endo expects single-letter words, got {w}")
        return ((Word((y,)), m) for y, m in iterate_endo_letter(f, k, w[0]).items())

    return Tensor._from_clean(_linear(image, v.items()))


def letter_iterates(f: Endo, x: Letter) -> Iterator[dict[Letter, Rat]]:
    """f^0(x) = x, f^1(x), f^2(x), ..., each a fresh dict that applies
    ``f`` once to the one before, up to the last nonzero power.  The
    kernels that sum over powers step one of these per letter and call,
    so each power is computed once and nothing is kept between calls."""
    img = {x: 1}
    while img:
        yield img
        img = _compose_image(f, img)


def iterate_endo_letter(f: Endo, k: int, x: Letter) -> dict[Letter, Rat]:
    """f^k(x), a fresh letter -> coefficient dict; ``k <= 0`` gives x."""
    return next(islice(letter_iterates(f, x), max(k, 0), None), {})


def nilpotency_index(f: Endo) -> int | None:
    """Least N with the N-th power identically zero, or None.

    A nilpotent map on n letters has f^n = 0: the search steps the images
    of all letters together, n steps at most.  A diagonal map is nilpotent
    only when it is zero; the biletter shift never is.
    """
    if f.kind == "biletter_shift":
        return None
    images = [{x: 1} for x in f.alphabet]
    for power in range(1, len(f.alphabet) + 1):
        images = [img for img in (_compose_image(f, img) for img in images) if img]
        if not images:
            return power
    return None


def _compose_image(f: Endo, img: Mapping[Letter, Rat]) -> dict[Letter, Rat]:
    return _linear(lambda y: f.image_letter(y).items(), img.items())


def transpose_endo(f: Endo) -> Endo:
    """Matrix transpose in the letter basis, of the same kind (diagonal
    maps are self-dual).

    The biletter shift is rejected: its transpose would lower indices on an
    infinite alphabet and is never needed.
    """
    if f.columns is not None:
        rows: dict[Letter, dict[Letter, Rat]] = {x: {} for x in f.columns}
        for j, col in f.columns.items():
            for i, c in col.items():
                rows[i][j] = c
        return Endo(f.kind, f.alphabet, columns=rows)
    raise ValueError("the biletter shift has no transpose here (infinite alphabet)")


def image_span_letters(f: Endo) -> list[Tensor]:
    """Spanning set of the image of ``f`` (one degree-one tensor per letter)."""
    out = []
    for x in f.alphabet:
        t = apply_endo(f, Tensor.of(Word((x,))))
        if t:
            out.append(t)
    return out


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def fliess_channel(n: int, i: int) -> Endo:
    """The input-channel endomorphism on letters x0..xn: x_j -> delta_ij x0.

    Valid channels are 1 <= i <= n; the squared map is zero.
    """
    if not 1 <= i <= n:
        raise ValueError(f"channel must satisfy 1 <= i <= n, got i={i}, n={n}")
    alphabet = [f"x{j}" for j in range(n + 1)]
    entries = [[0] * (n + 1) for _ in range(n + 1)]
    entries[0][i] = 1
    return Endo.matrix(alphabet, entries)


def diagonal_weights(weights: Mapping[str, Rat]) -> Endo:
    return Endo.diagonal(weights)


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------

# ``json`` is imported where it is used: most processes never save or load a
# map, and importing it costs about 2 ms of start-up.

def endo_to_json(f: Endo) -> str:
    import json

    doc: dict = {"alphabet": [str(x) for x in f.alphabet], "kind": f.kind}
    if f.kind == "matrix":
        idx = {x: i for i, x in enumerate(f.alphabet)}
        n = len(f.alphabet)
        mat = [["0"] * n for _ in range(n)]
        for j, col in f.columns.items():
            for i, c in col.items():
                mat[idx[i]][idx[j]] = rational_to_str(c)
        doc["matrix"] = mat
    elif f.kind == "diagonal":
        doc["weights"] = {str(x): rational_to_str(c) for x, c in f.weights.items()}
    return json.dumps(doc, indent=2)


def endo_from_json(src: str) -> Endo:
    import json

    doc = json.loads(src, object_pairs_hook=_unique_keys)
    if not isinstance(doc, dict):
        raise ValueError("endomorphism JSON must be an object")
    kind = doc.get("kind")
    tokens = doc.get("alphabet", [])
    if not (isinstance(tokens, list) and all(isinstance(tok, str) for tok in tokens)):
        raise ValueError("endomorphism JSON 'alphabet' must be a list of strings")
    alphabet = [parse_letter(tok) for tok in tokens]
    if kind == "matrix":
        rows = _field(doc, "matrix")
        if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)):
            raise ValueError("matrix endomorphism JSON 'matrix' must be a list of lists")
        entries = [[_entry(e) for e in row] for row in rows]
        return Endo.matrix(alphabet, entries)
    if kind == "diagonal":
        weights = _field(doc, "weights")
        if not isinstance(weights, dict):
            raise ValueError("diagonal endomorphism JSON 'weights' must be an object")
        f = Endo.diagonal({parse_letter(k): _entry(v) for k, v in weights.items()})
        if "alphabet" in doc and tuple(sorted(alphabet)) != f.alphabet:
            raise ValueError("diagonal endomorphism JSON 'alphabet' must name exactly its weights' letters")
        return f
    if kind == "biletter_shift":
        return Endo.biletter_shift([x.name for x in alphabet])
    raise ValueError(f"unknown endomorphism kind in JSON: {kind!r}")


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's pairs as a dict, refusing a key given twice, which
    ``json`` would otherwise settle silently by keeping the last."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"endomorphism JSON names the key {key!r} twice")
        doc[key] = value
    return doc


def _field(doc: dict, key: str):
    if key not in doc:
        raise ValueError(f"{doc['kind']} endomorphism JSON needs a {key!r} key")
    return doc[key]


def _entry(e: object) -> Rat:
    if isinstance(e, str):
        return parse_rational(e)
    if isinstance(e, int):
        return e
    if isinstance(e, float):
        if not e.is_integer():  # infinities and NaN included
            raise ValueError(f"non-integral float entry {e!r}; use a 'p/q' string")
        return int(e)
    raise ValueError(f"bad matrix entry: {e!r}")


def load_endo(path: str) -> Endo:
    with open(path, "r", encoding="utf-8") as fh:
        return endo_from_json(fh.read())


def save_endo(f: Endo, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(endo_to_json(f))
        fh.write("\n")
