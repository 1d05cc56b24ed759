"""Linear endomorphisms of the letter space.

Three representations cover everything the library needs:

* ``matrix`` — a square rational matrix over a finite ordered alphabet;
  entry ``[i][j]`` is the coefficient of letter ``i`` in the image of
  letter ``j``;
* ``diagonal`` — one rational weight per letter;
* ``biletter_shift`` — the raise-the-index map ``k:d -> (k+1):d`` on the
  (lazily materialized, infinite) alphabet of indexed letters.

Values of the endomorphism are degree-one tensors (linear combinations of
single-letter words), so images compose directly with the word operations.
"""

from __future__ import annotations

import json
from types import MappingProxyType
from typing import Mapping, Sequence

from .words import (
    Letter,
    Rat,
    Tensor,
    Word,
    _add_into,
    check_coefficient,
    parse_letter,
    parse_rational,
    rational_to_str,
)


class Endo:
    """A linear endomorphism of the span of letters.

    Construct via :meth:`matrix`, :meth:`diagonal`, :meth:`biletter_shift`
    or the presets :func:`fliess_channel` / :func:`diagonal_weights`.
    """

    __slots__ = ("kind", "alphabet", "columns", "weights")

    def __init__(
        self,
        kind: str,
        alphabet: tuple[Letter, ...],
        columns: Mapping[Letter, Mapping[Letter, Rat]] | None = None,
        weights: Mapping[Letter, Rat] | None = None,
    ):
        if kind not in ("matrix", "diagonal", "biletter_shift"):
            raise ValueError(f"unknown endomorphism kind: {kind!r}")
        self.kind = kind
        self.alphabet = alphabet
        # read-only views: contexts cache products under the map, so an
        # image handed out must not be able to change it
        self.columns = None if columns is None else MappingProxyType(
            {x: MappingProxyType(dict(col)) for x, col in columns.items()}
        )
        self.weights = None if weights is None else MappingProxyType(dict(weights))

    # -- constructors -------------------------------------------------------

    @classmethod
    def matrix(cls, alphabet: Sequence[Letter | str], entries: Sequence[Sequence[Rat]]) -> "Endo":
        """Square matrix over ``alphabet``; ``entries[i][j]`` is the
        coefficient of ``alphabet[i]`` in the image of ``alphabet[j]``."""
        letters = tuple(_as_letter(x) for x in alphabet)
        n = len(letters)
        if n == 0:
            raise ValueError("matrix endomorphism needs a nonempty alphabet")
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
        return cls("diagonal", tuple(sorted(wmap)), weights=wmap)

    @classmethod
    def biletter_shift(cls, decorations: Sequence[str] = ()) -> "Endo":
        """The shift ``k:d -> (k+1):d``.  An empty ``decorations`` list means
        every decoration symbol is allowed."""
        return cls("biletter_shift", tuple(Letter(d) for d in decorations))

    # -- basic protocol -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Endo):
            return NotImplemented
        return (
            self.kind == other.kind
            and self.alphabet == other.alphabet
            and self.columns == other.columns
            and self.weights == other.weights
        )

    def __repr__(self) -> str:
        return f"<Endo {self.kind} on {len(self.alphabet)} letters>"

    def image_letter(self, x: Letter) -> Mapping[Letter, Rat]:
        """The image of a single letter as a letter -> coefficient map."""
        if self.kind == "matrix":
            col = self.columns.get(x)
            if col is None:
                raise ValueError(f"letter {x} outside the alphabet of this endomorphism")
            return col
        if self.kind == "diagonal":
            if x not in self.weights:
                raise ValueError(f"letter {x} outside the alphabet of this endomorphism")
            lam = self.weights[x]
            return {x: lam} if lam else {}
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
    acc: dict[Word, Rat] = {}
    for w, c in v.items():
        if len(w) != 1:
            raise ValueError(f"apply_endo expects single-letter words, got {w}")
        _add_into(acc, ((Word((y,)), m) for y, m in f.image_letter(w[0]).items()), c)
    return Tensor._from_clean(acc)


def iterate_endo(f: Endo, k: int, v: Tensor) -> Tensor:
    """Apply ``f`` a total of ``k`` times; ``k = 0`` is the identity."""
    if k < 0:
        raise ValueError("iteration count must be >= 0")
    for _ in range(k):
        if not v:
            break
        v = apply_endo(f, v)
    return v


def iterate_endo_letter(f: Endo, k: int, x: Letter) -> dict[Letter, Rat]:
    acc: dict[Letter, Rat] = {x: 1}
    for _ in range(k):
        if not acc:
            break
        acc = _compose_image(f, acc)
    return acc


def nilpotency_index(f: Endo) -> int | None:
    """Least N with the N-th power identically zero, or None.

    For a matrix on n letters a nilpotent map satisfies f^n = 0, so the
    search stops at n.  A diagonal map is nilpotent only when every weight
    is zero; the biletter shift never is.
    """
    if f.kind == "biletter_shift":
        return None
    if f.kind == "diagonal":
        return 1 if all(lam == 0 for lam in f.weights.values()) else None
    n = len(f.alphabet)
    images: dict[Letter, dict[Letter, Rat]] = {x: {x: 1} for x in f.alphabet}
    for power in range(1, n + 1):
        images = {
            x: _compose_image(f, img) for x, img in images.items()
        }
        if all(not img for img in images.values()):
            return power
    return None


def _compose_image(f: Endo, img: dict[Letter, Rat]) -> dict[Letter, Rat]:
    out: dict[Letter, Rat] = {}
    for y, c in img.items():
        _add_into(out, f.image_letter(y).items(), c)
    return out


def transpose_endo(f: Endo) -> Endo:
    """Matrix transpose in the letter basis; diagonal maps are self-dual.

    The biletter shift is rejected: its transpose would lower indices on an
    infinite alphabet and is never needed.
    """
    if f.kind == "diagonal":
        return f
    if f.kind == "matrix":
        rows: dict[Letter, dict[Letter, Rat]] = {x: {} for x in f.alphabet}
        for j, col in f.columns.items():
            for i, c in col.items():
                rows[i][j] = c
        return Endo("matrix", f.alphabet, columns=rows)
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

def endo_to_json(f: Endo) -> str:
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
    doc = json.loads(src)
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
        return Endo.diagonal({parse_letter(k): _entry(v) for k, v in weights.items()})
    if kind == "biletter_shift":
        return Endo.biletter_shift([x.name for x in alphabet])
    raise ValueError(f"unknown endomorphism kind in JSON: {kind!r}")


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
        if e != int(e):
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
