"""Exact linear algebra over words: the shuffle Hopf algebra on a free module.

Words are finite sequences of letters; a letter is either a plain symbol
(``a``, ``x0``) or an indexed symbol ``k:d`` carrying a natural shift ``k``
(used by the generic endomorphism that raises the index).  Linear
combinations of words with rational coefficients (:class:`Tensor`) carry the
shuffle product, its half-shuffle (Zinbiel) refinement, concatenation, and
the deconcatenation coproduct.

Conventions:

* the empty word ``e`` is the unit for shuffle and concatenation;
* ``e < w = 0`` and ``w < e = w`` for nonempty ``w``, while ``e < e`` is
  rejected (the half-shuffle of two empty words is undefined);
* coefficients are exact rationals and floats are rejected; one rule,
  :func:`_div`, makes each returned coefficient an ``int`` exactly when
  it is integral and a ``fractions.Fraction`` otherwise.
"""

from __future__ import annotations

import itertools
import re
from collections import Counter
from fractions import Fraction
from math import gcd
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence, Union

Rat = Union[int, Fraction]


def _div(a: int, b: int) -> Rat:
    """a / b for ints, under the one coefficient-type rule: an ``int``
    exactly when it is integral, otherwise a ``Fraction``."""
    return a // b if a % b == 0 else Fraction(a, b)


def check_coefficient(c: object) -> Rat:
    """An exact rational, under the rule of :func:`_div`; anything else
    raises TypeError, as floats would silently break exactness."""
    if isinstance(c, (int, Fraction)):
        return _div(c.numerator, c.denominator)
    raise TypeError(f"coefficient must be an exact rational, got {type(c).__name__}: {c!r}")


_set = object.__setattr__  # how a frozen value fills its fields


class Frozen:
    """A value whose fields are set once, by its ``__init__`` through
    ``object.__setattr__``: assigning or deleting an attribute raises
    AttributeError."""

    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class BasisKey(Frozen):
    """The hash, sort key, order and pickle of every basis key.

    Basis keys (Letter, Word, Monomial, PartitionedTree) are frozen and
    hashed or sorted many times each, so each one computes its hash and
    its sort key on first use and keeps them in two slots outside
    equality; an unset slot reads as None, so no first use raises.  The
    hash is ``hash(self._fields())``, the hash of the tuple of compared
    fields, so hash values (and with them set and dict order) never
    depend on the caches; nothing is computed at construction, which the
    kernels do far more often.  Pickles carry the compared fields only: a
    hash of strings differs between processes.  A key class is a slotted
    class on this base that gives ``_fields()``, its compared fields in
    order, ``_make_key()`` and an ``__eq__`` that compares the fields of
    two keys of exactly one type, and restates ``__hash__ =
    BasisKey.__hash__``, which a class that defines ``__eq__`` would
    otherwise lose.
    """

    __slots__ = ("_hash", "_sort_key")

    def __hash__(self) -> int:
        h = getattr(self, "_hash", None)
        if h is None:
            h = hash(self._fields())
            _set(self, "_hash", h)
        return h

    def _key(self) -> tuple:
        key = getattr(self, "_sort_key", None)
        if key is None:
            key = self._make_key()
            _set(self, "_sort_key", key)
        return key

    def __lt__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key() < other._key()

    def __le__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key() <= other._key()

    def __reduce__(self):
        return type(self), self._fields()


class Letter(BasisKey):
    """A basis symbol, optionally carrying a natural shift index.

    Plain letters (``shift is None``) render as their name; shifted letters
    render as ``"k:name"``.  Letters are totally ordered by (name, shift),
    with plain letters sorting before any shifted letter of the same name.
    """

    __slots__ = ("name", "shift")

    def __init__(self, name: str, shift: int | None = None):
        _set(self, "name", name)
        _set(self, "shift", shift)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.name == other.name and self.shift == other.shift

    __hash__ = BasisKey.__hash__

    def _fields(self) -> tuple:
        return (self.name, self.shift)

    def _make_key(self) -> tuple[str, int]:
        return (self.name, -1 if self.shift is None else self.shift)

    def __str__(self) -> str:
        if self.shift is None:
            return self.name
        return f"{self.shift}:{self.name}"

    def __repr__(self) -> str:
        return f"Letter({str(self)!r})"


class Word(BasisKey):
    """An immutable word; supports len/iteration/slicing and concatenation."""

    __slots__ = ("letters",)

    def __init__(self, letters: tuple[Letter, ...] = ()):
        _set(self, "letters", letters)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.letters == other.letters

    __hash__ = BasisKey.__hash__

    def _fields(self) -> tuple:
        return (self.letters,)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return Word(self.letters[item])
        return self.letters[item]

    def __add__(self, other: "Word") -> "Word":
        """Concatenation."""
        return Word(self.letters + other.letters)

    def _make_key(self) -> tuple:
        # length-lexicographic, the canonical term order: the length, then
        # the letters' own cached keys, shared rather than copied
        return (len(self.letters), *[x._key() for x in self.letters])

    def __str__(self) -> str:
        return word_to_str(self)

    def __repr__(self) -> str:
        return f"Word({word_to_str(self)!r})"


EMPTY_WORD = Word()


def word(letters: Iterable[Letter | str]) -> Word:
    """Build a word, promoting bare strings to plain letters."""
    return Word(tuple(x if isinstance(x, Letter) else Letter(x) for x in letters))


class _Codes:
    """Small-int codes for the letters a word kernel meets, in order of
    first use: a context's, or one composition's.  Coding is a bijection,
    so int tuples, which hash in C, merge and order terms as the words would."""

    __slots__ = ("letters", "index")

    def __init__(self):
        self.letters: list[Letter] = []
        self.index: dict[Letter, int] = {}

    def code(self, x: Letter) -> int:
        i = self.index.get(x)
        if i is None:
            i = self.index[x] = len(self.letters)
            self.letters.append(x)
        return i

    def word(self, w: Word) -> tuple[int, ...]:
        return tuple(map(self.code, w.letters))

    def terms(self, t: Lin) -> dict[tuple[int, ...], Rat]:
        return {self.word(w): c for w, c in t.items()}

    def image(self, image: Mapping[Letter, Rat]) -> tuple[tuple[int, Rat], ...]:
        return tuple((self.code(y), c) for y, c in image.items())

    def decode(self, terms: Iterable[tuple[tuple[int, ...], Rat]]) -> list[tuple[Word, Rat]]:
        """The coded terms as (word, coefficient) pairs, each ``Word`` built once."""
        letter = self.letters.__getitem__
        return [(Word(tuple(map(letter, t))), c) for t, c in terms]


class _Sum:
    """A sum of (key, coefficient) pairs being formed, kept exact without
    Fraction arithmetic: one int numerator per key over one running common
    denominator ``den``, each numerator in a slot of one list.

    ``pos`` maps each live key to its slot, so a term costs one dict probe;
    the numerators ``num`` are read and written by slot, and hash no key.
    A term whose value times ``den`` is not an integer grows ``den`` to the
    least multiple that makes it one, rescaling the list; sums of ints
    never grow it.  A key that cancels to exact zero leaves ``pos`` and a
    dead zero slot behind, and takes a fresh slot if it comes back.  Each
    coefficient comes out by :func:`_div`, an ``int`` exactly when it is
    integral, so its type is a function of its value alone: no order or
    grouping of the same terms can change it.
    """

    __slots__ = ("pos", "num", "den")

    def __init__(self, pairs: Iterable[tuple[Hashable, Rat]] | None = None):
        self.pos: dict = {}  # live key -> slot
        self.num: list = []  # slot -> int numerator over den; 0 in a dead slot
        self.den = 1
        if pairs is not None:
            _add_into(self, pairs)

    def _grow(self, g: int) -> None:
        """Multiply the common denominator by ``g``."""
        self.den *= g
        self.num[:] = [n * g for n in self.num]  # in place: _add_into holds the list

    def result(self, divisor: int = 1) -> dict:
        """The sum, divided by the int ``divisor``, as a zero-free dict of
        coefficients, each converted once, in the order of ``pos``."""
        pos, num, den = self.pos, self.num, self.den * divisor
        if den != 1:
            return {k: _div(num[i], den) for k, i in pos.items()}
        if not num:
            return {}
        v = num[0]
        if num.count(v) == len(num):
            # every slot holds v (one key, or every term alike, and no
            # dead slot unless all are): a copy of pos keeps its stored
            # hashes and calls no __hash__
            return _fromkeys(pos, v)
        return {k: num[i] for k, i in pos.items()}


_fromkeys = dict.fromkeys  # bound once: most sums end in one key


def _add_into(acc: _Sum, pairs: Iterable[tuple[Hashable, Rat]], scale: Rat = 1) -> None:
    """acc += scale * (each key, coefficient pair), dropping exact zeros.

    The one accumulation step behind every linear combination; hot loops
    call it once per pair of input terms with the product of their
    coefficients as ``scale``.  A coefficient or scale that is not an
    exact rational raises TypeError.
    """
    pos, num = acc.pos, acc.num
    if type(scale) is int:
        mult = scale * acc.den  # an int coefficient c adds c * mult to a numerator
    else:
        if not isinstance(scale, Fraction):
            check_coefficient(scale)
        sd = scale.denominator
        if acc.den % sd:
            acc._grow(sd // gcd(acc.den, sd))
        mult = scale.numerator * (acc.den // sd)
    n = len(num)  # the next free slot
    for k, c in pairs:
        if type(c) is int:
            d = c * mult
        else:
            if not isinstance(c, Fraction):
                check_coefficient(c)
            cd = c.denominator
            if mult % cd:
                g = cd // gcd(mult, cd)
                acc._grow(g)
                mult *= g
            d = c.numerator * (mult // cd)
        i = pos.setdefault(k, n)  # the one probe
        if i == n:  # a new key
            if d:
                num.append(d)
                n += 1
            else:
                del pos[k]
        else:
            d += num[i]
            num[i] = d
            if not d:  # cancelled: the slot stays dead
                del pos[k]


def _prepend(image: Iterable[tuple], tails: Iterable[tuple], acc: _Sum, head: tuple = ()) -> None:
    """acc += head (sum of c_y * y over the (y, c_y) pairs of ``image``) before
    each (tuple, coefficient) pair of ``tails``, which is read once per y."""
    for y, cy in image:
        front = head + (y,)
        _add_into(acc, ((front + t, c) for t, c in tails), cy)


def _linear(op: Callable, pairs: Iterable[tuple[Hashable, Rat]]) -> dict:
    """The linear extension of a map given on basis keys: sum c * op(k)
    over the (key, coefficient) pairs, as a zero-free dict.  ``op``
    returns (key, coefficient) pairs."""
    acc = _Sum()
    for k, c in pairs:
        _add_into(acc, op(k), c)
    return acc.result()


def _bilinear(
    op: Callable, pairs_a: Iterable[tuple[Hashable, Rat]], pairs_b: Iterable, acc: _Sum | None = None
) -> dict | _Sum:
    """The bilinear extension of a product given on basis keys: sum
    ca * cb * op(ka, kb), as a zero-free dict; or added into ``acc``,
    which is returned unread, when one is given.  ``pairs_b`` is iterated
    once per pair of ``pairs_a``.  A pair whose ``op`` returns an empty
    sequence costs no coefficient product."""
    out = _Sum() if acc is None else acc
    for ka, ca in pairs_a:
        for kb, cb in pairs_b:
            terms = op(ka, kb)
            if terms:
                _add_into(out, terms, ca * cb)
    return out.result() if acc is None else out


class Lin:
    """A finitely supported rational linear combination of basis keys.

    ``terms`` is a plain zero-free dict from key to coefficient.  Keys are
    hashable and provide ``_key()``, the sort key that orders printed
    terms and :meth:`support`.  Subclasses fix the key type; arithmetic
    returns the subclass and is exact.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Hashable, Rat] | Iterable[tuple[Hashable, Rat]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        self.terms: dict = _Sum(items).result()

    @classmethod
    def _from_clean(cls, terms: dict):
        """Wrap an already zero-free dict without re-checking (kernel output)."""
        out = cls.__new__(cls)
        out.terms = terms
        return out

    @classmethod
    def _coerce(cls, x):
        """A combination passes through; a bare key becomes its basis vector."""
        return x if isinstance(x, cls) else cls.of(x)

    @classmethod
    def zero(cls):
        return cls._from_clean({})

    @classmethod
    def of(cls, key, coeff: Rat = 1):
        coeff = check_coefficient(coeff)
        return cls._from_clean({key: coeff} if coeff else {})

    def coefficient(self, key) -> Rat:
        return self.terms.get(key, 0)

    def items(self):
        return self.terms.items()

    def sorted_items(self) -> list:
        return sorted(self.terms.items(), key=lambda kv: kv[0]._key())

    def support(self) -> list:
        return [k for k, _ in self.sorted_items()]

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def _plus(self, other, sign: int):
        acc = _Sum(self.terms.items())
        _add_into(acc, other.terms.items(), sign)
        return self._from_clean(acc.result())

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c: Rat):
        acc = _Sum()
        _add_into(acc, self.terms.items(), c)
        return self._from_clean(acc.result())

    def __rmul__(self, c: Rat):
        return self.scale(c)

    def __str__(self) -> str:
        return tensor_to_str(self)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self}>"

    @classmethod
    def parse(cls, src: str):
        """Read a printed combination back: ``0``, or signed terms that
        the subclass's ``_read_term`` turns into (key, coefficient)."""
        src = src.strip()
        if src == "0":
            return cls()
        terms = [(sign, cls._read_term(term)) for sign, term in _split_signed(src)]
        return cls((key, sign * c) for sign, (key, c) in terms)


class Tensor(Lin):
    """A finitely supported rational linear combination of words."""

    __slots__ = ()

    @classmethod
    def unit(cls) -> "Tensor":
        """The empty word with coefficient 1 (unit of shuffle/concatenation)."""
        return cls.of(EMPTY_WORD)

    @classmethod
    def _read_term(cls, term: str) -> tuple[Word, Rat]:
        # a bare rational stands for that multiple of the empty word
        if re.fullmatch(r"\d+(/\d+)?", term):
            return EMPTY_WORD, parse_rational(term)
        coeff, body = _split_coeff(term)
        return parse_word(body), coeff

    def graded_part(self, n: int) -> "Tensor":
        return Tensor._from_clean({w: c for w, c in self.terms.items() if len(w) == n})


# ---------------------------------------------------------------------------
# shuffle / half-shuffle / concatenation / deconcatenation
# ---------------------------------------------------------------------------

def _interleavings(u: Sequence, v: Sequence) -> Iterator[tuple[tuple[int, ...], tuple]]:
    """Every (k,l)-interleaving of the sequences u and v: the slots that
    u's entries take among k+l, and the merged tuple.  There are
    C(k+l, k) of them, in the lexicographic order of the slots."""
    rest = list(v)
    for positions in itertools.combinations(range(len(u) + len(rest)), len(u)):
        out = rest.copy()
        put = out.insert
        # u's slots ascend, so each entry lands before the v entries after it
        for p, x in zip(positions, u):
            put(p, x)
        yield positions, tuple(out)


def _fixed_prefix(positions: Sequence[int]) -> int:
    """The largest m with ``positions[j] == j`` for every j < m: how many
    leading slots an interleaving leaves in place (0-based)."""
    m = 0
    while m < len(positions) and positions[m] == m:
        m += 1
    return m


def _shuffle_tuples(u: tuple, v: tuple) -> list[tuple[tuple, int]]:
    """All interleavings of the tuples u and v, merged with multiplicities
    in the order in which they first appear: the one pair kernel of the
    shuffle."""
    return list(Counter(out for _, out in _interleavings(u, v)).items())


def _shuffle_words(u: Word, v: Word) -> list[tuple[Word, int]]:
    """The pair kernel on words."""
    return [(Word(t), m) for t, m in _shuffle_tuples(u.letters, v.letters)]


_MEMO_BOUND = 1 << 14  # the most entries a memo that outlives its call keeps


class _Memo(dict):
    """``kernel`` memoized on argument tuples: a missing ``memo[key]`` is
    computed as ``kernel(*key)`` and stored, after emptying the memo if it
    holds ``bound`` entries; ``memo(*key)`` reads ``memo[key]``.  A hit is
    a plain dict read, and a kernel that raises stores nothing."""

    __slots__ = ("kernel", "bound")

    def __init__(self, kernel: Callable, bound: int | None = None):
        self.kernel = kernel
        self.bound = bound

    def __missing__(self, key: tuple):
        value = self.kernel(*key)
        if self.bound is not None and len(self) >= self.bound:
            self.clear()
        self[key] = value
        return value

    def __call__(self, *key):
        return self[key]


def shuffle(a: Word | Tensor, b: Word | Tensor) -> Tensor:
    """Shuffle product, extended bilinearly."""
    ta, tb = Tensor._coerce(a), Tensor._coerce(b)
    return Tensor._from_clean(_bilinear(_shuffle_words, ta.items(), tb.items()))


def _half_shuffle_words(u: Word, v: Word) -> Iterable[tuple[Word, int]]:
    if len(u) == 0:
        return ()  # e < w = 0
    head = u.letters[:1]
    return [(Word(head + t), m) for t, m in _shuffle_tuples(u.letters[1:], v.letters)]


def half_shuffle(a: Word | Tensor, b: Word | Tensor) -> Tensor:
    """Half-shuffle (Zinbiel) product ``a < b``.

    On words: ``xu < v = x(u sh v)``; the interleavings that keep the first
    letter of ``a`` in front.  ``e < w = 0`` and ``w < e = w`` for nonempty
    ``w``; ``e < e`` raises ValueError (it is left undefined).
    """
    ta, tb = Tensor._coerce(a), Tensor._coerce(b)
    if EMPTY_WORD in ta.terms and EMPTY_WORD in tb.terms:
        raise ValueError("half_shuffle(e, e) is undefined")
    return Tensor._from_clean(_bilinear(_half_shuffle_words, ta.items(), tb.items()))


def concat(a: Word | Tensor, b: Word | Tensor) -> Tensor:
    """Concatenation product, extended bilinearly."""
    ta, tb = Tensor._coerce(a), Tensor._coerce(b)
    return Tensor._from_clean(_bilinear(lambda u, v: ((u + v, 1),), ta.items(), tb.items()))


def deconcatenate(w: Word) -> list[tuple[Word, Word]]:
    """All cuts ``w = w1 w2`` (length+1 pairs), from (w, e) down to (e, w)."""
    return [(w[:i], w[i:]) for i in range(len(w), -1, -1)]


# ---------------------------------------------------------------------------
# Lyndon words
# ---------------------------------------------------------------------------

def lyndon_words(alphabet: Iterable[Letter | str], max_len: int) -> list[Word]:
    """All Lyndon words of length <= max_len over an ordered alphabet.

    Uses Duval's generation; a Lyndon word is strictly smaller than each of
    its proper suffixes.  Output is sorted length-lexicographically with the
    given alphabet order.
    """
    letters = [x if isinstance(x, Letter) else Letter(x) for x in alphabet]
    if not letters:
        raise ValueError("alphabet must be nonempty")
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    n = len(letters)
    found: list[tuple[int, ...]] = []
    w = [-1]
    while w:
        w[-1] += 1
        m = len(w)
        if m <= max_len:
            found.append(tuple(w))
        while len(w) < max_len:
            w.append(w[-m])
        while w and w[-1] == n - 1:
            w.pop()
    found.sort(key=lambda t: (len(t), t))
    return [Word(tuple(letters[i] for i in t)) for t in found]


# ---------------------------------------------------------------------------
# text grammar
# ---------------------------------------------------------------------------

_BILETTER_RE = re.compile(r"^(\d+):(\w+)$")
_NAME_RE = re.compile(r"^\w+$")


def parse_letter(token: str) -> Letter:
    m = _BILETTER_RE.match(token)
    if m:
        return Letter(m.group(2), int(m.group(1)))
    if _NAME_RE.match(token):
        return Letter(token)
    raise ValueError(f"bad letter token: {token!r}")


def parse_word(src: str) -> Word:
    """Parse the word grammar.

    ``"e"`` is the empty word; letters are separated by dots when they carry
    multi-character names or shift indices (``"x0.x1"``, ``"0:a.1:a"``).  An
    undotted run of single ASCII letters is read letterwise, so ``"abc"`` is
    the three-letter word a b c.  A trailing dot ends a dotted word, so
    ``"ab."`` is the one-letter word on ``ab`` and ``"e."`` the one on ``e``.
    """
    src = src.strip()
    if src == "e":
        return EMPTY_WORD
    if not src:
        raise ValueError("empty word source; use 'e' for the empty word")
    if "." in src or ":" in src:
        return Word(tuple(parse_letter(tok) for tok in src.removesuffix(".").split(".")))
    if all(ch.isalpha() for ch in src):
        return Word(tuple(Letter(ch) for ch in src))
    return Word((parse_letter(src),))


def word_to_str(w: Word) -> str:
    if len(w) == 0:
        return "e"
    name = w[0].name
    if len(w) == 1 and w[0].shift is None and name.isalpha() and (name == "e" or len(name) > 1):
        # undotted, the name would read back as the empty word or letterwise
        return name + "."
    if all(x.shift is None and len(x.name) == 1 and x.name.isalpha() for x in w):
        return "".join(x.name for x in w)
    return ".".join(str(x) for x in w)


def parse_rational(src: str) -> Rat:
    src = src.strip()
    if "/" in src:
        num, den = src.split("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator in {src!r}")
        return _div(int(num), int(den))
    return int(src)


def rational_to_str(c: Rat) -> str:
    c = Fraction(c)
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _split_signed(src: str) -> list[tuple[int, str]]:
    """Split a linear combination into (sign, term) pairs at top level.

    The one signed-term splitter of every expression grammar.  A sign
    right after ``*`` or ``/`` belongs to a number and signs inside
    brackets stay put; runs of signs combine, so ``a + -b`` is ``a - b``.
    """
    out: list[tuple[int, str]] = []
    buf: list[str] = []
    sign = 1
    depth = 0
    prev = ""
    for ch in src:
        if ch in "[{(":
            depth += 1
        elif ch in "]})":
            depth -= 1
        if ch in "+-" and depth == 0 and prev not in ("*", "/"):
            term = "".join(buf).strip()
            if term:
                out.append((sign, term))
                buf = []
                sign = 1 if ch == "+" else -1
            elif ch == "-":
                sign = -sign
            continue
        buf.append(ch)
        if not ch.isspace():
            prev = ch
    term = "".join(buf).strip()
    if not term:
        raise ValueError(f"dangling sign or empty term in {src!r}")
    out.append((sign, term))
    return out


_RATIONAL_RE = re.compile(r"\s*[+-]?\d[\d_]*\s*(?:/\s*[+-]?\d[\d_]*\s*)?")


def _split_coeff(term: str) -> tuple[Rat, str]:
    """Split ``"3/2*body"`` into (3/2, "body"); a term without a leading
    rational factor has coefficient 1."""
    head, star, body = term.partition("*")
    if star and _RATIONAL_RE.fullmatch(head):
        return parse_rational(head), body.strip()
    return 1, term


def parse_tensor(src: str) -> Tensor:
    """Parse the linear-combination grammar: ``"3/2*x0.x1 + x1 - 2*e"``.

    A bare rational stands for that multiple of the empty word.
    """
    return Tensor.parse(src)


def tensor_to_str(t: Lin) -> str:
    """The printed form of any linear combination: terms in key order,
    joined by their signs, coefficients of magnitude 1 left out unless the
    key itself reads as a rational (the word ``2`` prints as ``1*2``)."""
    if not t:
        return "0"
    chunks: list[str] = []
    for k, c in t.sorted_items():
        sign, mag = ("-", -c) if c < 0 else ("+", c)
        key = str(k)
        if mag == 1 and not _RATIONAL_RE.fullmatch(key):
            body = key
        else:
            body = f"{rational_to_str(mag)}*{key}"
        chunks.append(f"{sign} {body}")
    out = " ".join(chunks)
    return out[2:] if out.startswith("+ ") else "-" + out[2:]
