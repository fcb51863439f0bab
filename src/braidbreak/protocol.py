"""Honest simulation of the two double-shielded key exchange protocols.

Both protocols run over a matrix image of B_n. The parties' private factors
are random words in the commuting subgroups A (Artin indices 1..split-1) and
B (split+1..n-1), evaluated to matrices; every transmitted element is a
matrix. PROTOCOLS describes each protocol once: which subgroup each private
factor comes from, how each message and key is formed, and which subgroups
the attack multiplies by on the left and on the right. A run produces the
public Transcript plus, privately, the agreed key and the sampled words,
which tests use as an oracle.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
import random
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from .braid import (
    REP_KINDS,
    BraidWord,
    LabeledGenerator,
    Representation,
    commuting_subgroups,
    default_split,
    evaluate,
    representation,
    sample_word,
)
from .errors import ProtocolInternalError, TranscriptFormatError
from .field import PrimeField, DEFAULT_PRIME
from .matrix import SquareMatrix

SCHEMA_VERSION = 1

# JSON types an integer field may take: an integer or a decimal string
_INT_TYPES = {int, str}

_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """Fixed 64-bit mixing function (splitmix64 finalizer)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def derive_trial_seed(master: int, trial: int) -> int:
    """Per-trial seed: mix(master XOR trial)."""
    return splitmix64((master ^ trial) & _MASK64)


@dataclass(frozen=True)
class ProtocolSpec:
    """One protocol, described once.

    factors: (subgroup, names) runs of the private factors, in draw order.
    values: the messages x, y, w, z, u, v and the keys k_alice, k_bob, in
    order, each a product of h, the factors and earlier values; "d1^-1"
    stands for the inverse of d1.
    sides: the subgroups of the attack's left and right multipliers.
    """

    factors: tuple[tuple[str, str], ...]
    values: dict[str, str]
    sides: tuple[str, str]


PROTOCOLS = {
    1: ProtocolSpec(
        factors=(("A", "c1 c2 d1 d2"), ("B", "f1 f2 g1 g2 g3 g4"), ("A", "d3 d4")),
        values={
            "x": "d1 c1 h c2 d2", "y": "g1 f1 h f2 g2",
            "w": "g3 f1 x f2 g4", "z": "d3 c1 y c2 d4",
            "u": "d1^-1 w d2^-1", "v": "g1^-1 z g2^-1",
            "k_alice": "d3^-1 v d4^-1", "k_bob": "g3^-1 u g4^-1",  # c1 f1 h f2 c2
        },
        sides=("B", "B"),
    ),
    2: ProtocolSpec(
        factors=(("A", "c1 d1"), ("B", "f2 g2"), ("A", "c2 d2 d3"),
                 ("B", "f1 g1 g3"), ("A", "d4"), ("B", "g4")),
        values={
            "x": "d1 c1 h f2 g2", "y": "g1 f1 h c2 d2",
            "w": "g3 f1 x c2 d3", "z": "d4 c1 y f2 g4",
            "u": "d1^-1 w g2^-1", "v": "g1^-1 z d2^-1",
            "k_alice": "d4^-1 v g4^-1", "k_bob": "g3^-1 u d3^-1",  # c1 f1 h c2 f2
        },
        sides=("B", "A"),
    ),
}


@dataclass(frozen=True)
class ProtocolParams:
    """Everything a run needs; the representation's q and t are drawn from
    the seed."""

    protocol_id: int = 1
    n: int = 6
    rep_kind: str = "lk"
    p: int = DEFAULT_PRIME
    split: int | None = None
    word_len: tuple[int, int] = (5, 15)
    seed: int = 0

    def validate(self) -> None:
        # True == 1, but a transcript never says "protocol_id": true
        if isinstance(self.protocol_id, bool) or self.protocol_id not in PROTOCOLS:
            raise ValueError(
                f"protocol_id must be one of {tuple(PROTOCOLS)}, got {self.protocol_id}"
            )
        if self.rep_kind not in REP_KINDS:
            raise ValueError(f"rep_kind must be one of {REP_KINDS}")
        if self.n < 4:
            raise ValueError(f"protocols need n >= 4 (nonempty A and B), got {self.n}")
        split = self.split if self.split is not None else default_split(self.n)
        if not 2 <= split <= self.n - 2:
            raise ValueError(f"split must be in [2, {self.n - 2}], got {split}")
        lo, hi = self.word_len
        if not 0 <= lo <= hi:
            raise ValueError(f"bad word length range {self.word_len}")


@dataclass(frozen=True)
class PrivateState:
    """Private side of a run; never serialized into the public document."""

    rep: Representation
    words: dict[str, BraidWord]
    matrices: dict[str, SquareMatrix]


@dataclass(frozen=True)
class Transcript:
    """The complete public view of one run."""

    protocol_id: int
    n: int
    rep_kind: str
    field: PrimeField
    q: int
    t: int
    split: int
    dim: int
    h: SquareMatrix
    a_gens: tuple[LabeledGenerator, ...]
    b_gens: tuple[LabeledGenerator, ...]
    x: SquareMatrix
    y: SquareMatrix
    w: SquareMatrix
    z: SquareMatrix
    u: SquareMatrix
    v: SquareMatrix

    @property
    def p(self) -> int:
        return self.field.p


@dataclass(frozen=True)
class HonestRun:
    transcript: Transcript
    k_alice: SquareMatrix
    k_bob: SquareMatrix
    private_state: PrivateState


def run_protocol(params: ProtocolParams) -> HonestRun:
    """Honest run of a protocol in PROTOCOLS: draw h and the private factors
    in table order, then form each value from the table; raises if key
    agreement were to fail."""
    params.validate()
    spec = PROTOCOLS[params.protocol_id]
    field = PrimeField(params.p)
    n, word_len = params.n, params.word_len
    rng = random.Random(params.seed)
    # draw order is part of the determinism contract: q, t, h, the factors
    q = rng.randrange(2, field.p)
    t = rng.randrange(1, field.p)
    rep = representation(field, params.rep_kind, n, q, t)
    split = params.split if params.split is not None else default_split(n)
    pair = commuting_subgroups(rep, split)
    indices = {"A": range(1, split), "B": range(split + 1, n)}

    words = {"h": sample_word(rng, n, range(1, n), *word_len)}
    for group, names in spec.factors:
        for name in names.split():
            words[name] = sample_word(rng, n, indices[group], *word_len)
    mats = {name: evaluate(rep, word) for name, word in words.items()}

    values = dict(mats)
    for name, formula in spec.values.items():
        toks = formula.split()
        for tok in toks:
            if tok not in values:  # an inverse factor, evaluated on first use
                values[tok] = evaluate(rep, words[tok.removesuffix("^-1")].inverse())
        values[name] = functools.reduce(operator.matmul, [values[tok] for tok in toks])

    k_alice, k_bob = values["k_alice"], values["k_bob"]
    if k_alice != k_bob:
        raise ProtocolInternalError("simulator bug: k_alice != k_bob on an honest run")

    transcript = Transcript(
        protocol_id=params.protocol_id,
        n=n,
        rep_kind=params.rep_kind,
        field=field,
        q=q,
        t=t,
        split=split,
        dim=rep.dim,
        a_gens=pair.a_gens,
        b_gens=pair.b_gens,
        **{name: values[name] for name in "hxywzuv"},
    )
    mats["k"] = k_alice
    private = PrivateState(rep=rep, words=words, matrices=mats)
    return HonestRun(transcript, k_alice, k_bob, private)


# -- transcript document ----------------------------------------------------


def _gen_doc(g: LabeledGenerator) -> dict:
    return {"index": g.index, "matrix": g.mat.to_rows(), "inverse": g.inv.to_rows()}


def transcript_document(run: HonestRun, include_private: bool = False) -> dict:
    """Canonical key/value tree for a run's transcript (optionally with
    privates)."""
    t = run.transcript
    doc = {
        "schema_version": SCHEMA_VERSION,
        "protocol_id": t.protocol_id,
        "n": t.n,
        "rep_kind": t.rep_kind,
        "p": t.p,
        "q": str(t.q),
        "t": str(t.t),
        "split": t.split,
        "dim": t.dim,
        "h": t.h.to_rows(),
        "a_gens": [_gen_doc(g) for g in t.a_gens],
        "b_gens": [_gen_doc(g) for g in t.b_gens],
        **{name: getattr(t, name).to_rows() for name in "xywzuv"},
    }
    if include_private:
        doc["private"] = {
            "k": run.k_alice.to_rows(),
            "words": {
                name: word.to_text()
                for name, word in sorted(run.private_state.words.items())
            },
        }
    return doc


def document_text(doc) -> str:
    """json.dumps(doc, indent=1) plus a newline: the text of every artifact."""
    return _encode(doc, "\n") + "\n"


def _encode(obj, newline: str) -> str:
    """json.dumps(obj, indent=1) for an obj nested as deep as newline, a
    newline plus the spaces that indent obj's own line. Lists of strings
    that need no escaping, such as matrix rows, are joined in one call; a
    value other than a plain list or a dict with string keys is left to
    json.dumps."""
    kind, inner = type(obj), newline + " "
    if kind is list and obj:
        try:
            flat = "".join(obj)
        except TypeError:  # not a list of strings
            flat = None
        if flat is not None and len(_quote(flat)) == len(flat) + 2:
            return f'[{inner}"' + f'",{inner}"'.join(obj) + f'"{newline}]'
        items = f",{inner}".join(_encode(x, inner) for x in obj)
        return f"[{inner}{items}{newline}]"
    if kind is dict and obj and all(type(k) is str for k in obj):
        items = f",{inner}".join(_quote(k) + ": " + _encode(v, inner) for k, v in obj.items())
        return f"{{{inner}{items}{newline}}}"
    return json.dumps(obj, indent=1).replace("\n", newline)


def write_transcript(run: HonestRun, include_private: bool = False) -> str:
    """Serialize a run to the canonical transcript document text."""
    return document_text(transcript_document(run, include_private))


@dataclass(frozen=True)
class FixtureData:
    """Private fixture: the honest key plus the sampled words."""

    k: SquareMatrix
    words: dict[str, str]


def _require(doc: dict, key: str, where: str = ""):
    """doc[key]; where is the dotted path of doc, ending in a dot."""
    if not isinstance(doc, dict):
        raise TranscriptFormatError(f"transcript field {where[:-1]} must be an object")
    if key not in doc:
        raise TranscriptFormatError(f"missing transcript field: {where}{key}")
    return doc[key]


def _as_int(value, name: str) -> int:
    """value if it is a JSON integer or a decimal string, never a float or a
    bool; name is the dotted path of the field."""
    if type(value) in _INT_TYPES:
        try:
            return int(value)
        except ValueError:
            pass
    raise TranscriptFormatError(f"transcript field {name} is not an integer: {value!r}")


def _int(doc: dict, key: str, where: str = "") -> int:
    return _as_int(_require(doc, key, where), where + key)


def _mat(field: PrimeField, rows, dim: int, name: str) -> SquareMatrix:
    """A dim x dim matrix given as rows whose entries follow _as_int's rule.
    Rows of ints and decimal strings that fit int64 are read straight into
    int64; anything else is read entry by entry, as python ints, and a bad
    entry is named."""
    if not (
        isinstance(rows, list)
        and len(rows) == dim
        and all(isinstance(row, list) and len(row) == dim for row in rows)
    ):
        raise TranscriptFormatError(f"transcript field {name} is not a {dim} x {dim} matrix")
    entries = list(itertools.chain.from_iterable(rows))
    if set(map(type, entries)) <= _INT_TYPES:
        try:
            flat = np.fromiter(map(int, entries), np.int64, dim * dim)
            return SquareMatrix(field, np.remainder(flat, field.p).reshape(dim, dim))
        except (ValueError, OverflowError):
            pass  # a string that is not decimal, or an entry beyond int64
    ints = [
        [_as_int(x, f"{name}[{i}][{j}]") for j, x in enumerate(row)]
        for i, row in enumerate(rows)
    ]
    return SquareMatrix(field, field.asarray(ints))


def read_transcript(text: str) -> tuple[Transcript, FixtureData | None]:
    """Parse a transcript document; returns the fixture when present.

    Every schema error is a TranscriptFormatError naming the field.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as e:  # JSONDecodeError, or an integer too long
        raise TranscriptFormatError(f"not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise TranscriptFormatError("transcript document must be an object")
    if _int(doc, "schema_version") != SCHEMA_VERSION:
        raise TranscriptFormatError(
            f"unsupported schema_version {doc['schema_version']!r}"
        )
    protocol_id = _int(doc, "protocol_id")
    if protocol_id not in PROTOCOLS:
        raise TranscriptFormatError(f"bad protocol_id {protocol_id}")
    rep_kind = _require(doc, "rep_kind")
    if rep_kind not in REP_KINDS:
        raise TranscriptFormatError(f"bad rep_kind {rep_kind!r}")
    try:
        field = PrimeField(_int(doc, "p"))
    except ValueError as e:
        raise TranscriptFormatError(f"transcript field p: {e}") from e
    n = _int(doc, "n")
    split = _int(doc, "split")
    dim = _int(doc, "dim")
    rep_dim = n * (n - 1) // 2 if rep_kind == "lk" else n
    if dim != rep_dim:
        raise TranscriptFormatError(
            f"transcript field dim is {dim}, but {rep_kind} at n={n} has dim {rep_dim}"
        )
    if not 2 <= split <= n - 2:
        raise TranscriptFormatError(
            f"transcript field split is {split}, but n={n} needs it in [2, {n - 2}]"
        )

    def gens(key: str, indices: range) -> tuple[LabeledGenerator, ...]:
        entries = _require(doc, key)
        if not isinstance(entries, list):
            raise TranscriptFormatError(f"transcript field {key} must be a list")
        out = []
        for i, gd in enumerate(entries):
            where = f"{key}[{i}]."
            out.append(
                LabeledGenerator(
                    _int(gd, "index", where),
                    _mat(field, _require(gd, "matrix", where), dim, f"{where}matrix"),
                    _mat(field, _require(gd, "inverse", where), dim, f"{where}inverse"),
                )
            )
        got = [g.index for g in out]
        if len(got) != len(indices) or got != list(indices):
            raise TranscriptFormatError(
                f"transcript field {key} has indices {got}, but n={n} and "
                f"split={split} need {indices.start}..{indices.stop - 1} in order"
            )
        return tuple(out)

    transcript = Transcript(
        protocol_id=protocol_id,
        n=n,
        rep_kind=rep_kind,
        field=field,
        q=_int(doc, "q"),
        t=_int(doc, "t"),
        split=split,
        dim=dim,
        a_gens=gens("a_gens", range(1, split)),
        b_gens=gens("b_gens", range(split + 1, n)),
        **{name: _mat(field, _require(doc, name), dim, name) for name in "hxywzuv"},
    )
    fixture = None
    if "private" in doc:
        pd = doc["private"]
        k = _mat(field, _require(pd, "k", "private."), dim, "private.k")
        words = pd.get("words", {})
        if not isinstance(words, dict):
            raise TranscriptFormatError("transcript field private.words must be an object")
        fixture = FixtureData(k=k, words=dict(words))
    return transcript, fixture
