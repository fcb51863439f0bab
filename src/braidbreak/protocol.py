"""Honest simulation of the two double-shielded key exchange protocols.

Both protocols run over a matrix image of B_n. The parties' private elements
are random words in the commuting subgroups A (Artin indices 1..split-1) and
B (split+1..n-1), evaluated to matrices; every transmitted element is a
matrix. A run produces the public Transcript plus, privately, the agreed key
and the sampled words, which tests use as an oracle.

Protocol 1 message flow (c's, d's in A; f's, g's in B):

    Alice: x = d1 c1 h c2 d2
    Bob:   y = g1 f1 h f2 g2,  w = g3 f1 x f2 g4
    Alice: z = d3 c1 y c2 d4,  u = d1^-1 w d2^-1
    Bob:   v = g1^-1 z g2^-1
    keys:  K_A = d3^-1 v d4^-1 = K_B = g3^-1 u g4^-1 = c1 f1 h f2 c2

Protocol 2 (Alice holds c1, d1 in A and f2, g2 in B; Bob holds c2, d2, d3
in A and f1, g1, g3 in B; then Alice d4 in A, g4 in B):

    Alice: x = d1 c1 h f2 g2
    Bob:   y = g1 f1 h c2 d2,  w = g3 f1 x c2 d3
    Alice: z = d4 c1 y f2 g4,  u = d1^-1 w g2^-1
    Bob:   v = g1^-1 z d2^-1
    keys:  K_A = d4^-1 v g4^-1 = K_B = g3^-1 u d3^-1 = c1 f1 h c2 f2
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from .braid import (
    BraidWord,
    CommutingPair,
    LabeledGenerator,
    Representation,
    burau_representation,
    commuting_subgroups,
    default_split,
    evaluate,
    lk_representation,
    sample_word,
)
from .errors import ProtocolInternalError, TranscriptFormatError
from .field import PrimeField, DEFAULT_PRIME
from .matrix import SquareMatrix

SCHEMA_VERSION = 1

REP_KINDS = ("lk", "burau")

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
class ProtocolParams:
    """Everything a run needs; q and t default to seed-derived draws."""

    protocol_id: int = 1
    n: int = 6
    rep_kind: str = "lk"
    p: int = DEFAULT_PRIME
    q: int | None = None
    t: int | None = None
    split: int | None = None
    word_len: tuple[int, int] = (5, 15)
    seed: int = 0

    def validate(self) -> None:
        if self.protocol_id not in (1, 2):
            raise ValueError(f"protocol_id must be 1 or 2, got {self.protocol_id}")
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


def _build_representation(
    field: PrimeField, params: ProtocolParams, rng: random.Random
) -> tuple[Representation, int, int]:
    # draw order is part of the determinism contract: q first, then t
    q = params.q if params.q is not None else rng.randrange(2, field.p)
    t = params.t if params.t is not None else rng.randrange(1, field.p)
    if params.rep_kind == "lk":
        rep = lk_representation(field, params.n, q, t)
    else:
        rep = burau_representation(field, params.n, t)
    return rep, q % field.p, t % field.p


def _sample_words(
    rng: random.Random,
    rep: Representation,
    names_indices: list[tuple[str, range]],
    word_len: tuple[int, int],
) -> tuple[dict[str, BraidWord], dict[str, SquareMatrix]]:
    words: dict[str, BraidWord] = {}
    mats: dict[str, SquareMatrix] = {}
    for name, indices in names_indices:
        word = sample_word(rng, rep.n, indices, word_len[0], word_len[1])
        words[name] = word
        mats[name] = evaluate(rep, word)
    return words, mats


def _run(params: ProtocolParams) -> HonestRun:
    params.validate()
    field = PrimeField(params.p)
    rng = random.Random(params.seed)
    rep, q, t = _build_representation(field, params, rng)
    split = params.split if params.split is not None else default_split(params.n)
    pair: CommutingPair = commuting_subgroups(rep, split)
    a_idx = range(1, split)
    b_idx = range(split + 1, params.n)
    all_idx = range(1, params.n)

    h_word = sample_word(rng, params.n, all_idx, *params.word_len)
    h = evaluate(rep, h_word)

    if params.protocol_id == 1:
        roles = [(nm, a_idx) for nm in ("c1", "c2", "d1", "d2")]
        roles += [(nm, b_idx) for nm in ("f1", "f2", "g1", "g2", "g3", "g4")]
        roles += [(nm, a_idx) for nm in ("d3", "d4")]
    else:
        roles = [("c1", a_idx), ("d1", a_idx), ("f2", b_idx), ("g2", b_idx)]
        roles += [(nm, a_idx) for nm in ("c2", "d2", "d3")]
        roles += [(nm, b_idx) for nm in ("f1", "g1", "g3")]
        roles += [("d4", a_idx), ("g4", b_idx)]
    words, mm = _sample_words(rng, rep, roles, params.word_len)
    words["h"] = h_word

    inv = {name: mat.inverse() for name, mat in mm.items()}

    if params.protocol_id == 1:
        x = mm["d1"] @ mm["c1"] @ h @ mm["c2"] @ mm["d2"]
        y = mm["g1"] @ mm["f1"] @ h @ mm["f2"] @ mm["g2"]
        w = mm["g3"] @ mm["f1"] @ x @ mm["f2"] @ mm["g4"]
        z = mm["d3"] @ mm["c1"] @ y @ mm["c2"] @ mm["d4"]
        u = inv["d1"] @ w @ inv["d2"]
        v = inv["g1"] @ z @ inv["g2"]
        k_alice = inv["d3"] @ v @ inv["d4"]
        k_bob = inv["g3"] @ u @ inv["g4"]
    else:
        x = mm["d1"] @ mm["c1"] @ h @ mm["f2"] @ mm["g2"]
        y = mm["g1"] @ mm["f1"] @ h @ mm["c2"] @ mm["d2"]
        w = mm["g3"] @ mm["f1"] @ x @ mm["c2"] @ mm["d3"]
        z = mm["d4"] @ mm["c1"] @ y @ mm["f2"] @ mm["g4"]
        u = inv["d1"] @ w @ inv["g2"]
        v = inv["g1"] @ z @ inv["d2"]
        k_alice = inv["d4"] @ v @ inv["g4"]
        k_bob = inv["g3"] @ u @ inv["d3"]

    if k_alice != k_bob:
        raise ProtocolInternalError(
            "simulator bug: k_alice != k_bob on an honest run"
        )

    transcript = Transcript(
        protocol_id=params.protocol_id,
        n=params.n,
        rep_kind=params.rep_kind,
        field=field,
        q=q,
        t=t,
        split=split,
        dim=rep.dim,
        h=h,
        a_gens=pair.a_gens,
        b_gens=pair.b_gens,
        x=x, y=y, w=w, z=z, u=u, v=v,
    )
    mats = dict(mm)
    mats["h"] = h
    mats["k"] = k_alice
    private = PrivateState(rep=rep, words=words, matrices=mats)
    return HonestRun(transcript, k_alice, k_bob, private)


def run_protocol(params: ProtocolParams) -> HonestRun:
    """Honest run of either protocol; raises if key agreement were to fail."""
    return _run(params)


# -- transcript document ----------------------------------------------------


def _gen_doc(g: LabeledGenerator) -> dict:
    return {"index": g.index, "matrix": g.mat.to_rows(), "inverse": g.inv.to_rows()}


def transcript_document(run_or_transcript, include_private: bool = False) -> dict:
    """Canonical key/value tree for a transcript (optionally with privates)."""
    if isinstance(run_or_transcript, HonestRun):
        t = run_or_transcript.transcript
        run = run_or_transcript
    else:
        t = run_or_transcript
        run = None
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
        "x": t.x.to_rows(),
        "y": t.y.to_rows(),
        "w": t.w.to_rows(),
        "z": t.z.to_rows(),
        "u": t.u.to_rows(),
        "v": t.v.to_rows(),
    }
    if include_private:
        if run is None:
            raise ValueError("private section requires an HonestRun")
        doc["private"] = {
            "k": run.k_alice.to_rows(),
            "words": {
                name: word.to_text()
                for name, word in sorted(run.private_state.words.items())
            },
        }
    return doc


def write_transcript(run: HonestRun, include_private: bool = False) -> str:
    """Serialize a run to the canonical transcript document text."""
    doc = transcript_document(run, include_private)
    return json.dumps(doc, indent=1) + "\n"


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


def _int(doc: dict, key: str, where: str = "") -> int:
    """An integer field, given as a JSON integer or a decimal string."""
    value = _require(doc, key, where)
    try:
        if isinstance(value, (int, str)) and not isinstance(value, bool):
            return int(value)
    except ValueError:
        pass
    raise TranscriptFormatError(
        f"transcript field {where}{key} is not an integer: {value!r}"
    )


def _mat(field: PrimeField, rows, dim: int, name: str) -> SquareMatrix:
    try:
        m = SquareMatrix.from_rows(field, [[int(x) for x in row] for row in rows])
    except (TypeError, ValueError) as e:
        raise TranscriptFormatError(f"bad matrix {name}: {e}") from e
    if m.dim != dim:
        raise TranscriptFormatError(f"matrix {name} has dim {m.dim}, expected {dim}")
    return m


def read_transcript(text: str) -> tuple[Transcript, FixtureData | None]:
    """Parse a transcript document; returns the fixture when present."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise TranscriptFormatError(f"not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise TranscriptFormatError("transcript document must be an object")
    if _require(doc, "schema_version") != SCHEMA_VERSION:
        raise TranscriptFormatError(
            f"unsupported schema_version {doc.get('schema_version')}"
        )
    protocol_id = _require(doc, "protocol_id")
    if protocol_id not in (1, 2):
        raise TranscriptFormatError(f"bad protocol_id {protocol_id}")
    rep_kind = _require(doc, "rep_kind")
    if rep_kind not in REP_KINDS:
        raise TranscriptFormatError(f"bad rep_kind {rep_kind!r}")
    try:
        field = PrimeField(_int(doc, "p"))
    except ValueError as e:
        raise TranscriptFormatError(str(e)) from e
    n = _int(doc, "n")
    split = _int(doc, "split")
    dim = _int(doc, "dim")
    rep_dim = n * (n - 1) // 2 if rep_kind == "lk" else n
    if dim != rep_dim:
        raise TranscriptFormatError(
            f"transcript field dim is {dim}, but {rep_kind} at n={n} has dim {rep_dim}"
        )

    def gens(key: str) -> tuple[LabeledGenerator, ...]:
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
        h=_mat(field, _require(doc, "h"), dim, "h"),
        a_gens=gens("a_gens"),
        b_gens=gens("b_gens"),
        x=_mat(field, _require(doc, "x"), dim, "x"),
        y=_mat(field, _require(doc, "y"), dim, "y"),
        w=_mat(field, _require(doc, "w"), dim, "w"),
        z=_mat(field, _require(doc, "z"), dim, "z"),
        u=_mat(field, _require(doc, "u"), dim, "u"),
        v=_mat(field, _require(doc, "v"), dim, "v"),
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
