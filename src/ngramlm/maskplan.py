"""Mask plans: one training example per plan.

A plan fixes the context sequence (with masked segments collapsed,
replaced or blanked according to the objective), appended query symbols
[M1..Mn] sharing the owning slot's position id, the coarse/fine target
sets, optional replaced-token-detection labels, and (reconstructed on
demand) the additive {0, -inf} attention mask that hides n-gram length
from the context.
"""

from __future__ import annotations

import enum
import json
import logging
import struct
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .corpus import FineVocab
from .errors import PlanError, PlanFormatError, UsageError, VersionError
from .lexicon import JointVocab
from .segmenter import BoundarySeq, extract_boundaries

log = logging.getLogger(__name__)

PLAN_VERSION = 1
FILE_MAGIC = b"NGPL"
NEG_INF = float("-inf")


class Objective(enum.IntEnum):
    CONTIGUOUS = 0
    EXPLICIT = 1
    COMPREHENSIVE = 2
    RELATION = 3


_MASK64 = (1 << 64) - 1


@dataclass
class RngState:
    """Deterministic draw source: the key (seed, counter) selects the
    counter-based stream ``np.random.Philox(key=seed mod 2**64,
    counter=counter << 64)`` (Salmon et al., SC'11).  The counter lies in
    0 .. 2**64 - 1 and fills the second of Philox's four counter words, so
    a key's stream reaches the next key's only after 2**66 outputs.

    Each draw re-keys one Philox generator that this object owns.
    """

    seed: int
    counter: int = 0
    _generator: np.random.Generator = field(
        default_factory=lambda: np.random.Generator(np.random.Philox(0)),
        init=False, repr=False, compare=False)

    def next_generator(self) -> np.random.Generator:
        """The current key's generator; the counter advances by one.

        The returned generator is valid until the next call, which re-keys
        it for the next counter.
        """
        c = self.counter
        if not 0 <= c <= _MASK64:
            raise UsageError(f"draw counter {c} outside 0..2**64 - 1")
        g = self._generator
        g.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": (0, c, 0, 0), "key": (self.seed & _MASK64, 0)},
            "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        self.counter = c + 1
        return g


@dataclass
class SegmentedExample:
    """A word sequence with its n-gram boundaries and subword alignment."""

    words: tuple
    boundaries: BoundarySeq
    subword_ids: tuple
    word_spans: tuple  # per word: (lo, hi) into subword_ids

    @property
    def num_segments(self) -> int:
        return self.boundaries.num_segments


def segment_example(words, lex, vocab: FineVocab) -> SegmentedExample:
    from .corpus import subword_tokenize

    b = extract_boundaries(words, lex)
    ids, spans = subword_tokenize(words, vocab)
    return SegmentedExample(tuple(words), b, tuple(ids), tuple(spans))


@dataclass
class MaskPlan:
    objective: Objective
    context_ids: tuple
    context_positions: tuple
    query_ids: tuple
    query_positions: tuple
    targets_coarse: tuple  # (context slot index, joint id)
    targets_fine: tuple  # (index into context+queries, fine id)
    rtd_labels: tuple | None = None
    # provenance only; not persisted in the binary format
    masked_set: tuple | None = field(default=None, compare=False)

    @property
    def T(self) -> int:
        return len(self.context_ids)

    @property
    def Q(self) -> int:
        return len(self.query_ids)

    def all_ids(self) -> tuple:
        return self.context_ids + self.query_ids

    def all_positions(self) -> tuple:
        return self.context_positions + self.query_positions


def sample_mask(b: BoundarySeq, rate: float, rng: RngState, candidates=None) -> tuple:
    """Sample segment indexes to mask: max(1, round(rate * num_segments)),
    uniform without replacement, never two adjacent segments.

    ``candidates`` restricts the eligible segment indexes (1-based); used
    e.g. to mask only multi-word segments during evaluation.
    """
    if not 0 < rate < 1:
        raise UsageError(f"mask rate must be in (0, 1), got {rate}")
    n = b.num_segments
    if n == 0:
        raise UsageError("empty boundary list")
    if candidates is None:
        candidates = range(1, n + 1)
    else:
        candidates = [j for j in candidates if 1 <= j <= n]
        if not candidates:
            raise UsageError("no maskable segments among candidates")
    quota = max(1, round(rate * n))
    perm = rng.next_generator().permutation(len(candidates)).tolist()
    chosen: set = set()
    for idx in perm:
        j = candidates[idx]
        if j - 1 in chosen or j + 1 in chosen:
            continue
        chosen.add(j)
        if len(chosen) >= quota:
            break
    return tuple(sorted(chosen))


def _layout(ex: SegmentedExample, masked, vocab: FineVocab, jv: JointVocab | None = None):
    """Every plan's context in one pass over the segments.

    A masked segment becomes one [M] slot with a coarse target when ``jv``
    is given and it has a joint identity (an n-gram's, or a one-subword
    word's) within the query budget, else one [M] and one fine target per
    subword.  Returns (context ids, coarse targets, fine targets, slots);
    a slot is (context index, first subword, subword count).
    """
    n = ex.num_segments
    if not masked:
        raise UsageError("masked set is empty")
    for j in masked:
        if not 1 <= j <= n:
            raise UsageError(f"masked index {j} outside 1..{n}")
    masked = set(masked)
    b = ex.boundaries.boundaries
    sub, spans, mask_id = ex.subword_ids, ex.word_spans, vocab.mask_id
    ids: list = []
    coarse: list = []
    fine: list = []
    slots: list = []
    for j in range(1, n + 1):
        wlo, whi = b[j - 1] - 1, b[j] - 1
        lo, hi = spans[wlo][0], spans[whi - 1][1]
        if j not in masked:
            ids.extend(sub[lo:hi])
            continue
        jid = None
        if jv is not None:
            words = ex.words[wlo:whi]
            if len(words) > 1:
                jid = jv.id_of_ngram(words)
                if jid is None:
                    raise PlanError(f"masked n-gram {words} absent from lexicon")
            elif hi - lo == 1:
                jid = sub[lo]
            if jid is not None and hi - lo > vocab.max_query:
                log.warning("segment %s has %d subwords > max query %d; contiguous fallback",
                            words, hi - lo, vocab.max_query)
                jid = None
        if jid is None:
            fine.extend(zip(range(len(ids), len(ids) + hi - lo), sub[lo:hi]))
            ids.extend([mask_id] * (hi - lo))
        else:
            coarse.append((len(ids), jid))
            slots.append((len(ids), lo, hi - lo))
            ids.append(mask_id)
    return ids, coarse, fine, slots


def plan_contiguous(ex: SegmentedExample, masked: tuple, vocab: FineVocab) -> MaskPlan:
    """Each masked subword replaced by [M]; one fine target per subword."""
    ids, _, fine, _ = _layout(ex, masked, vocab)
    T = len(ids)
    return MaskPlan(
        Objective.CONTIGUOUS,
        tuple(ids),
        tuple(range(1, T + 1)),
        (),
        (),
        (),
        tuple(fine),
        masked_set=tuple(masked),
    )


def plan_explicit(ex: SegmentedExample, masked: tuple, jv: JointVocab) -> MaskPlan:
    """One [M] slot per masked segment; targets are joint identities."""
    ids, coarse, fine, _ = _layout(ex, masked, jv.fine, jv)
    T = len(ids)
    return MaskPlan(
        Objective.EXPLICIT,
        tuple(ids),
        tuple(range(1, T + 1)),
        (),
        (),
        tuple(coarse),
        tuple(fine),
        masked_set=tuple(masked),
    )


def plan_comprehensive(ex: SegmentedExample, masked: tuple, jv: JointVocab) -> MaskPlan:
    """Explicit layout plus [M1..Mn] queries sharing each slot's position."""
    vocab = jv.fine
    ids, coarse, fine, slots = _layout(ex, masked, vocab, jv)
    T = len(ids)
    query_ids: list = []
    query_positions: list = []
    for slot, lo, n_j in slots:
        for i in range(n_j):
            fine.append((T + len(query_ids), ex.subword_ids[lo + i]))
            query_ids.append(vocab.query_id(i + 1))
            query_positions.append(slot + 1)  # same position id as the slot
    return MaskPlan(
        Objective.COMPREHENSIVE,
        tuple(ids),
        tuple(range(1, T + 1)),
        tuple(query_ids),
        tuple(query_positions),
        tuple(coarse),
        tuple(fine),
        masked_set=tuple(masked),
    )


def relation_from_comprehensive(plan: MaskPlan, sampled) -> MaskPlan:
    """Fill each [M] slot with a sampled joint identity and derive RTD labels.

    ``sampled`` aligns with plan.targets_coarse.  Labels are per context
    position: 1 where the filled sequence matches the original-identity
    sequence, 0 at slots holding a wrong identity and at fallback [M]s.
    """
    if len(sampled) != len(plan.targets_coarse):
        raise UsageError(f"expected {len(plan.targets_coarse)} sampled ids, got {len(sampled)}")
    ids = list(plan.context_ids)
    labels = [1] * plan.T
    slot_of = {}
    for (slot, y), y_prime in zip(plan.targets_coarse, sampled):
        y_prime = int(y_prime)
        ids[slot] = y_prime
        labels[slot] = 1 if y_prime == y else 0
        slot_of[slot] = True
    for idx, _ in plan.targets_fine:
        if idx < plan.T and idx not in slot_of:
            labels[idx] = 0  # fallback [M] position, never the original
    return MaskPlan(
        Objective.RELATION,
        tuple(ids),
        plan.context_positions,
        plan.query_ids,
        plan.query_positions,
        plan.targets_coarse,
        plan.targets_fine,
        rtd_labels=tuple(labels),
        masked_set=plan.masked_set,
    )


def plan_relation(ex: SegmentedExample, masked: tuple, jv: JointVocab, sampled) -> MaskPlan:
    base = plan_comprehensive(ex, masked, jv)
    for y_prime in sampled:
        if not 0 <= int(y_prime) < len(jv):
            raise UsageError(f"sampled id {y_prime} outside joint range 0..{len(jv) - 1}")
    return relation_from_comprehensive(base, sampled)


def build_attention_mask(plan: MaskPlan, dtype=np.float32) -> np.ndarray:
    """Additive mask over {0, -inf}: context never sees queries; queries
    see the context and themselves only."""
    T, Q = plan.T, plan.Q
    n = T + Q
    m = np.zeros((n, n), dtype=dtype)
    if Q:
        m[:, T:] = NEG_INF
        idx = np.arange(T, n)
        m[idx, idx] = 0.0
    return m


# ---------------------------------------------------------------------------
# binary record format (little-endian, length-prefixed)

_OBJECTIVES = tuple(Objective)  # indexed by the objective byte


def serialize_plan(plan: MaskPlan) -> bytes:
    """u32 payload length, then the payload: u16 version, u8 objective,
    u32 T, u32 Q, T context ids, T + Q positions, Q query ids, u32 count
    and (index, id) pairs for the coarse then the fine targets, u8 RTD
    flag and, when set, T label bits packed low bit first."""
    T, Q = plan.T, plan.Q
    nc, nf = len(plan.targets_coarse), len(plan.targets_fine)
    if plan.rtd_labels is None:
        has_rtd, bits = 0, bytearray()
    else:
        has_rtd, bits = 1, bytearray((T + 7) // 8)
        for i, lab in enumerate(plan.rtd_labels):
            if lab:
                bits[i // 8] |= 1 << (i % 8)
    k = 2 * T + 2 * Q + 2 + 2 * nc + 2 * nf  # u32 fields after the header
    # one count for all the u32 fields: a count per field would give too many
    # distinct formats for struct's format cache, and each miss compiles one
    return struct.pack(
        f"<IHBII{k}IB{len(bits)}s",
        11 + 4 * k + 1 + len(bits), PLAN_VERSION, int(plan.objective), T, Q,
        *plan.context_ids, *plan.context_positions, *plan.query_positions, *plan.query_ids,
        nc, *chain.from_iterable(plan.targets_coarse),
        nf, *chain.from_iterable(plan.targets_fine),
        has_rtd, bits,
    )


def _truncated(shift: int, end: int, *fields) -> PlanFormatError:
    """The error for a record cut at ``end``, placed at the first of the
    ``(start, size, item)`` fields that runs past it: at the field's start,
    or for a list of ``item``-byte pairs at its first incomplete pair."""
    offset = next(start + (end - start) // item * item
                  for start, size, item in fields if start + size > end)
    return PlanFormatError("truncated plan record", shift + offset)


def _decode(buf, pos: int, end: int, shift: int) -> MaskPlan:
    """The plan whose payload spans ``buf[pos:end]``; an error's offset is
    ``shift`` plus its position in ``buf``."""
    if pos + 11 > end:
        raise _truncated(shift, end, (pos, 11, 11))
    version, objective, T, Q = struct.unpack_from("<HBII", buf, pos)
    if version != PLAN_VERSION:
        raise VersionError(f"plan record version {version}, expected {PLAN_VERSION}")
    if objective >= len(_OBJECTIVES):
        raise PlanFormatError(f"unknown objective {objective}", shift + pos + 2)
    pos += 11
    # context ids, positions, query ids and the coarse count in one read
    n = 2 * T + 2 * Q
    if pos + 4 * n + 4 > end:
        raise _truncated(shift, end, (pos, 4 * T, 4 * T), (pos + 4 * T, 4 * (T + Q), 4 * (T + Q)),
                         (pos + 4 * (2 * T + Q), 4 * Q, 4 * Q), (pos + 4 * n, 4, 4))
    head = struct.unpack_from(f"<{n + 1}I", buf, pos)
    pos += 4 * n + 4
    # coarse pairs and the fine count, then fine pairs and the RTD flag
    nc = head[n]
    if pos + 8 * nc + 4 > end:
        raise _truncated(shift, end, (pos, 8 * nc, 8), (pos + 8 * nc, 4, 4))
    coarse = struct.unpack_from(f"<{2 * nc + 1}I", buf, pos)
    pos += 8 * nc + 4
    nf = coarse[-1]
    if pos + 8 * nf + 1 > end:
        raise _truncated(shift, end, (pos, 8 * nf, 8), (pos + 8 * nf, 1, 1))
    fine = struct.unpack_from(f"<{2 * nf}IB", buf, pos)
    pos += 8 * nf + 1
    rtd = None
    if fine[-1]:
        k = (T + 7) // 8
        if pos + k > end:
            raise _truncated(shift, end, (pos, k, k))
        raw = buf[pos : pos + k]
        pos += k
        rtd = tuple((raw[i // 8] >> (i % 8)) & 1 for i in range(T))
    if pos != end:
        raise PlanFormatError("trailing bytes after plan record", shift + pos)
    return MaskPlan(
        _OBJECTIVES[objective],
        head[:T],
        head[T : 2 * T],
        head[2 * T + Q : n],
        head[2 * T : 2 * T + Q],
        tuple(zip(coarse[0:-1:2], coarse[1:-1:2])),
        tuple(zip(fine[0:-1:2], fine[1:-1:2])),
        rtd_labels=rtd,
    )


def parse_plan(data: bytes, base_offset: int = 0) -> MaskPlan:
    """One length-prefixed record; error offsets count from ``base_offset``."""
    if len(data) < 4:
        raise PlanFormatError("truncated plan record", base_offset)
    (payload_len,) = struct.unpack_from("<I", data)
    if payload_len != len(data) - 4:
        raise PlanFormatError(
            f"record length {payload_len} does not match payload {len(data) - 4}", base_offset
        )
    return _decode(data, 4, len(data), base_offset)


def write_plan_file(path, plans, provenance: dict | None = None):
    """Plan container: magic, file version, provenance JSON, then records."""
    header = json.dumps(provenance or {}, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(FILE_MAGIC)
        f.write(struct.pack("<HI", PLAN_VERSION, len(header)))
        f.write(header)
        for plan in plans:
            f.write(serialize_plan(plan))


def read_plan_file(path):
    """Returns (provenance dict, list of plans)."""
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != FILE_MAGIC:
        raise PlanFormatError(f"{path}: bad magic, not a plan file", 0)
    if len(data) < 10:
        raise PlanFormatError(f"{path}: truncated file header", len(data))
    version, header_len = struct.unpack_from("<HI", data, 4)
    if version != PLAN_VERSION:
        raise VersionError(f"plan file version {version}, expected {PLAN_VERSION}")
    pos = 10 + header_len
    if pos > len(data):
        raise PlanFormatError(f"{path}: truncated provenance header", 10)
    try:
        provenance = json.loads(data[10:pos].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise PlanFormatError(f"{path}: provenance header is not UTF-8 JSON: {e}", 10) from e
    if not isinstance(provenance, dict):
        raise PlanFormatError(f"{path}: provenance header is not a JSON object", 10)
    plans = []
    while pos < len(data):
        if pos + 4 > len(data):
            raise PlanFormatError("truncated record length prefix", pos)
        (payload_len,) = struct.unpack_from("<I", data, pos)
        end = pos + 4 + payload_len
        if end > len(data):
            raise PlanFormatError("truncated plan record", pos)
        plans.append(_decode(data, pos + 4, end, 0))
        pos = end
    return provenance, plans


def plan_to_json(plan: MaskPlan) -> str:
    """Human-readable one-line JSON dump of a plan."""
    return json.dumps(
        {
            "objective": plan.objective.name.lower(),
            "context_ids": list(plan.context_ids),
            "context_positions": list(plan.context_positions),
            "query_ids": list(plan.query_ids),
            "query_positions": list(plan.query_positions),
            "targets_coarse": [list(t) for t in plan.targets_coarse],
            "targets_fine": [list(t) for t in plan.targets_fine],
            "rtd_labels": None if plan.rtd_labels is None else list(plan.rtd_labels),
        },
        sort_keys=True,
    )
