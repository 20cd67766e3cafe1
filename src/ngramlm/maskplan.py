"""Mask plans: one training example per plan.

A plan fixes the context sequence (with masked segments collapsed,
replaced or blanked according to the objective), appended query symbols
[M1..Mn] sharing the owning slot's position id, the coarse/fine target
sets, and (reconstructed on demand) the additive {0, -inf} attention mask
that hides n-gram length from the context.  Replaced-token-detection
labels are no part of a plan: training derives them at each step, with
the filled plans (``relation_from_comprehensive``).

Plans have one form, the ``PlanStore``: the u32 fields of the binary
record format in one array, with an offset per plan.  One layout pass
(``PlanWriter``) writes those fields for ``make_plans`` and for
``build_plan``, which returns a one-plan ``PlanView``.  Plan files decode
into a store and are written from one; training, evaluation and the
command line's checks take a store and read its arrays, and the functions
of one plan take one of its elements, a ``PlanView``.
"""

from __future__ import annotations

import enum
import hashlib
import json
import struct
from array import array
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from . import corpus
from .corpus import FineVocab
from .errors import PlanError, PlanFormatError, UsageError, VersionError
from .lexicon import JointVocab
from .segmenter import BoundarySeq, extract_boundaries

PLAN_VERSION = 1
FILE_MAGIC = b"NGPL"
NEG_INF = float("-inf")


class Objective(enum.IntEnum):
    CONTIGUOUS = 0
    EXPLICIT = 1
    COMPREHENSIVE = 2
    RELATION = 3

    @property
    def layout(self) -> "Objective":
        """The layout of this objective's plans: its own, but comprehensive
        for relation, whose slots training fills with the generator's samples."""
        return Objective.COMPREHENSIVE if self == Objective.RELATION else self


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
    """A word sequence's n-gram boundaries (which hold its words) and its
    subword alignment."""

    boundaries: BoundarySeq
    subword_ids: tuple
    word_spans: tuple  # per word: (lo, hi) into subword_ids


def segment_example(words, lex, vocab: FineVocab) -> SegmentedExample:
    b = extract_boundaries(words, lex)
    ids, spans = corpus.subword_tokenize(b.words, vocab)
    return SegmentedExample(b, tuple(ids), tuple(spans))


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


class PlanWriter:
    """Plans in one objective's layout (:attr:`Objective.layout`), written
    by one pass over each example's segments as the store's u32 record
    fields into one growing array, then taken out once as a
    :class:`PlanStore`.  The fine ids are those of ``jv.fine``.

    A masked segment becomes one [M] slot with a coarse target when the
    layout is not contiguous and the segment has a joint identity (an
    n-gram's, or a one-subword word's) within the query budget, else one
    [M] and one fine target per subword.  The comprehensive layout gives
    each slot its [M1..Mn] queries at the slot's position id, with one fine
    target each after those of the [M]s.  ``fallbacks`` counts the masked
    segments whose identity fell back for exceeding the query budget.
    """

    def __init__(self, objective: Objective, jv: JointVocab):
        self.layout, self.vocab = Objective(objective).layout, jv.fine
        self.jv = None if self.layout == Objective.CONTIGUOUS else jv
        self.queries = ([jv.fine.query_id(i) for i in range(1, jv.fine.max_query + 1)]
                        if self.layout == Objective.COMPREHENSIVE else None)
        self.run, self.starts = array("I"), [0]
        self.fallbacks = 0

    def add(self, ex: SegmentedExample, masked):
        """Append the plan of ``ex`` with the segments ``masked`` (1-based)."""
        n = ex.boundaries.num_segments
        if not masked:
            raise UsageError("masked set is empty")
        for j in masked:
            if not 1 <= j <= n:
                raise UsageError(f"masked index {j} outside 1..{n}")
        chosen = set(masked)
        words, b = ex.boundaries.words, ex.boundaries.boundaries
        sub, spans, jv, mask_id = ex.subword_ids, ex.word_spans, self.jv, self.vocab.mask_id
        max_query = self.vocab.max_query
        ids: list = []
        coarse: list = []  # (context index, joint id) pairs, flat
        fine: list = []  # (index into context+queries, fine id) pairs, flat
        slots: list = []  # (context index, first subword, subword count)
        over = 0
        for j in range(1, n + 1):
            wlo, whi = b[j - 1] - 1, b[j] - 1
            lo, hi = spans[wlo][0], spans[whi - 1][1]
            if j not in chosen:
                ids.extend(sub[lo:hi])
                continue
            jid = None
            if jv is not None:
                if whi - wlo > 1:
                    jid = jv.id_of_ngram(words[wlo:whi])
                    if jid is None:
                        raise PlanError(f"masked n-gram {words[wlo:whi]} absent from lexicon")
                elif hi - lo == 1:
                    jid = sub[lo]
                if jid is not None and hi - lo > max_query:
                    over += 1
                    jid = None
            if jid is None:
                fine.extend(chain.from_iterable(zip(range(len(ids), len(ids) + hi - lo),
                                                    sub[lo:hi])))
                ids.extend([mask_id] * (hi - lo))
            else:
                coarse += (len(ids), jid)
                slots.append((len(ids), lo, hi - lo))
                ids.append(mask_id)
        T = len(ids)
        query_ids: list = []
        query_positions: list = []
        if self.queries is not None:
            for slot, lo, n_j in slots:
                q = T + len(query_ids)
                fine.extend(chain.from_iterable(zip(range(q, q + n_j), sub[lo : lo + n_j])))
                query_ids.extend(self.queries[:n_j])
                query_positions.extend([slot + 1] * n_j)  # same position id as the slot
        self.run.extend((T, len(query_ids), *ids, *range(1, T + 1), *query_positions,
                         *query_ids, len(coarse) // 2, *coarse, len(fine) // 2, *fine))
        self.starts.append(len(self.run))
        self.fallbacks += over

    def store(self) -> "PlanStore":
        return PlanStore(np.frombuffer(self.run, dtype=np.uintc).astype(np.uint32, copy=False),
                         np.array(self.starts, dtype=np.int64),
                         np.full(len(self.starts) - 1, self.layout, dtype=np.uint8))


def build_plan(objective: Objective, ex: SegmentedExample, masked, jv: JointVocab) -> "PlanView":
    """The plan of ``ex`` with the segments ``masked`` (1-based) in
    ``objective``'s layout, as the view of a one-plan store."""
    writer = PlanWriter(objective, jv)
    writer.add(ex, masked)
    return writer.store()[0]


def relation_from_comprehensive(store: "PlanStore", sampled) -> tuple["PlanStore", np.ndarray]:
    """Fill each [M] slot with a sampled joint identity and derive RTD labels.

    ``sampled`` aligns with the coarse targets of the store's plans, in the
    order of ``gather("coarse")``.  Returns (the filled store, the labels).
    Every plan becomes a relation plan, in one copy of the store's fields.
    The labels are uint8, one per context position, plan after plan: 1
    where the filled sequence matches the original-identity sequence, 0 at
    slots holding a wrong identity and at fallback [M]s.
    """
    coarse, owner = store.gather("coarse")
    if len(sampled) != len(coarse):
        raise UsageError(f"expected {len(coarse)} sampled ids, got {len(sampled)}")
    sampled = np.asarray(sampled, dtype=np.int64)
    first = np.concatenate(([0], np.cumsum(store.T)))  # each plan's first label
    labels = np.ones(first[-1], dtype=np.uint8)
    fine, fine_owner = store.gather("fine")
    fallback = fine[:, 0] < store.T[fine_owner]  # fallback [M] positions, never the original
    labels[first[fine_owner[fallback]] + fine[fallback, 0]] = 0
    labels[first[owner] + coarse[:, 0]] = sampled == coarse[:, 1]
    run = store.run.copy()
    run[store.starts[owner] + 2 + coarse[:, 0]] = sampled  # the context ids start after T and Q
    filled = PlanStore(run, store.starts, np.full(len(store), Objective.RELATION, dtype=np.uint8))
    return filled, labels


def plan_relation(ex: SegmentedExample, masked: tuple, jv: JointVocab,
                  sampled) -> tuple["PlanView", np.ndarray]:
    """(the relation plan, its RTD labels): :func:`relation_from_comprehensive`
    on the comprehensive plan of ``ex``."""
    base = build_plan(Objective.RELATION, ex, masked, jv)
    for y_prime in sampled:
        if not 0 <= int(y_prime) < len(jv):
            raise UsageError(f"sampled id {y_prime} outside joint range 0..{len(jv) - 1}")
    filled, labels = relation_from_comprehensive(base.store, sampled)
    return filled[0], labels


def build_attention_mask(plan: "PlanView", dtype=np.float32) -> np.ndarray:
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
# the plan store and the binary record format (little-endian, length-prefixed)
#
# A record is a u32 payload length, then the payload: u16 version, u8
# objective, the plan's u32 fields and a u8 RTD flag.  The u32 fields, in
# order: T, Q, T context ids, T + Q positions (context, then queries), Q
# query ids, the coarse count and (slot, id) pairs, the fine count and
# (index, id) pairs.  The flag is always 0: a set flag would be followed by
# T stored RTD labels, which no plan holds, so the reader refuses it.

_OBJECTIVES = tuple(Objective)  # indexed by the objective byte
_RECORD_HEAD = struct.Struct("<IHB")  # length prefix, version, objective


def _segments(first, count):
    """Indexes of the ranges ``first[k] .. first[k] + count[k] - 1``, concatenated."""
    ends = np.cumsum(count)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(first - ends + count, count)


class PlanStore:
    """Plans held as arrays, in the plan file's own layout.

    ``run`` (uint32) holds the u32 fields of every plan, plan after plan;
    plan k's are ``run[starts[k]:starts[k + 1]]``.  ``objectives`` holds one
    objective byte a plan.  ``T``, ``Q``, ``nc`` and ``nf`` are each plan's
    context and query lengths and coarse and fine target counts.
    ``counts`` holds the skip and fallback counts of the ``make_plans``
    call that built the store (provenance), and is empty for any other
    store.

    An int index gives a :class:`PlanView`, a slice a new store, iteration
    views.  Stores compare equal when their plans do.
    """

    def __init__(self, run, starts, objectives):
        self.run, self.starts, self.objectives = run, starts, objectives
        s = starts[:-1]
        self.T = run[s].astype(np.int64)
        self.Q = run[s + 1].astype(np.int64)
        self.nc = run[s + 2 + 2 * (self.T + self.Q)].astype(np.int64)
        self.nf = run[s + 3 + 2 * (self.T + self.Q + self.nc)].astype(np.int64)
        self.counts: dict = {}

    def __len__(self) -> int:
        return len(self.objectives)

    def _columns(self):
        """Each plan's objective, first u32, T, Q, nc and nf: a view's row."""
        return self.objectives, self.starts[:-1], self.T, self.Q, self.nc, self.nf

    def __iter__(self):
        for k, row in enumerate(np.stack(self._columns(), -1).tolist()):
            yield PlanView(self, k, row)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return self.take(range(len(self))[key])
        k = range(len(self))[key]
        return PlanView(self, k, [int(column[k]) for column in self._columns()])

    def take(self, indexes) -> "PlanStore":
        """The plans at ``indexes``, in that order, as a new store."""
        idx = np.asarray(indexes, dtype=np.int64)
        count = (self.starts[1:] - self.starts[:-1])[idx]
        run = self.run[_segments(self.starts[:-1][idx], count)]
        starts = np.concatenate(([0], np.cumsum(count)))
        return PlanStore(run, starts, self.objectives[idx])

    def __eq__(self, other):
        if not isinstance(other, PlanStore):
            return NotImplemented
        return (len(self) == len(other) and np.array_equal(self.objectives, other.objectives)
                and np.array_equal(self.run, other.run))

    def sha256(self) -> str:
        """Hex sha256 of ``run``, ``starts``, the objectives and one zero byte a
        plan (the byte that once told stored RTD labels from none, kept so
        that the digests in older checkpoints still match)."""
        h = hashlib.sha256()
        for a, dtype in ((self.run, "<u4"), (self.starts, "<i8"), (self.objectives, "u1")):
            h.update(np.asarray(a, dtype).tobytes())
        h.update(bytes(len(self)))
        return h.hexdigest()

    def gather(self, field: str):
        """``field`` of every plan, concatenated in plan order, and the index
        of each value's plan.  ``context_ids`` gives T values a plan,
        ``query_ids`` Q, ``positions`` T + Q, and ``coarse`` and ``fine``
        give (count, 2) arrays of (index, id) pairs."""
        first, per_plan = self.starts[:-1] + 2, self.T  # context ids
        if field == "positions":
            first, per_plan = first + self.T, self.T + self.Q
        elif field == "query_ids":
            first, per_plan = first + 2 * self.T + self.Q, self.Q
        elif field in ("coarse", "fine"):
            first, per_plan = first + 2 * (self.T + self.Q) + 1, self.nc
            if field == "fine":
                first, per_plan = first + 2 * self.nc + 1, self.nf
        elif field != "context_ids":
            raise UsageError(f"unknown plan field {field!r}")
        pairs = field in ("coarse", "fine")
        values = self.run[_segments(first, 2 * per_plan if pairs else per_plan)]
        return (values.reshape(-1, 2) if pairs else values,
                np.repeat(np.arange(len(self)), per_plan))

    def repeated_target(self, coarse, fine) -> int | None:
        """The first plan that names a coarse slot or a fine index as a
        target twice, else None, given ``gather("coarse")`` and
        ``gather("fine")``.  A head's backward adds into each target row
        once, so training refuses such a plan."""
        found = []
        for pairs, plan in (coarse, fine):
            order = np.lexsort((pairs[:, 0], plan))
            plan, index = plan[order], pairs[order, 0]
            twice = (plan[1:] == plan[:-1]) & (index[1:] == index[:-1])
            if twice.any():
                found.append(int(plan[1:][twice][0]))
        return min(found, default=None)


class PlanView:
    """Plan ``k`` of a :class:`PlanStore`: the arrays that training reads,
    each a view of the store's ``run`` but ``ids``, which is a copy when the
    plan has queries.

    ``ids`` holds the context then the queries, ``positions`` their position
    ids, and ``coarse`` and ``fine`` the (index, id) pairs of the targets as
    (count, 2) arrays.  Views compare equal when their objective and u32
    fields are.
    """

    __slots__ = ("store", "k", "_row")

    def __init__(self, store: PlanStore, k: int, row: list):
        self.store, self.k = store, k
        self._row = row  # objective, first u32, T, Q, nc, nf

    def _u32(self, offset: int, n: int):
        s = self._row[1] + offset
        return self.store.run[s : s + n]

    def _fields(self):
        """The plan's u32 fields, from T to the last fine pair."""
        _, _, T, Q, nc, nf = self._row
        return self._u32(0, 4 + 2 * (T + Q + nc + nf))

    @property
    def objective(self) -> Objective:
        return _OBJECTIVES[self._row[0]]

    @property
    def T(self) -> int:
        return self._row[2]

    @property
    def Q(self) -> int:
        return self._row[3]

    @property
    def ids(self):
        _, _, T, Q, _, _ = self._row
        context = self._u32(2, T)
        return np.concatenate((context, self._u32(2 + 2 * T + Q, Q))) if Q else context

    @property
    def positions(self):
        return self._u32(2 + self.T, self.T + self.Q)

    @property
    def coarse(self):
        _, _, T, Q, nc, _ = self._row
        return self._u32(3 + 2 * (T + Q), 2 * nc).reshape(nc, 2)

    @property
    def fine(self):
        _, _, T, Q, nc, nf = self._row
        return self._u32(4 + 2 * (T + Q + nc), 2 * nf).reshape(nf, 2)

    @property
    def context_ids(self) -> tuple:  # read by perfbench/workloads.py (ROADMAP item 1)
        return tuple(self._u32(2, self.T).tolist())

    @property
    def query_ids(self) -> tuple:  # read by perfbench/workloads.py (ROADMAP item 1)
        return tuple(self._u32(2 + 2 * self.T + self.Q, self.Q).tolist())

    @property
    def targets_coarse(self) -> tuple:  # read by perfbench/workloads.py (ROADMAP item 1)
        return tuple(map(tuple, self.coarse.tolist()))

    def all_ids(self) -> tuple:  # read by perfbench/workloads.py (ROADMAP item 1)
        return tuple(self.ids.tolist())

    def all_positions(self) -> tuple:  # read by perfbench/workloads.py (ROADMAP item 1)
        return tuple(self.positions.tolist())

    def __eq__(self, other):
        if not isinstance(other, PlanView):
            return NotImplemented
        return self._row[0] == other._row[0] and np.array_equal(self._fields(), other._fields())

    def __repr__(self) -> str:
        return f"PlanView({self.k}, {self.objective.name.lower()}, {self._fields().tolist()})"


def _records(store: PlanStore) -> bytes:
    """The store's plans as length-prefixed records, each RTD flag 0."""
    raw = memoryview(store.run.astype("<u4", copy=False).tobytes())
    starts = store.starts.tolist()
    parts = []
    for k, objective in enumerate(store.objectives.tolist()):
        a, b = 4 * starts[k], 4 * starts[k + 1]
        parts += (_RECORD_HEAD.pack(4 + b - a, PLAN_VERSION, objective), raw[a:b], b"\x00")
    return b"".join(parts)


def _truncated(end: int, *fields) -> PlanFormatError:
    """The error for a record cut at ``end``, placed at the first of the
    ``(start, size, item)`` fields that runs past it: at the field's start,
    or for a list of ``item``-byte pairs at its first incomplete pair."""
    offset = next(start + (end - start) // item * item
                  for start, size, item in fields if start + size > end)
    return PlanFormatError("truncated plan record", offset)


def _scan(buf, pos: int, end: int):
    """Check the record whose payload spans ``buf[pos:end]``; returns its
    objective byte and the end of its u32 fields.  A set RTD flag is
    refused.  An error's offset is its position in ``buf``."""
    if pos + 11 > end:
        raise _truncated(end, (pos, 11, 11))
    version, objective, T, Q = struct.unpack_from("<HBII", buf, pos)
    if version != PLAN_VERSION:
        raise VersionError(f"plan record version {version}, expected {PLAN_VERSION}")
    if objective >= len(_OBJECTIVES):
        raise PlanFormatError(f"unknown objective {objective}", pos + 2)
    pos += 11
    # context ids, positions, query ids and the coarse count
    n = 2 * T + 2 * Q
    if pos + 4 * n + 4 > end:
        raise _truncated(end, (pos, 4 * T, 4 * T), (pos + 4 * T, 4 * (T + Q), 4 * (T + Q)),
                     (pos + 4 * (2 * T + Q), 4 * Q, 4 * Q), (pos + 4 * n, 4, 4))
    pos += 4 * n + 4
    # coarse pairs and the fine count, then fine pairs and the RTD flag
    (nc,) = struct.unpack_from("<I", buf, pos - 4)
    if pos + 8 * nc + 4 > end:
        raise _truncated(end, (pos, 8 * nc, 8), (pos + 8 * nc, 4, 4))
    pos += 8 * nc + 4
    (nf,) = struct.unpack_from("<I", buf, pos - 4)
    if pos + 8 * nf + 1 > end:
        raise _truncated(end, (pos, 8 * nf, 8), (pos + 8 * nf, 1, 1))
    fields_end = pos + 8 * nf
    if buf[fields_end]:
        raise PlanFormatError("RTD labels in a plan record: training derives them", fields_end)
    if fields_end + 1 != end:
        raise PlanFormatError("trailing bytes after plan record", fields_end + 1)
    return objective, fields_end


def _decode(buf, pos: int) -> PlanStore:
    """The store of the records from ``buf[pos:]`` on: one header walk, then
    one array over the joined u32 fields.  An error's offset is its position
    in ``buf``."""
    view = memoryview(buf)
    runs, starts, objectives = [], [0], bytearray()
    n = len(buf)
    while pos < n:
        if pos + 4 > n:
            raise PlanFormatError("truncated record length prefix", pos)
        end = pos + 4 + struct.unpack_from("<I", buf, pos)[0]
        if end > n:
            raise PlanFormatError("truncated plan record", pos)
        objective, fields_end = _scan(buf, pos + 4, end)
        runs.append(view[pos + 7 : fields_end])  # from T, after version and objective
        starts.append(starts[-1] + (fields_end - pos - 7) // 4)
        objectives.append(objective)
        pos = end
    return PlanStore(np.frombuffer(b"".join(runs), dtype="<u4"), np.array(starts, dtype=np.int64),
                     np.frombuffer(objectives, dtype=np.uint8))


def write_plan_file(path, plans: PlanStore, provenance: dict | None = None):
    """Plan container: magic, file version, provenance JSON, then records."""
    header = json.dumps(provenance or {}, sort_keys=True).encode("utf-8")
    records = _records(plans)
    with open(path, "wb") as f:
        f.write(FILE_MAGIC)
        f.write(struct.pack("<HI", PLAN_VERSION, len(header)))
        f.write(header)
        f.write(records)


def read_plan_file(path):
    """Returns (provenance dict, PlanStore)."""
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
    return provenance, _decode(data, pos)


def plan_to_json(plan: PlanView) -> str:
    """Human-readable one-line JSON dump of a plan.  ``rtd_labels`` is always
    null: plans hold no RTD labels."""
    T, ids, positions = plan.T, plan.ids.tolist(), plan.positions.tolist()
    return json.dumps(
        {
            "objective": plan.objective.name.lower(),
            "context_ids": ids[:T],
            "context_positions": positions[:T],
            "query_ids": ids[T:],
            "query_positions": positions[T:],
            "targets_coarse": plan.coarse.tolist(),
            "targets_fine": plan.fine.tolist(),
            "rtd_labels": None,
        },
        sort_keys=True,
    )
