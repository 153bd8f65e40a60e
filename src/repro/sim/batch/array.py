"""Array-native round engine: whole-round numpy programs over CSR.

A per-node engine pays one Python ``step()`` call, one outbox dict, and
one inbox dict per node per round. The paper's node programs (Luby MIS,
the FloodMin flooding of Lemma 3.2, the BFS cluster-growing of Theorem
4.2, color trials, Cole–Vishkin reduction, the sinkless fix-up) are
data-parallel across nodes: each round is a gather of neighbor state
plus a per-node reduction. This module executes them as *whole-round
array operations* over the frozen
:class:`~repro.sim.batch.csr.CSRGraph` — neighbor aggregation via CSR
segment reductions, broadcasts as column gathers — eliminating per-node
Python dispatch entirely. It is the one round engine: every
message-passing run in the library is an :class:`ArrayEngine` run.

The contract: an :class:`ArrayProgram`'s ``init``/``step`` operate on
numpy state arrays for **all** nodes at once and report what was sent
through the :class:`ArrayContext` accounting helpers. The
:class:`ArrayEngine` drives the synchronous round structure of Section
2 (init, then deliver + step until every node finished) and produces
**bit-identical outputs and RunReports** — rounds, messages, total/max
bits, randomness bits — to the equivalent per-node program, one dict
per node per round (the tests hold each program to its per-node twin
on a reference engine).

A :class:`~repro.sim.batch.faults.RoundFaultPlan` (duck-typed, so this
module never imports the fault module) becomes per-round masks, built
only while one is active: a crash set over the nodes about to step, and
the *heard* arcs the masked kernels AND in. A crashing sender is charged
only its escaped sends, a crashed one nothing, and a crashed node's
output stays frozen. UIDs of any width run: outside [0, 2**62)
``ctx.uids`` holds their dense order-preserving ranks, with payload
widths (:meth:`ArrayContext.uid_bits`) and outputs
(:meth:`ArrayContext.uid_values`) taken from the real UIDs.

The aggregation ops are fused passes: each gathers neighbor values into
edge-sized buffers that the context allocates once per topology
(``int64[e]`` values and ``bool[e]`` masks) and reduces them per node.
The buffers hold the edges in jagged-diagonal (JDS) order (Saad, SIAM
J. Sci. Stat. Comput. 10(6), 1989): the rows are stably sorted by
degree, descending — the identity on a regular graph — and column ``j``
holds the ``j``-th edge of every row with more than ``j`` edges, a
contiguous prefix of the sorted rows. A reduction folds column by
column, one vector ``ufunc`` pass each, and the few rows still open once
a column holds fewer than :data:`FOLD_MIN_ROWS` rows finish with one
``reduceat`` over their tails, so a hub costs no Python iteration per
edge. A fold therefore allocates only its ``int64[n]`` results, and
those are always fresh arrays that no later op overwrites.

A fold pays for every edge even when few nodes sent: a BFS wavefront is
a handful of nodes on a graph of millions of arcs. So a masked op whose
senders' arcs number fewer than ``e /`` :data:`FRONTIER_DIV` switches
from pull to push, the switch of direction-optimizing BFS (Beamer,
Asanović and Patterson, SC'12): it expands the senders' CSR segments
into ``(src, dst)`` arcs, along each sender's own list as a per-node
engine delivers a broadcast, and scatters them with ``np.minimum.at`` into
fresh ``int64[n]`` results. That branch allocates per arc, never per
edge. Pushing equals pulling because the arcs are symmetric (see
:class:`~repro.sim.batch.csr.CSRGraph`). A whole-network re-broadcast
gets the same treatment on the accounting side:
:meth:`ArrayContext.standing_broadcast` keeps every node's payload width
between rounds and re-measures only the nodes whose payload changed.

Unlike node programs, array programs are *trusted* infrastructure code:
they can see the whole state, so the model's knowledge limits (only use
``ctx.n`` where a node would, only aggregate over actual neighbors) are
a discipline the parity tests enforce rather than an API impossibility.
The engine still enforces the CONGEST bandwidth limit, ``n_override``
semantics, ``uniform`` denial of ``n``, and ``max_rounds``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from ...errors import BandwidthExceeded, ConfigurationError, ModelViolation
from ...randomness.source import RandomSource
from ..graph import DistributedGraph
from ..messages import CONGEST, LOCAL, congest_limit, message_bits
from ..metrics import AlgorithmResult, RunReport
from .csr import CSRGraph, ensure_csr, segment_reduce  # noqa: F401

#: int64 sentinel for "no value" in min-reductions (identity of minimum).
INT64_MAX = np.iinfo(np.int64).max

#: Rows a JDS column must still cover to be folded on its own. The rows
#: open past the last such column (fewer than this many) finish with one
#: ``reduceat`` over their tails instead of one Python pass per column.
FOLD_MIN_ROWS = 1024

#: A sparse-mask op pushes along its senders' arcs instead of folding
#: every edge when those arcs number fewer than ``e / FRONTIER_DIV``.
#: Measured on a 2-vCPU x86 host (numpy 2.4) for adopt_neighbor_min3
#: on 10^5- and 10^6-node cycles, ring lattices and G(n, p), the push
#: beats the three-pass fold up to 0.7-0.9 e arcs; below e / 4 it takes
#: at most about half the fold's time, and its per-arc temporaries stay
#: a fraction of the fold's edge buffers.
FRONTIER_DIV = 4

# Framing constants derived from the accounting encoder itself, so the
# vectorized size formulas below can never drift from message_bits().
_TUPLE_BASE = message_bits(())
_ELEMENT_OVERHEAD = message_bits((0,)) - message_bits(0) - _TUPLE_BASE


def check_engine(engine: Optional[str]) -> None:
    """Refuse a primitive's ``engine`` knob unless it is ``None`` or
    ``"array"``, the name of the one engine every primitive runs on."""
    if engine is not None and engine != "array":
        raise ConfigurationError(
            f"unknown engine {engine!r}; pin 'array' or leave engine unset")


def fast_int_message_bits(values: np.ndarray) -> np.ndarray:
    """Vectorized ``message_bits`` for arrays of non-negative integers.

    Matches ``max(1, v.bit_length()) + 1`` exactly for every int64
    value, in a handful of vector ops. A shift-count loop (the tests'
    reference) makes a masked whole-array pass per shift, which would
    dominate a round's accounting at n = 10^6, and a float ``log2``
    rounds wrong near 2**53. This reads each value's bit length off
    ``np.frexp``'s exponent instead (for x > 0, ``frexp(x) = (m, e)``
    with ``x = m * 2**e`` and ``0.5 <= m < 1``, so ``e ==
    x.bit_length()``; frexp maps 0 to exponent 0, matching
    ``(0).bit_length()``). Values from 2^53 up are split into 32-bit
    halves first, both exactly representable in float64, so the count
    is exact for every non-negative int64.
    """
    v = np.asarray(values, dtype=np.int64)
    if not v.size:
        return np.maximum(v, 1) + 1
    if int(v.min()) < 0:
        raise ConfigurationError("int_message_bits requires non-negative values")
    if int(v.max()) < 1 << 53:
        # Every real payload (UIDs <= n, depths, priorities <= n^2) is
        # far below 2^53, so one float64 pass is exact and suffices.
        exp = np.frexp(v.astype(np.float64))[1]
        return np.maximum(exp.astype(np.int64), 1) + 1
    hi = v >> 32
    lo = v & np.int64(0xFFFFFFFF)
    ex_lo = np.frexp(lo.astype(np.float64))[1]
    ex_hi = np.frexp(hi.astype(np.float64))[1]
    # frexp exponents are int32; lift before the +32 offset and return.
    bit_length = np.where(hi > 0, ex_hi + 32, ex_lo).astype(np.int64)
    return np.maximum(bit_length, 1) + 1


def tuple_message_bits(*element_bits) -> Any:
    """``message_bits`` of a tuple from its elements' sizes (arrays ok)."""
    total = _TUPLE_BASE
    for bits in element_bits:
        total = total + bits + _ELEMENT_OVERHEAD
    return total


class Sends:
    """Accounting snapshot of one round's outgoing messages.

    Built by the :class:`ArrayContext` send helpers at *send* time (when
    CONGEST limits are enforced, as a per-node engine checks each
    outbox) and folded into the report by the engine at *delivery* time
    one round later — so messages queued by nodes whose run ends before
    the next round are dropped uncounted, exactly as per node.
    """

    __slots__ = ("messages", "total_bits", "max_message_bits")

    def __init__(self, messages: int = 0, total_bits: int = 0,
                 max_message_bits: int = 0):
        self.messages = messages
        self.total_bits = total_bits
        self.max_message_bits = max_message_bits


class ArrayContext:
    """Whole-network state the engine shares with an array program.

    A node's local view (Section 2), batched: UIDs and degrees as
    arrays, the claimed network size (``n``, denied under ``uniform``),
    cursor-metered randomness drawn per node from each node's own
    stream, plus the two things only an engine may do — account sends
    and finish nodes.

    ``faults`` is an active :class:`~repro.sim.batch.faults.RoundFaultPlan`
    or ``None``; the engine calls :meth:`_begin_round` before each step.
    """

    def __init__(self, csr: CSRGraph, claimed_n: int,
                 source: Optional[RandomSource], model: str, bandwidth: int,
                 uniform: bool, faults: Any = None):
        self.csr = csr
        self.size = csr.n
        # np.asarray strips memmap subclasses (a mmap-loaded CSR) to
        # plain ndarray views, so op results are plain arrays too.
        self.offsets = np.asarray(csr.offsets, dtype=np.int64)
        self.indices = np.asarray(csr.indices, dtype=np.int64)
        self.degrees = csr.degrees
        #: Rank -> UID when the UIDs are wide, else None.
        self.uid_of: Optional[List[int]] = None
        self._rank_bits: Optional[np.ndarray] = None  # rank -> width
        #: UIDs (or ranks) and message_bits of each node's real UID.
        self.uids, self.uid_message_bits = self._uid_columns(csr)
        self.model = model
        self.bandwidth = bandwidth
        self._congest = model == CONGEST
        self._claimed_n = claimed_n
        self._uniform = uniform
        self._source = source
        self._cursors = np.zeros(csr.n, dtype=np.int64)
        self._finished = np.zeros(csr.n, dtype=bool)
        self._outputs: List[Any] = [None] * csr.n
        self._all_nodes: Optional[np.ndarray] = None
        self._edges = int(self.indices.size)
        self._degree_total = int(np.sum(self.degrees))
        self._layout()
        self._edge_order: Optional[np.ndarray] = None
        self._owners: Optional[np.ndarray] = None
        self._pads: Dict[str, np.ndarray] = {}
        self._masks: Dict[str, np.ndarray] = {}
        # The standing broadcast: each node's payload width (0 where it
        # has no neighbor) and their degree-weighted total.
        self._widths: Optional[np.ndarray] = None
        self._width_total = 0
        # Fault state (see _begin_round), all None without a plan.
        self._plan = faults
        self._round = 0
        self._left = self._decided = self._dropped = None
        self._crashed = self._crashing = None
        if faults is not None:
            self._crashed = np.zeros(csr.n, dtype=bool)
            self._crashing = np.zeros(csr.n, dtype=bool)

    def _uid_columns(self, csr: CSRGraph):
        """``(uids, uid_message_bits)``: the CSR's UID column
        (:attr:`CSRGraph.uid_array`) when it has one, else the dense
        order-preserving ranks."""
        uids = csr.uid_array
        if uids is not None:
            return uids, fast_int_message_bits(uids)
        order = sorted(range(csr.n), key=csr.uids.__getitem__)
        self.uid_of = [csr.uids[v] for v in order]
        self._rank_bits = np.array([message_bits(uid) for uid in self.uid_of],
                                   dtype=np.int64)
        ranks = np.empty(csr.n, dtype=np.int64)
        ranks[order] = np.arange(csr.n, dtype=np.int64)
        return ranks, self._rank_bits[ranks]

    def uid_bits(self, values: np.ndarray) -> np.ndarray:
        """``message_bits`` of the UIDs ``values`` (from :attr:`uids`)
        stand for."""
        if self._rank_bits is None:
            return fast_int_message_bits(values)
        return self._rank_bits[values]

    def uid_values(self, values: np.ndarray) -> List[int]:
        """The UIDs ``values`` (from :attr:`uids`) stand for, as ints."""
        values = np.asarray(values).tolist()
        if self.uid_of is None:
            return values
        return [self.uid_of[i] for i in values]

    # ------------------------------------------------------------------
    # Knowledge of n (non-uniform vs uniform algorithms, Section 2)
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """The claimed network size; uniform algorithms may not read it."""
        if self._uniform:
            raise ModelViolation("uniform algorithm may not read n")
        return self._claimed_n

    @property
    def all_nodes(self) -> np.ndarray:
        """``int64`` arange over every node index, built once."""
        if self._all_nodes is None:
            self._all_nodes = np.arange(self.size, dtype=np.int64)
        return self._all_nodes

    # ------------------------------------------------------------------
    # The jagged-diagonal edge layout, built once per topology
    # ------------------------------------------------------------------
    def _layout(self) -> None:
        """Sort the rows by degree and cut the edges into JDS columns."""
        degrees = np.asarray(self.degrees)
        # Sorted row i is node _order[i]; None when the rows are already
        # non-increasing (every regular graph), so no scatter is needed.
        self._order: Optional[np.ndarray] = None
        self._row_starts = self.offsets[:-1]
        if np.any(degrees[1:] > degrees[:-1]):
            # Sort on the narrowest unsigned key: numpy's stable sort is a
            # radix sort for keys of 16 bits or less (degrees < 65536).
            top = int(degrees.max())
            key = (top - degrees).astype(np.min_scalar_type(top))
            self._order = np.argsort(key, kind="stable")
            degrees = degrees[self._order]
            self._row_starts = self.offsets[self._order]
        # Column j is folded on its own while at least FOLD_MIN_ROWS rows
        # have more than j edges: for every j below the FOLD_MIN_ROWS-th
        # largest degree.
        folded = 0
        if degrees.size >= FOLD_MIN_ROWS:
            folded = int(degrees[FOLD_MIN_ROWS - 1])
        # open_rows[j]: how many sorted rows have more than j edges.
        open_rows = np.searchsorted(-degrees, -np.arange(folded + 1))
        # Row count of each folded column, in slot order.
        self._columns: List[int] = open_rows[:folded].tolist()
        self._linked = int(open_rows[0])
        # The open rows' remaining edges, and where each row's run
        # starts within the tail region.
        self._tail_lengths = degrees[:int(open_rows[folded])] - folded
        self._tail_starts = np.cumsum(self._tail_lengths) - self._tail_lengths
        self._neighbors = self.indices[self._edge_ids()]

    def _edge_ids(self) -> np.ndarray:
        """Per JDS slot, the CSR edge it holds (a fresh ``int64[e]``)."""
        starts = self._row_starts
        lengths = self._tail_lengths
        first = starts[:lengths.size] + len(self._columns) - self._tail_starts
        tail = np.repeat(first, lengths) + np.arange(int(lengths.sum()))
        return np.concatenate(
            [starts[:rows] + j for j, rows in enumerate(self._columns)]
            + [tail])

    @property
    def edge_order(self) -> np.ndarray:
        """Per JDS slot, the CSR edge it holds (built on first use)."""
        if self._edge_order is None:
            self._edge_order = self._edge_ids()
        return self._edge_order

    @property
    def owners(self) -> np.ndarray:
        """Per JDS slot, the node whose edge it holds (built on first
        use): a tied-lane test compares each slot with its owner's
        reduced value."""
        if self._owners is None:
            rows = self.all_nodes if self._order is None else self._order
            lengths = self._tail_lengths
            self._owners = np.concatenate(
                [rows[:count] for count in self._columns]
                + [np.repeat(rows[:lengths.size], lengths)])
        return self._owners

    # ------------------------------------------------------------------
    # Fault masks, built only while a plan is attached
    # ------------------------------------------------------------------
    @property
    def crashed(self) -> Optional[np.ndarray]:
        """``bool[n]``: the nodes that crashed in an earlier round (they
        never step again), or ``None`` without a fault plan."""
        return self._crashed

    def _begin_round(self, round_index: int) -> None:
        """Start round ``round_index``'s fault masks.

        ``_crashed``/``_crashing`` (bool[n]): the nodes that crashed
        before this round, and those that crash in it, drawn over the
        nodes about to step. JDS slot ``i`` carries the message
        ``_neighbors[i] -> owners[i]``; ``_left`` (bool[e]) says it left
        its sender: the sender stepped last round and, had it crashed
        then, the send escaped. ``_decided``/``_dropped`` fill in the
        plan's drops as :meth:`_arrived` reads them.
        """
        plan = self._plan
        senders = self._neighbors
        left = ~self._crashed[senders]
        cut = np.flatnonzero(self._crashing[senders])
        if cut.size:
            left[cut] = plan.escape_mask(round_index - 1, senders[cut],
                                         self.owners[cut])
        self._left = left
        self._decided = np.zeros(self._edges, dtype=bool)
        self._dropped = np.zeros(self._edges, dtype=bool)
        self._crashed |= self._crashing
        stepped = np.flatnonzero(~(self._finished | self._crashed))
        self._crashing = np.zeros(self.size, dtype=bool)
        self._crashing[stepped] = plan.crash_mask(round_index, stepped)
        self._round = round_index

    def _arrived(self, arcs: np.ndarray) -> np.ndarray:
        """Narrow the JDS mask ``arcs`` (in place) to the slots whose
        message left and was not dropped; the plan decides a slot's drop
        on first read, so only arcs a message crosses are decided."""
        arcs &= self._left
        todo = np.flatnonzero(arcs & ~self._decided)
        if todo.size:
            self._dropped[todo] = self._plan.drop_mask(
                self._round, self._neighbors[todo], self.owners[todo])
            self._decided[todo] = True
        arcs &= ~self._dropped
        return arcs

    def heard_from(self, node_mask: np.ndarray,
                   out: Optional[np.ndarray] = None) -> np.ndarray:
        """JDS ``bool[e]`` (into ``out``, else fresh): the arcs whose
        neighbor is in ``node_mask`` and whose message arrived."""
        heard = np.take(np.asarray(node_mask), self._neighbors, out=out,
                        mode="clip")
        if self._plan is not None:
            self._arrived(heard)
        return heard

    def arc_counts(self, arcs: np.ndarray) -> np.ndarray:
        """Per node, how many of its JDS slots ``arcs`` holds."""
        pad = self._pad("a")
        pad[:] = arcs
        return self._reduce(np.add, pad, 0)

    # ------------------------------------------------------------------
    # Reusable edge buffers and the reduction they feed
    # ------------------------------------------------------------------
    def _pad(self, name: str) -> np.ndarray:
        """A named ``int64[e]`` JDS-ordered edge buffer, built once."""
        buf = self._pads.get(name)
        if buf is None:
            buf = self._pads[name] = np.empty(self._edges, dtype=np.int64)
        return buf

    def _mask(self, name: str) -> np.ndarray:
        """A named ``bool[e]`` edge mask buffer, built once."""
        buf = self._masks.get(name)
        if buf is None:
            buf = self._masks[name] = np.empty(self._edges, dtype=bool)
        return buf

    def _reduce(self, ufunc: np.ufunc, buf: np.ndarray,
                identity) -> np.ndarray:
        """Per-node ``ufunc`` over the JDS-ordered ``buf`` (fresh array).

        Folds column by column into the sorted rows: ``out[:c0] =
        col0``, then ``ufunc(out[:cj], colj, out=out[:cj])`` for each
        later column. Rows still open after the folded columns combine
        with one ``reduceat`` over their tails (every tail is non-empty,
        so no pad slot); rows without edges get ``identity``; one
        scatter restores node order unless the rows were already
        sorted. Each row is folded left to right, so the result is
        bit-identical to :func:`segment_reduce` for every ufunc whose
        value does not depend on grouping (integer and bitwise ops,
        min, max). Float ``add`` may differ in the last bits, since
        ``reduceat`` itself sums a row as ``x0 + (x1 + ...)``.
        """
        out = np.empty(self.size, dtype=buf.dtype)
        at = 0
        for rows in self._columns:
            if at:
                ufunc(out[:rows], buf[at:at + rows], out=out[:rows])
            else:
                out[:rows] = buf[:rows]
            at += rows
        open_rows = self._tail_starts.size
        if open_rows:
            tails = ufunc.reduceat(buf[at:], self._tail_starts)
            if at:
                ufunc(out[:open_rows], tails, out=out[:open_rows])
            else:
                out[:open_rows] = tails
        out[self._linked:] = identity
        if self._order is None:
            return out
        result = np.empty_like(out)
        result[self._order] = out
        return result

    def _take(self, node_values: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Gather ``node_values`` along the JDS neighbor indices."""
        # mode="clip": CSR indices are validated in-range at
        # construction, so clipping never binds — it only skips the
        # per-element bounds check of the default mode="raise" path,
        # which measurably dominates a gather at E in the millions.
        return np.take(node_values, self._neighbors, out=out, mode="clip")

    # ------------------------------------------------------------------
    # Neighbor aggregation over CSR-order edge values
    # ------------------------------------------------------------------
    def neighbor_reduce(self, edge_values: np.ndarray, ufunc: np.ufunc,
                        identity) -> np.ndarray:
        """Per-node ``ufunc`` over its incident CSR-order edge values
        (``identity`` if none); see :meth:`_reduce` for the fold."""
        values = np.asarray(edge_values)
        if values.shape != (self._edges,):
            raise ConfigurationError(
                f"edge values must have shape ({self._edges},), got "
                f"{values.shape}")
        # mode="clip" also keeps np.take from buffering the output.
        if values.dtype == np.int64:
            buf = np.take(values, self.edge_order, out=self._pad("reduce"),
                          mode="clip")
        else:  # rare; nothing on the bundled programs' path
            buf = np.take(values, self.edge_order, mode="clip")
        return self._reduce(ufunc, buf, identity)

    def neighbor_min(self, edge_values: np.ndarray,
                     empty=INT64_MAX) -> np.ndarray:
        """Per-node min over its incident edge values (``empty`` if none)."""
        return self.neighbor_reduce(edge_values, np.minimum, empty)

    # ------------------------------------------------------------------
    # Fused aggregation: gather, mask and reduce in the edge buffers
    # ------------------------------------------------------------------
    # Under a fault plan these see only heard arcs (the CSR-order edge
    # API above sees every arc).
    def neighbor_count(self, node_mask: np.ndarray) -> np.ndarray:
        """Per-node count of neighbors where ``node_mask`` holds."""
        return self.arc_counts(self.heard_from(node_mask, self._mask("mask")))

    def gather_neighbor_min(self, node_values: np.ndarray,
                            empty=INT64_MAX) -> np.ndarray:
        """Per-node min of neighbor values (``empty`` if no neighbors)."""
        pad = self._take(np.asarray(node_values), self._pad("a"))
        if self._plan is not None:
            lost = ~self._arrived(np.ones(self._edges, dtype=bool))
            np.copyto(pad, empty, where=lost)
        return self._reduce(np.minimum, pad, empty)

    def lex_neighbor_max2(self, primary: np.ndarray, secondary: np.ndarray,
                          node_mask: np.ndarray, empty=-1):
        """Per-node ``(max primary, max secondary among the primary
        ties)`` over masked neighbors; ``(empty, empty)`` where none.
        Masked values must exceed ``empty``."""
        mask = self.heard_from(node_mask, self._mask("mask"))
        scratch = self._mask("scratch")
        vals = self._take(np.asarray(primary), self._pad("a"))
        np.logical_not(mask, out=scratch)
        np.copyto(vals, empty, where=scratch)
        best = self._reduce(np.maximum, vals, empty)
        # The primary ties: masked lanes whose value hit their row max.
        tied = self._pad("b")
        np.take(best, self.owners, out=tied, mode="clip")
        np.equal(vals, tied, out=scratch)
        np.logical_and(scratch, mask, out=scratch)
        self._take(np.asarray(secondary), tied)
        np.logical_not(scratch, out=mask)
        np.copyto(tied, empty, where=mask)
        return best, self._reduce(np.maximum, tied, empty)

    def _frontier_arcs(self, senders: np.ndarray):
        """``(src, dst)`` of every arc out of ``senders``, along each
        sender's own CSR list (the direction a per-node engine delivers
        a broadcast): one ``repeat`` of the segment starts plus an
        ``arange``."""
        counts = self.degrees[senders]
        # Arc k of the run belongs to sender i and sits at CSR edge
        # offsets[s_i] + (k - first_i), first_i = the run's i-th start.
        shift = self.offsets[senders] - (np.cumsum(counts) - counts)
        edges = np.repeat(shift, counts)
        edges += np.arange(edges.size)
        return np.repeat(senders, counts), self.indices[edges]

    def adopt_neighbor_min3(self, primary: np.ndarray, secondary: np.ndarray,
                            node_mask: np.ndarray, bias: int = 1,
                            empty=INT64_MAX):
        """Per-node three-pass lexicographic min over masked neighbors:
        ``(min primary; min secondary + bias among the primary ties; min
        neighbor index among the full ties)``, all ``empty`` where no
        neighbor is masked. Masked primaries must be below ``empty``.

        A sparse mask (its senders' arcs fewer than ``e /``
        :data:`FRONTIER_DIV`) pushes the three passes along those arcs
        only, unless a fault plan is attached; otherwise the op folds
        the JDS edge buffers."""
        if self._plan is None:
            senders = np.flatnonzero(node_mask)
            if int(self.degrees[senders].sum()) * FRONTIER_DIV < self._edges:
                return self._adopt_min3_frontier(primary, secondary, senders,
                                                 bias, empty)
        mask = self.heard_from(node_mask, self._mask("mask"))
        tie = self._mask("scratch")
        pad_a = self._take(np.asarray(primary), self._pad("a"))
        pad_b = self._pad("b")
        pad_c = self._pad("c")
        np.logical_not(mask, out=tie)
        np.copyto(pad_a, empty, where=tie)
        best = self._reduce(np.minimum, pad_a, empty)
        # tie := masked lanes tied on primary.
        np.take(best, self.owners, out=pad_c, mode="clip")
        np.equal(pad_a, pad_c, out=tie)
        np.logical_and(tie, mask, out=tie)
        self._take(np.asarray(secondary), pad_b)
        pad_b += bias
        np.logical_not(tie, out=mask)
        np.copyto(pad_b, empty, where=mask)
        best_2 = self._reduce(np.minimum, pad_b, empty)
        # mask := lanes tied on (primary, secondary).
        np.take(best_2, self.owners, out=pad_c, mode="clip")
        np.equal(pad_b, pad_c, out=mask)
        np.logical_and(mask, tie, out=mask)
        pad_c[:] = self._neighbors
        np.logical_not(mask, out=tie)
        np.copyto(pad_c, empty, where=tie)
        return best, best_2, self._reduce(np.minimum, pad_c, empty)

    def _adopt_min3_frontier(self, primary, secondary, senders, bias, empty):
        """:meth:`adopt_neighbor_min3` as ``minimum.at`` scatters over
        the senders' arcs; each pass keeps only the previous one's ties."""
        src, dst = self._frontier_arcs(senders)
        key = np.asarray(primary, dtype=np.int64)[src]
        best = self._scatter_min(dst, key, empty)
        tied = key == best[dst]
        src, dst = src[tied], dst[tied]
        key = np.asarray(secondary, dtype=np.int64)[src] + bias
        best_2 = self._scatter_min(dst, key, empty)
        tied = key == best_2[dst]
        return best, best_2, self._scatter_min(dst[tied], src[tied], empty)

    def _scatter_min(self, dst: np.ndarray, key: np.ndarray,
                     empty) -> np.ndarray:
        """Per-node min of ``key`` over the arcs into it (fresh array)."""
        out = np.full(self.size, empty, dtype=np.int64)
        np.minimum.at(out, dst, key)
        return out

    # ------------------------------------------------------------------
    # Randomness (cursor-based: each node reads its own stream in order)
    # ------------------------------------------------------------------
    def _require_source(self) -> RandomSource:
        if self._source is None:
            raise ModelViolation(
                "array program requested randomness but the run is "
                "deterministic")
        return self._source

    def rand_uniform_each(self, nodes: np.ndarray, bound) -> np.ndarray:
        """One fresh uniform draw in ``[0, bound)`` per listed node;
        ``bound`` is one int or an ``int64`` array aligned with ``nodes``.

        Each node draws from its own stream at its own cursor, in one
        read in the order listed, consuming exactly the bits (and
        raising at exactly the node) that per-node ``rand_uniform``
        calls in that order would.
        """
        source = self._require_source()
        nodes = np.asarray(nodes, dtype=np.int64)
        # Python ints, like a node program's ctx.v: as stream and ledger
        # keys they hash faster than numpy scalars.
        values, used = source.uniform_int_each(
            nodes.tolist(), bound, self._cursors[nodes])
        self._cursors[nodes] += used
        return values

    def rand_bits_each(self, nodes: np.ndarray, counts) -> np.ndarray:
        """``counts`` fresh bits per listed node: one int (the rows of a
        ``uint8`` matrix) or an array aligned with ``nodes`` (every
        node's bits back to back, see :meth:`~repro.randomness.source.
        RandomSource.bits_each`); one read in the order listed, like
        per-node ``rand_bits`` calls."""
        source = self._require_source()
        nodes = np.asarray(nodes, dtype=np.int64)
        bits = source.bits_each(nodes.tolist(), counts, self._cursors[nodes])
        self._cursors[nodes] += np.maximum(counts, 0)
        return bits

    # ------------------------------------------------------------------
    # Send accounting (CONGEST checks at send time, like _resolve)
    # ------------------------------------------------------------------
    def int_message_bits(self, values: np.ndarray) -> np.ndarray:
        """Per-value message size (see :func:`fast_int_message_bits`)."""
        return fast_int_message_bits(values)

    def broadcast(self, senders: np.ndarray, bits: np.ndarray) -> Sends:
        """Account a broadcast: each sender fans one ``bits[i]``-sized
        payload to its whole neighborhood (degree-0 senders send nothing)."""
        senders = np.asarray(senders, dtype=np.int64)
        bits = np.broadcast_to(np.asarray(bits, dtype=np.int64), senders.shape)
        fanout = self.degrees[senders]
        return self._account(senders, fanout, bits)

    def send_along(self, senders: np.ndarray, arcs: np.ndarray,
                   bits: np.ndarray) -> Sends:
        """Account a subset send given per arc: sender ``i`` delivers one
        ``bits[i]``-sized payload along each of its JDS slots that
        ``arcs`` holds."""
        senders = np.asarray(senders, dtype=np.int64)
        bits = np.broadcast_to(np.asarray(bits, dtype=np.int64), senders.shape)
        return self._account(senders, self.arc_counts(arcs)[senders], bits,
                             arcs)

    def standing_broadcast(self, values: np.ndarray,
                           changed: Optional[np.ndarray] = None) -> Sends:
        """Account every node broadcasting the UID ``values[v]`` (an
        entry of :attr:`uids`).

        The same :class:`Sends` as ``broadcast(all_nodes,
        uid_bits(values))``, but the payload widths stand between calls:
        the first call (``changed=None``) measures every node, and each
        later one re-measures only ``changed``, the nodes whose value
        moved since the previous call. Widths are kept as ``uint8`` (0
        where a node has no neighbor, so an isolated sender never sets
        the max) beside their degree-weighted total, which moves by
        ``dot(deg[changed], new - old)``. Under a fault plan, where
        senders crash, or with wide UIDs, whose widths may pass 255, it
        is that ``broadcast``.
        """
        values = np.asarray(values)
        if self._plan is not None or self._rank_bits is not None:
            return self.broadcast(self.all_nodes, self.uid_bits(values))
        if changed is None:
            widths = fast_int_message_bits(values).astype(np.uint8)
            widths[self.degrees == 0] = 0
            self._widths = widths
            self._width_total = int(np.dot(self.degrees, widths))
        else:
            fanout = self.degrees[changed]
            widths = fast_int_message_bits(values[changed])
            widths[fanout == 0] = 0
            self._width_total += int(np.dot(
                fanout, widths - self._widths[changed]))
            self._widths[changed] = widths
        top = int(self._widths.max(initial=0))
        if self._congest and top > self.bandwidth:
            # The general path raises the exact per-sender error.
            return self.broadcast(self.all_nodes,
                                  fast_int_message_bits(values))
        return Sends(self._degree_total, self._width_total, top)

    def fanout(self, senders: np.ndarray, counts: np.ndarray,
               bits: np.ndarray) -> Sends:
        """Account a subset send: sender ``i`` delivers the same
        ``bits[i]``-sized payload to ``counts[i]`` of its neighbors.
        Counts cannot say which arcs a crashing sender's sends cross, so
        under a fault plan use :meth:`send_along`."""
        if self._plan is not None:
            raise ConfigurationError("fanout under a fault plan; use send_along")
        senders = np.asarray(senders, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        bits = np.broadcast_to(np.asarray(bits, dtype=np.int64), senders.shape)
        return self._account(senders, counts, bits)

    def _account(self, senders: np.ndarray, fanout: np.ndarray,
                 bits: np.ndarray, arcs: Optional[np.ndarray] = None) -> Sends:
        """Check bandwidth on the sends as stepped, then charge them.

        Under a fault plan a crashed sender never stepped, so it neither
        sends nor trips the check, and a crashing one is charged only
        its escaped sends (along ``arcs``, or all its arcs when None).
        """
        charged = fanout
        if self._plan is not None:
            fanout = charged = np.where(self._crashed[senders], 0, fanout)
            cut = self._crashing[senders]
            if cut.any():
                # The crashing owners' sends, narrowed to those escaping.
                sent = self._crashing[self.owners]
                if arcs is not None:
                    sent &= arcs
                slots = np.flatnonzero(sent)
                sent[slots] = self._plan.escape_mask(
                    self._round, self.owners[slots], self._neighbors[slots])
                charged = np.where(cut, self.arc_counts(sent)[senders], fanout)
        live = fanout > 0
        if self._congest:
            bad = live & (bits > self.bandwidth)
            if bad.any():
                i = int(np.argmax(bad))
                v = int(senders[i])
                target = int(self.indices[self.offsets[v]])
                raise BandwidthExceeded(
                    f"node {v} -> {target}: message of {int(bits[i])} bits "
                    f"exceeds CONGEST limit of {self.bandwidth} bits")
        live = charged > 0
        if not live.any():
            return Sends()
        return Sends(int(charged.sum()),
                     int((charged * bits).sum()),
                     int(bits[live].max()))

    # ------------------------------------------------------------------
    # Termination
    # ------------------------------------------------------------------
    def finish(self, nodes: np.ndarray, outputs: Sequence[Any]) -> None:
        """Terminate the listed nodes with their local outputs.

        ``outputs`` is aligned with ``nodes``; numpy arrays are converted
        to Python scalars so the final outputs dict is bit-identical to
        what node programs produce.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        if isinstance(outputs, np.ndarray):
            outputs = outputs.tolist()
        if self._crashed is not None:
            # A crashed node's output stays frozen.
            stepped = ~self._crashed[nodes]
            if not stepped.all():
                outputs = [out for out, keep in zip(outputs, stepped) if keep]
                nodes = nodes[stepped]
        self._finished[nodes] = True
        store = self._outputs
        if nodes is self._all_nodes and nodes.size == len(store):
            store[:] = outputs
        else:
            for v, out in zip(nodes.tolist(), outputs):
                store[v] = out

    def all_finished(self) -> bool:
        """Whether every node has terminated or crashed."""
        if self._crashed is None:
            return bool(self._finished.all())
        return bool((self._finished | self._crashed | self._crashing).all())


class ArrayProgram:
    """Base class for whole-round array programs.

    Subclasses override :meth:`init` (round 0: allocate state arrays,
    return the first round's :class:`Sends`) and :meth:`step` (one
    synchronous round for all nodes at once: aggregate what the previous
    round's senders broadcast — their state arrays are still intact —
    update state, report this round's sends). Return ``None`` when
    nothing was sent.
    """

    def init(self, ctx: ArrayContext) -> Optional[Sends]:
        """Round-0 setup; returns the sends delivered in round 1."""
        return None

    def step(self, ctx: ArrayContext, round_index: int) -> Optional[Sends]:
        """One whole-network round; returns the sends for the next round."""
        raise NotImplementedError


class ArrayEngine:
    """Executes an :class:`ArrayProgram`, one array pass per round.

    Parameters: the ``graph``; one whole-network ``program``; an
    optional randomness ``source``; ``model`` (``LOCAL`` or
    ``CONGEST``); ``n_override`` (claimed n, at least the real one, the
    "lie about n" of Theorems 4.3/4.6); ``bandwidth_bits`` (CONGEST
    limit, default :func:`~repro.sim.messages.congest_limit` of the
    claimed n); ``max_rounds`` (raise past it); ``uniform`` (deny access
    to n); and an optional pre-built ``csr`` (reuse it across many runs
    on one topology). ``graph`` may be ``None`` when ``csr`` is given —
    the million-node path, where only the frozen arrays exist.
    ``faults`` is an optional
    :class:`~repro.sim.batch.faults.RoundFaultPlan`; a plan with every
    rate at zero changes nothing. Programs that account sends with
    :meth:`ArrayContext.fanout` (color trials, the sinkless fix-up)
    refuse an active plan.
    """

    def __init__(self, graph: Optional[DistributedGraph],
                 program: ArrayProgram,
                 source: Optional[RandomSource] = None,
                 model: str = LOCAL,
                 n_override: Optional[int] = None,
                 bandwidth_bits: Optional[int] = None,
                 max_rounds: int = 100_000,
                 uniform: bool = False,
                 csr: Optional[CSRGraph] = None,
                 faults: Any = None):
        if model not in (LOCAL, CONGEST):
            raise ConfigurationError(f"unknown model {model!r}")
        csr = ensure_csr(graph, csr)
        if n_override is not None and n_override < csr.n:
            raise ConfigurationError(
                f"n_override ({n_override}) must be >= actual n ({csr.n}); "
                f"lying about n only inflates the network (Thm 4.3)"
            )
        self.graph = graph
        self.csr = csr
        self.model = model
        self.source = source
        self.program = program
        self.claimed_n = n_override if n_override is not None else csr.n
        if bandwidth_bits is not None:
            self.bandwidth = bandwidth_bits
        else:
            self.bandwidth = congest_limit(self.claimed_n)
        self.max_rounds = max_rounds
        active = faults is not None and faults.active
        self._ctx = ArrayContext(csr, self.claimed_n, source, model,
                                 self.bandwidth, uniform,
                                 faults if active else None)

    def run(self) -> AlgorithmResult:
        """Execute until every node finished; return outputs and report."""
        report = RunReport(model=self.model)
        before_bits = self.source.bits_consumed if self.source else 0
        ctx = self._ctx

        pending = self.program.init(ctx)
        messages = 0
        total_bits = 0
        max_bits = 0
        round_index = 0
        while not ctx.all_finished():
            round_index += 1
            if round_index > self.max_rounds:
                raise ModelViolation(
                    f"algorithm exceeded max_rounds={self.max_rounds}"
                )
            if pending is not None:
                messages += pending.messages
                total_bits += pending.total_bits
                if pending.max_message_bits > max_bits:
                    max_bits = pending.max_message_bits
            if ctx._plan is not None:
                ctx._begin_round(round_index)
            pending = self.program.step(ctx, round_index)

        report.rounds = round_index
        report.messages = messages
        report.total_bits = total_bits
        report.max_message_bits = max_bits
        if self.source is not None:
            report.randomness_bits = self.source.bits_consumed - before_bits
        outputs = dict(enumerate(ctx._outputs))
        return AlgorithmResult(outputs=outputs, report=report)
