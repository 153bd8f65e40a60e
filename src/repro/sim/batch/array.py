"""Array-native round engine: whole-round numpy programs over CSR.

:class:`~repro.sim.batch.fast_engine.FastEngine` removed the reference
engine's allocation churn, but it still pays one Python ``step()`` call,
one outbox dict, and one inbox dict per node per round. Many of the
paper's node programs (Luby MIS, the FloodMin flooding of Lemma 3.2, the
BFS cluster-growing of Theorem 4.2) are data-parallel across nodes: each
round is a gather of neighbor state plus a per-node reduction. This
module executes such programs as *whole-round array operations* over the
frozen :class:`~repro.sim.batch.csr.CSRGraph` — neighbor aggregation via
CSR segment reductions, broadcasts as column gathers — eliminating
per-node Python dispatch entirely.

The contract: an :class:`ArrayProgram`'s ``init``/``step`` operate on
numpy state arrays for **all** nodes at once and report what was sent
through the :class:`ArrayContext` accounting helpers. The
:class:`ArrayEngine` drives the same round structure as FastEngine
(init, then deliver + step until every node finished) and produces
**bit-identical outputs and RunReports** — rounds, messages, total/max
bits, randomness bits — to FastEngine running the equivalent
:class:`~repro.sim.node.NodeProgram` (see ``tests/test_array_engine.py``
for the property-style parity sweep).

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
into ``(src, dst)`` arcs, along each sender's own list as FastEngine
delivers a broadcast, and scatters them with ``np.minimum.at`` into
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


def array_uids_fit(csr: CSRGraph) -> bool:
    """Whether ArrayEngine can hold ``csr``'s UIDs: all in [0, 2**62).

    The model allows identifiers of any width; ArrayEngine keeps them
    in ``int64`` with headroom for its sentinels. The default ``random``
    ID scheme draws from {1..n^3}, which passes 2**62 from about 1.66M
    nodes on.
    """
    try:
        uids = csr.uid_array
    except ConfigurationError:
        return False  # wider than int64
    return not uids.size or (int(uids.min()) >= 0
                             and int(uids.max()) < 1 << 62)


def resolve_engine(engine: Optional[str], faults: Any,
                   graph: Optional[DistributedGraph],
                   csr: Optional[CSRGraph]) -> str:
    """The engine a primitive runs on: ``"fast"`` or ``"array"``.

    ``engine=None`` follows the run. An active
    :class:`~repro.sim.batch.faults.RoundFaultPlan` needs FastEngine's
    per-message delivery hook, and UIDs outside ArrayEngine's range
    (:func:`array_uids_fit`) need its arbitrary-width identifiers;
    every other run takes the bit-identical, faster ArrayEngine.
    ``engine="array"`` pins ArrayEngine and is refused under an active
    plan.
    """
    active = faults is not None and faults.active
    if engine is None:
        if active or not array_uids_fit(ensure_csr(graph, csr)):
            return "fast"
        return "array"
    if engine != "array":
        raise ConfigurationError(
            f"unknown engine {engine!r}; pin 'array' or leave engine unset")
    if active:
        raise ConfigurationError(
            "fault injection needs FastEngine (leave engine unset); the "
            "array engine has no per-message delivery hook")
    return engine


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
    CONGEST limits are enforced, matching FastEngine's resolve step) and
    folded into the report by the engine at *delivery* time one round
    later — so messages queued by nodes whose run ends before the next
    round are dropped uncounted, exactly as on FastEngine.
    """

    __slots__ = ("messages", "total_bits", "max_message_bits")

    def __init__(self, messages: int = 0, total_bits: int = 0,
                 max_message_bits: int = 0):
        self.messages = messages
        self.total_bits = total_bits
        self.max_message_bits = max_message_bits


class ArrayContext:
    """Whole-network state the engine shares with an array program.

    The per-node :class:`~repro.sim.node.NodeContext` surface, batched:
    UIDs and degrees as arrays, the claimed network size (``n``, denied
    under ``uniform``), cursor-metered randomness drawn per node from the
    same streams node programs use, plus the two things only an engine
    may do — account sends and finish nodes.
    """

    def __init__(self, csr: CSRGraph, claimed_n: int,
                 source: Optional[RandomSource], model: str, bandwidth: int,
                 uniform: bool):
        self.csr = csr
        self.size = csr.n
        # np.asarray strips memmap subclasses (a mmap-loaded CSR) to
        # plain ndarray views, so op results are plain arrays too.
        self.offsets = np.asarray(csr.offsets, dtype=np.int64)
        self.indices = np.asarray(csr.indices, dtype=np.int64)
        self.degrees = csr.degrees
        self.uids = csr.uid_array
        #: message_bits of each node's UID, precomputed once.
        self.uid_message_bits = fast_int_message_bits(self.uids)
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

    # ------------------------------------------------------------------
    # Knowledge of n (mirrors NodeContext)
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
    def gather(self, node_values: np.ndarray) -> np.ndarray:
        """Per-edge view of per-node values: each node's broadcast as a
        column gather along the CSR indices."""
        return np.asarray(node_values)[self.indices]

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

    def neighbor_max(self, edge_values: np.ndarray, empty=-1) -> np.ndarray:
        """Per-node max over its incident edge values (``empty`` if none)."""
        return self.neighbor_reduce(edge_values, np.maximum, empty)

    def neighbor_sum(self, edge_values: np.ndarray) -> np.ndarray:
        """Per-node sum over its incident edge values (0 if none)."""
        return self.neighbor_reduce(
            np.asarray(edge_values, dtype=np.int64), np.add, 0)

    # ------------------------------------------------------------------
    # Fused aggregation: gather, mask and reduce in the edge buffers
    # ------------------------------------------------------------------
    def neighbor_count(self, node_mask: np.ndarray) -> np.ndarray:
        """Per-node count of neighbors where ``node_mask`` holds."""
        mask = self._take(np.asarray(node_mask), self._mask("mask"))
        pad = self._pad("a")
        pad[:] = mask
        return self._reduce(np.add, pad, 0)

    def gather_neighbor_min(self, node_values: np.ndarray,
                            empty=INT64_MAX) -> np.ndarray:
        """Per-node min of neighbor values (``empty`` if no neighbors)."""
        pad = self._take(np.asarray(node_values), self._pad("a"))
        return self._reduce(np.minimum, pad, empty)

    def lex_neighbor_max2(self, primary: np.ndarray, secondary: np.ndarray,
                          node_mask: np.ndarray, empty=-1):
        """Per-node ``(max primary, max secondary among the primary
        ties)`` over masked neighbors; ``(empty, empty)`` where none.
        Masked values must exceed ``empty``."""
        mask = self._take(np.asarray(node_mask), self._mask("mask"))
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
        sender's own CSR list (the direction FastEngine delivers a
        broadcast): one ``repeat`` of the segment starts plus an
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
        only; a dense one folds the JDS edge buffers."""
        senders = np.flatnonzero(node_mask)
        if int(self.degrees[senders].sum()) * FRONTIER_DIV < self._edges:
            return self._adopt_min3_frontier(primary, secondary, senders,
                                             bias, empty)
        mask = self._take(np.asarray(node_mask), self._mask("mask"))
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
    # Randomness (cursor-based, same streams as NodeContext)
    # ------------------------------------------------------------------
    def rand_uniform_each(self, nodes: np.ndarray, bound: int) -> np.ndarray:
        """One fresh uniform draw in ``[0, bound)`` per listed node.

        Each node draws from its own stream at its own cursor via the
        block-mode bulk sampler, consuming exactly the bits that
        per-node ``NodeContext.rand_uniform`` calls would.
        """
        if self._source is None:
            raise ModelViolation(
                "array program requested randomness but the run is "
                "deterministic")
        nodes = np.asarray(nodes, dtype=np.int64)
        # Python ints, like NodeContext's ctx.v: as stream and ledger
        # keys they hash faster than numpy scalars.
        values, used = self._source.uniform_int_each(
            nodes.tolist(), bound, self._cursors[nodes])
        self._cursors[nodes] += used
        return values

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

    def standing_broadcast(self, values: np.ndarray,
                           changed: Optional[np.ndarray] = None) -> Sends:
        """Account every node broadcasting its integer ``values[v]``.

        The same :class:`Sends` as ``broadcast(all_nodes,
        int_message_bits(values))``, but the payload widths stand between
        calls: the first call (``changed=None``) measures every node, and
        each later one re-measures only ``changed``, the nodes whose value
        moved since the previous call. Widths are kept as ``uint8`` (0
        where a node has no neighbor, so an isolated sender never sets
        the max) beside their degree-weighted total, which moves by
        ``dot(deg[changed], new - old)``.
        """
        values = np.asarray(values)
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
        ``bits[i]``-sized payload to ``counts[i]`` of its neighbors."""
        senders = np.asarray(senders, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        bits = np.broadcast_to(np.asarray(bits, dtype=np.int64), senders.shape)
        return self._account(senders, counts, bits)

    def _account(self, senders: np.ndarray, fanout: np.ndarray,
                 bits: np.ndarray) -> Sends:
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
        if not live.any():
            return Sends()
        return Sends(int(fanout.sum()),
                     int((fanout * bits).sum()),
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
        self._finished[nodes] = True
        if isinstance(outputs, np.ndarray):
            outputs = outputs.tolist()
        store = self._outputs
        if nodes is self._all_nodes and nodes.size == len(store):
            store[:] = outputs
        else:
            for v, out in zip(nodes.tolist(), outputs):
                store[v] = out

    def all_finished(self) -> bool:
        """Whether every node has terminated."""
        return bool(self._finished.all())


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

    Accepts the same parameters as FastEngine (graph, randomness source,
    LOCAL/CONGEST model, ``n_override``, ``bandwidth_bits``,
    ``max_rounds``, ``uniform``, optional pre-built ``csr``) but takes
    one whole-network program instead of a per-node factory. ``graph``
    may be ``None`` when ``csr`` is given — the million-node path, where
    only the frozen arrays exist.
    """

    def __init__(self, graph: Optional[DistributedGraph],
                 program: ArrayProgram,
                 source: Optional[RandomSource] = None,
                 model: str = LOCAL,
                 n_override: Optional[int] = None,
                 bandwidth_bits: Optional[int] = None,
                 max_rounds: int = 100_000,
                 uniform: bool = False,
                 csr: Optional[CSRGraph] = None):
        if model not in (LOCAL, CONGEST):
            raise ConfigurationError(f"unknown model {model!r}")
        csr = ensure_csr(graph, csr)
        if n_override is not None and n_override < csr.n:
            raise ConfigurationError(
                f"n_override ({n_override}) must be >= actual n ({csr.n}); "
                f"lying about n only inflates the network (Thm 4.3)"
            )
        if not array_uids_fit(csr):
            raise ConfigurationError(
                "ArrayEngine requires non-negative machine-word UIDs "
                "(< 2**62); run FastEngine for wider identifiers")
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
        self._ctx = ArrayContext(csr, self.claimed_n, source, model,
                                 self.bandwidth, uniform)

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
            pending = self.program.step(ctx, round_index)

        report.rounds = round_index
        report.messages = messages
        report.total_bits = total_bits
        report.max_message_bits = max_bits
        if self.source is not None:
            report.randomness_bits = self.source.bits_consumed - before_bits
        outputs = dict(enumerate(ctx._outputs))
        return AlgorithmResult(outputs=outputs, report=report)
