"""One buffer sliced per PE, the index maps over it, and the checks
that make its supersteps race-free by construction.

Everything a superstep does to move data runs on flat integer index
arrays built here once per distribution, over **one array sliced per
PE** (:class:`SlicedBuffer`; PE ``i`` owns rows ``offsets[i] ..
offsets[i+1]``, the cumulative local dof counts):

* scatter is one ``np.take`` of the concatenated per-PE global rows
  into the x buffer;
* the compute phase reads the x buffer and writes each PE's product
  straight into its slice of the y buffer — one compiled call per
  range of PEs over the two whole buffers (:meth:`SuperstepLayout.buffers_of`),
  or per PE from a read-only view of its x slice;
* the exchange runs the schedule's pair table compiled into a flat
  reduction plan (:class:`~repro.smvp.exchange.ExchangePlan`) over
  that buffer, one compiled pass;
* gather is one ``np.take`` of every global dof's owner position.

So an unobserved superstep does no Python iteration over pairs, blocks
or PEs.

A time loop can skip scatter and gather altogether and keep its
vectors in this buffer form (:class:`~repro.fem.ExplicitTimeStepper`
does, through :meth:`~repro.smvp.executor.DistributedSMVP.multiply_resident`):
every copy of a dof then holds its owner's row, which is what
``scatter(gather(y))`` leaves, so after writing the owner rows of a new
vector it copies each one over the dof's other copies
(:meth:`SuperstepLayout.copy_from_owners`: ``copy_src`` →
``copy_dst``, one compiled pass, ``copy_rows`` in ``nodal.c``).

The per-PE maps (``dof_rows``, ``gather_src`` / ``gather_dst``) stay:
they define the flat ones.
Exchange and gather always run on the buffers: a per-PE array that is
not its buffer slice — one an observer replaced, or a caller's own —
is first copied into its slice (:meth:`SuperstepLayout.holding`).

Each PE's slice is its full local vector (3 dofs per local node, node
order), and every index is a local dof row.

**Race freedom by construction.**  :func:`check_layout` runs once, when
the layout is built, and proves what the superstep then does: the
slices are disjoint, gather reads every dof from its owner's slice, and
the compiled plan moves exactly the schedule's words between exactly
the schedule's PE pairs, and the owner-row copy writes every non-owner
row once, from its dof's owner row; the executor then checks that every PE's
prepared state has its slice's shape (:meth:`SuperstepLayout.check_states`),
which the range product indexes the slices by.  The index maps are
read-only from then on, so is every compute input (the range entry
takes x as ``const``), and :meth:`SuperstepLayout.holding` refuses
a replaced slot that is mis-shaped or aliased.  Each failure raises
:class:`ContractViolation` naming the PE and the phase.  No check runs
per superstep.

**Lifetime of the slices.**  The arrays :meth:`SuperstepLayout.scatter`,
:attr:`SuperstepLayout.x_buffer` and :meth:`SuperstepLayout.product_slices`
hand out are views of layout-owned buffers that persist across
supersteps: they are valid until the next call of the same method (or
the next superstep, ``multiply`` or ``multiply_resident``), which
overwrites them in place.  Copy what must outlive that.
"""

from __future__ import annotations

import math
import operator
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.smvp.exchange import ExchangePlan
from repro.smvp.schedule import CommSchedule, node_dofs
from repro.util.native import native


class ContractViolation(RuntimeError):
    """A layout's construction check or a superstep guard failed:
    ``pe`` and ``phase`` name the PE and the superstep phase at fault
    (``None`` where no one PE is)."""

    def __init__(
        self, message: str, pe: Optional[int] = None, phase: Optional[str] = None
    ) -> None:
        super().__init__(message)
        self.pe = pe
        self.phase = phase


def slice_offsets(sizes: Sequence[int]) -> np.ndarray:
    """Cumulative offsets (one more than ``sizes``) of a sliced buffer."""
    return np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))


class SlicedBuffer:
    """One float64 array and its consecutive per-slice views.

    ``whole`` has ``offsets[-1]`` rows (and ``tail`` trailing axes, the
    block width); ``views[i]`` is ``whole[offsets[i]:offsets[i+1]]``
    and ``frozen[i]`` its read-only twin, built with it.
    """

    def __init__(self, offsets: np.ndarray, tail: Tuple[int, ...]) -> None:
        self.offsets = offsets
        self.whole = np.empty((int(offsets[-1]),) + tuple(tail))
        frozen = self.whole.view()
        frozen.flags.writeable = False
        bounds = list(zip(offsets[:-1], offsets[1:]))
        self.views = tuple(self.whole[lo:hi] for lo, hi in bounds)
        self.frozen = tuple(frozen[lo:hi] for lo, hi in bounds)

    @classmethod
    def shaped(
        cls,
        current: Optional["SlicedBuffer"],
        offsets: np.ndarray,
        tail: Tuple[int, ...],
    ) -> "SlicedBuffer":
        """``current`` when it already has trailing shape ``tail`` (the
        warm buffer of the previous superstep), a new buffer otherwise."""
        if current is not None and current.whole.shape[1:] == tuple(tail):
            return current
        return cls(offsets, tail)


class SuperstepLayout:
    """Scatter rows, the exchange plan, gather maps, the owner-row copy
    maps and the persistent per-PE-sliced buffers of one
    :class:`CommSchedule`'s distribution, checked by
    :func:`check_layout` when built."""

    def __init__(self, schedule: CommSchedule) -> None:
        self.schedule = schedule
        self.distribution = distribution = schedule.distribution
        self.local_nodes: List[np.ndarray] = [
            distribution.local_nodes(p) for p in range(distribution.num_parts)
        ]
        self.num_rows = 3 * distribution.mesh.num_nodes

        # Per-PE flat global dof rows, and their concatenation: scatter
        # is one np.take through ``rows_cat``, vectors and blocks alike.
        self.dof_rows: List[np.ndarray] = [
            node_dofs(n) for n in self.local_nodes
        ]
        self.offsets = slice_offsets([rows.size for rows in self.dof_rows])
        self.rows_cat = np.concatenate(self.dof_rows)

        # Per-PE owned-dof index arrays, and ``owner_pos``: the buffer
        # position of every global dof's owned copy.  Ownership
        # partitions the nodes, so the destinations cover every global
        # dof exactly once.
        owner = node_owners(distribution)
        self.gather_src: List[np.ndarray] = []
        self.gather_dst: List[np.ndarray] = []
        self.owner_pos = np.empty(self.num_rows, dtype=np.int64)
        for part, nodes in enumerate(self.local_nodes):
            mine = np.flatnonzero(owner[nodes] == part)
            self.gather_src.append(node_dofs(mine))
            self.gather_dst.append(node_dofs(nodes[mine]))
            self.owner_pos[self.gather_dst[part]] = (
                self.offsets[part] + self.gather_src[part]
            )

        # Every non-owner row (``copy_dst``, in buffer order) and its
        # dof's owner row (``copy_src``): what a vector kept in buffer
        # form copies after writing its owner rows.
        is_copy = np.ones(self.rows_cat.size, dtype=bool)
        is_copy[self.owner_pos] = False
        self.copy_dst = np.flatnonzero(is_copy)
        self.copy_src = self.owner_pos[self.rows_cat[self.copy_dst]]
        self._copy_positions = None  # their cffi pointers, made on first use

        # The schedule's pair table compiled into a flat reduction plan
        # over the y buffer (its index arrays are read-only).
        self.plan = ExchangePlan(schedule.pairs, self.offsets)
        check_layout(self)
        for index in (
            self.offsets, self.rows_cat, self.owner_pos,
            self.copy_dst, self.copy_src,
        ):
            index.flags.writeable = False

        # Persistent buffers (lazily shaped to the rhs width): fresh
        # per-call arrays pay first-touch page faults every superstep.
        self._x: Optional[SlicedBuffer] = None
        self._y: Optional[SlicedBuffer] = None

    # -- the data movement itself ------------------------------------------

    def check_x(self, x_global: np.ndarray) -> np.ndarray:
        """The input as a float64 (3n,) vector or (3n, r) block; complex
        input is refused rather than cut to its real part."""
        if np.iscomplexobj(x_global):
            raise ValueError("x must be real, not complex")
        x_global = np.asarray(x_global, dtype=np.float64)
        if x_global.ndim == 2:
            if x_global.shape[0] != self.num_rows:
                raise ValueError("X must have 3 * num_nodes rows")
        elif x_global.shape != (self.num_rows,):
            raise ValueError("x must have length 3 * num_nodes")
        return x_global

    def out_buffer(
        self, tail: Tuple[int, ...], out: Optional[np.ndarray]
    ) -> np.ndarray:
        """The validated (or freshly allocated) global output array."""
        shape = (self.num_rows,) + tuple(tail)
        if out is None:
            return np.empty(shape, dtype=np.float64)
        if out.shape != shape or out.dtype != np.float64:
            raise ValueError(f"out must be a float64 array of shape {shape}")
        return out

    def scatter(self, x_global: np.ndarray) -> List[np.ndarray]:
        """Row-select every PE's local array out of a validated input:
        one take into the x buffer, returned as its writable per-PE
        slices (see the module docstring for their lifetime)."""
        self._x = SlicedBuffer.shaped(self._x, self.offsets, x_global.shape[1:])
        self.scatter_into(x_global, self._x.whole)
        return list(self._x.views)

    def scatter_into(self, x_global: np.ndarray, whole: np.ndarray) -> np.ndarray:
        """Every PE's rows of a validated input into ``whole``, an
        array of this layout's rows (one take).  ``mode="clip"`` skips
        the per-element bounds check — the row map is in-bounds by
        construction — measurably faster at r=16."""
        return np.take(x_global, self.rows_cat, axis=0, out=whole, mode="clip")

    @property
    def x_buffer(self) -> SlicedBuffer:
        """The buffer the last :meth:`scatter` wrote; the compute phase
        reads its read-only twins (``frozen``), so a product that writes
        its input raises."""
        return self._x

    def product_slices(self, tail: Tuple[int, ...]) -> List[np.ndarray]:
        """The y buffer's per-PE slices for products of width ``tail``."""
        self._y = SlicedBuffer.shaped(self._y, self.offsets, tail)
        return list(self._y.views)

    def buffers_of(
        self, x_locals: Sequence[np.ndarray], x: Optional[SlicedBuffer] = None
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """The whole x and y buffers when ``x_locals`` are the slices
        of ``x`` (default: the last :meth:`scatter`'s buffer) or their
        read-only twins — what a range product reads and writes;
        ``None`` for anyone else's arrays."""
        x, y = (self._x if x is None else x), self._y
        if x is None or y is None or len(x_locals) != len(x.views):
            return None
        if x_locals is x.frozen or all(map(operator.is_, x_locals, x.views)):
            return x.whole, y.whole
        return None

    def check_states(self, states: Sequence) -> None:
        """Every PE's prepared state has its slice's shape ``(n_i,
        n_i)`` — a range product indexes each slice by its state's row
        count — else :class:`ContractViolation` names the PE."""
        for pe, (state, n) in enumerate(zip(states, np.diff(self.offsets))):
            if tuple(state.shape) != (n, n):
                raise ContractViolation(
                    f"PE {pe}'s state has shape {tuple(state.shape)}; its "
                    f"slice has {int(n)} rows",
                    pe=pe,
                    phase="compute",
                )

    def holding(
        self, partials: List[np.ndarray], phase: str = "compute"
    ) -> np.ndarray:
        """The whole y buffer holding ``partials``: every slot that is
        not its own slice is copied in and the slot rebound to the
        slice.

        A replaced slot must have exactly its slice's shape (a
        narrower one would broadcast) and share no memory with another
        slot or slice (the copies would race); otherwise
        :class:`ContractViolation` names the PE and the ``phase`` that
        produced the slot."""
        tail = partials[0].shape[1:]
        buf = self._y = SlicedBuffer.shaped(self._y, self.offsets, tail)
        views = buf.views
        if len(partials) == len(views) and all(map(operator.is_, partials, views)):
            return buf.whole  # every slot is its own slice
        for pe, own in enumerate(views):
            slot = partials[pe]
            if slot is own:
                continue
            if slot.shape != own.shape:
                raise ContractViolation(
                    f"PE {pe}'s {phase} output has shape {slot.shape}; "
                    f"its slice has shape {own.shape}",
                    pe=pe,
                    phase=phase,
                )
            for other, arrays in enumerate(zip(partials, views)):
                if other != pe and any(
                    np.shares_memory(slot, a) for a in arrays
                ):
                    raise ContractViolation(
                        f"PE {pe}'s {phase} output shares memory with "
                        f"PE {other}'s",
                        pe=pe,
                        phase=phase,
                    )
            own[...] = slot
            partials[pe] = own
        return buf.whole

    def gather(self, buffer: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write every owned dof of the y buffer into ``out`` in one
        take."""
        return np.take(buffer, self.owner_pos, axis=0, out=out, mode="clip")

    def copy_from_owners(self, whole: np.ndarray) -> None:
        """Every non-owner row of ``whole`` (a C-contiguous float64
        array of this layout's rows) takes its dof's owner row, so every
        copy of a dof holds the owner's bits — ``scatter(gather(whole))``
        in place, reading and writing only the shared rows.  One
        compiled pass (``copy_rows`` in ``nodal.c``), the bits of
        ``whole[copy_dst] = whole[copy_src]``."""
        ffi, lib = native()
        if self._copy_positions is None:
            self._copy_positions = (
                ffi.from_buffer("int64_t[]", self.copy_src),
                ffi.from_buffer("int64_t[]", self.copy_dst),
            )
        lib.copy_rows(
            self.copy_dst.size,
            math.prod(whole.shape[1:]),
            *self._copy_positions,
            ffi.from_buffer("double[]", whole, require_writable=True),
        )


def node_owners(distribution) -> np.ndarray:
    """Every node's owner: the lowest PE it resides on."""
    csr = distribution.node_parts.tocsr()
    if np.any(np.diff(csr.indptr) == 0):
        raise ValueError("mesh has nodes unused by any element; compact it first")
    return csr.indices[csr.indptr[:-1]].astype(np.int64)


def check_layout(layout: SuperstepLayout) -> None:
    """The construction checks: what a superstep over ``layout`` does,
    proved once, vectorized, before any superstep runs.

    * the per-PE slices tile the buffer in order, so they are disjoint;
    * ``owner_pos`` reads every global dof from the slice of its owner
      (:func:`node_owners`), at the row holding that dof;
    * the owner rows and ``copy_dst`` tile the buffer once, and
      ``copy_src`` is the owner row of each ``copy_dst`` row's dof;
    * the plan's rounds tile its words once, in order, and no round
      sums two words into one position (``buffer[dst] += ...`` would
      keep one of them);
    * every word of the plan is read from one PE's slice and summed
      into another's copy of the same dof, no copy is summed twice into
      the same position, and every copy receives one word per other
      copy — so each copy sums every other copy exactly once;
    * no PE pair repeats in the pair table, the per-PE send counts the
      plan reports are the words it moves, and its (sender, receiver)
      word matrix is the schedule's.

    Raises :class:`ContractViolation` naming the PE and the phase.
    """
    offsets, rows_cat = layout.offsets, layout.rows_cat
    sizes = np.diff(offsets)
    num_parts = sizes.size
    if offsets[0] != 0 or offsets[-1] != rows_cat.size or np.any(sizes < 0):
        pe = int(np.argmax(sizes < 0)) if np.any(sizes < 0) else 0
        raise ContractViolation(
            f"the per-PE slices do not tile the buffer: PE {pe}'s slice "
            f"is rows {int(offsets[pe])}..{int(offsets[pe + 1])} of "
            f"{rows_cat.size}",
            pe=pe,
            phase="compute",
        )
    pe_at = np.repeat(np.arange(num_parts), sizes)  # PE of every row
    _check_gather(layout, pe_at)
    _check_copies(layout, pe_at)
    _check_plan(layout, pe_at)


def _check_gather(layout: SuperstepLayout, pe_at: np.ndarray) -> None:
    pos = layout.owner_pos
    if np.any((pos < 0) | (pos >= pe_at.size)):
        raise ContractViolation(
            "gather reads outside the buffer", phase="gather"
        )
    owner = np.repeat(node_owners(layout.distribution), 3)
    wrong = (pe_at[pos] != owner) | (
        layout.rows_cat[pos] != np.arange(layout.num_rows)
    )
    if np.any(wrong):
        dof = int(np.argmax(wrong))
        pe = int(pe_at[pos[dof]])
        raise ContractViolation(
            f"gather reads global dof {dof} from row {int(pos[dof])} of "
            f"the buffer, PE {pe}'s copy of global dof "
            f"{int(layout.rows_cat[pos[dof]])}; the dof's owner is PE "
            f"{int(owner[dof])}",
            pe=pe,
            phase="gather",
        )


def _check_copies(layout: SuperstepLayout, pe_at: np.ndarray) -> None:
    dst, src, rows_cat = layout.copy_dst, layout.copy_src, layout.rows_cat
    if dst.shape != src.shape or np.any(
        (dst < 0) | (dst >= pe_at.size) | (src < 0) | (src >= pe_at.size)
    ):
        raise ContractViolation(
            "the owner-row copy reads or writes outside the buffer",
            phase="gather",
        )
    written = np.bincount(
        np.concatenate((layout.owner_pos, dst)), minlength=pe_at.size
    )
    if np.any(written != 1):
        row = int(np.argmax(written != 1))
        pe = int(pe_at[row])
        raise ContractViolation(
            f"the owner rows and the owner-row copy do not tile the "
            f"buffer once: PE {pe}'s copy of global dof "
            f"{int(rows_cat[row])} (row {row}) is written "
            f"{int(written[row])} times",
            pe=pe,
            phase="gather",
        )
    wrong = src != layout.owner_pos[rows_cat[dst]]
    if np.any(wrong):
        k = int(np.argmax(wrong))
        pe = int(pe_at[src[k]])
        raise ContractViolation(
            f"the owner-row copy writes PE {int(pe_at[dst[k]])}'s copy of "
            f"global dof {int(rows_cat[dst[k]])} from row {int(src[k])}, "
            f"PE {pe}'s copy of global dof {int(rows_cat[src[k]])}; the "
            f"dof's owner row is {int(layout.owner_pos[rows_cat[dst[k]]])}",
            pe=pe,
            phase="gather",
        )


def _check_plan(layout: SuperstepLayout, pe_at: np.ndarray) -> None:
    plan, rows_cat = layout.plan, layout.rows_cat
    num_parts = len(layout.offsets) - 1
    ends = np.array([(a, b) for a, b, _, _ in plan.pairs], dtype=np.int64)
    ends = np.sort(ends.reshape(-1, 2), axis=1)
    key = ends[:, 0] * num_parts + ends[:, 1]
    ordered = np.sort(key)
    repeats = np.concatenate(
        (key[ends[:, 0] == ends[:, 1]], ordered[1:][ordered[1:] == ordered[:-1]])
    )
    if repeats.size:
        a, b = divmod(int(repeats[0]), num_parts)
        raise ContractViolation(
            f"the pair table pairs PE {a} with PE {b} twice"
            if a != b
            else f"the pair table pairs PE {a} with itself",
            pe=a,
            phase="exchange",
        )
    src, dst = plan.send_pos, plan.recv_pos
    if src.size and (
        min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= pe_at.size
    ):
        raise ContractViolation(
            "the exchange plan reads or writes outside the buffer",
            phase="exchange",
        )
    _check_rounds(layout, pe_at)
    sender, receiver = pe_at[src], pe_at[dst]
    stray = (sender == receiver) | (rows_cat[src] != rows_cat[dst])
    if np.any(stray):
        w = int(np.argmax(stray))
        raise ContractViolation(
            f"an exchange word reads global dof {int(rows_cat[src[w]])} "
            f"from PE {int(sender[w])}'s slice and sums it into global "
            f"dof {int(rows_cat[dst[w]])} on PE {int(receiver[w])}",
            pe=int(sender[w]),
            phase="exchange",
        )
    traffic = np.bincount(
        sender * num_parts + receiver, minlength=num_parts * num_parts
    ).reshape(num_parts, num_parts)
    want = layout.schedule.word_matrix
    if not np.array_equal(traffic, want):
        i, j = (int(v) for v in np.argwhere(traffic != want)[0])
        raise ContractViolation(
            f"the exchange plan sends {int(traffic[i, j])} words from PE "
            f"{i} to PE {j}; the schedule sends {int(want[i, j])}",
            pe=i,
            phase="exchange",
        )
    claimed = (plan.words_sent, plan.blocks_sent)
    moved = (traffic.sum(axis=1), (traffic > 0).sum(axis=1))
    for counts, actual in zip(claimed, moved):
        if not np.array_equal(counts, actual):
            pe = int(np.argmax(counts != actual))
            raise ContractViolation(
                f"the exchange plan reports PE {pe}'s traffic as "
                f"{int(counts[pe])}; it moves {int(actual[pe])}",
                pe=pe,
                phase="exchange",
            )
    key = np.sort(dst * num_parts + sender)
    twice = key[1:][key[1:] == key[:-1]]
    if twice.size:
        row, pe = divmod(int(twice[0]), num_parts)
        raise ContractViolation(
            f"PE {pe}'s copy of global dof {int(rows_cat[row])} is summed "
            f"twice into PE {int(pe_at[row])}'s",
            pe=pe,
            phase="exchange",
        )
    copies = np.bincount(rows_cat, minlength=layout.num_rows)[rows_cat]
    short = np.bincount(dst, minlength=pe_at.size) != copies - 1
    if np.any(short):
        row = int(np.argmax(short))
        raise ContractViolation(
            f"PE {int(pe_at[row])}'s copy of global dof "
            f"{int(rows_cat[row])} is summed with "
            f"{int(np.count_nonzero(dst == row))} words; it has "
            f"{int(copies[row]) - 1} other copies",
            pe=int(pe_at[row]),
            phase="exchange",
        )


def _check_rounds(layout: SuperstepLayout, pe_at: np.ndarray) -> None:
    plan = layout.plan
    recv, rounds = plan.recv_pos, plan.rounds
    lo, hi, size = np.array(
        [(lo, hi, len(dst)) for dst, lo, hi in rounds], dtype=np.int64
    ).reshape(-1, 3).T
    start = np.concatenate(([0], hi))[:-1]
    torn = (lo != start) | (hi - lo != size)
    covered = int(hi[-1]) if rounds else 0
    if np.any(torn) or covered != plan.send_pos.size:
        word = int(start[np.argmax(torn)]) if np.any(torn) else covered
        pe = int(pe_at[recv[word]]) if word < recv.size else None
        raise ContractViolation(
            f"the exchange plan's rounds do not tile its "
            f"{plan.send_pos.size} words once: they break at word {word}"
            + ("" if pe is None else f", summed into PE {pe}"),
            pe=pe,
            phase="exchange",
        )
    # Each round writes its word numbers at its destinations: a row
    # named twice keeps one of them.  One pass per round, O(words).
    mark = np.empty(pe_at.size, dtype=np.int64)
    for k, (dst, lo, hi) in enumerate(rounds):
        moved = dst != recv[lo:hi]
        if np.any(moved):
            word = lo + int(np.argmax(moved))
            pe = int(pe_at[recv[word]])
            raise ContractViolation(
                f"round {k} of the exchange plan sums word {word} into row "
                f"{int(dst[word - lo])}, not into PE {pe}'s row "
                f"{int(recv[word])}",
                pe=pe,
                phase="exchange",
            )
        words = np.arange(lo, hi)
        mark[dst] = words
        lost = mark[dst] != words
        if np.any(lost):
            row = int(dst[np.argmax(lost)])
            pe = int(pe_at[row])
            raise ContractViolation(
                f"round {k} of the exchange plan sums two words into PE "
                f"{pe}'s copy of global dof {int(layout.rows_cat[row])}",
                pe=pe,
                phase="exchange",
            )
