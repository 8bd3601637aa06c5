"""Knowledge state: the ``REQ``, ``AL``, ``PAL`` and ``BUF`` variables of §4.1.

For an entity ``E_i`` in a cluster of ``n``:

* ``REQ[j]`` — sequence number of the PDU ``E_i`` expects to receive next
  from ``E_j`` (so ``E_i`` has accepted every PDU from ``j`` below it);
* ``AL[j][k]`` — what ``E_i`` knows ``E_j`` expects next from ``E_k``
  (learned from the ``ACK`` vectors ``j`` piggybacks);
* ``PAL[j][k]`` — the sequence number below which ``E_i`` knows ``E_j`` has
  *pre-acknowledged* PDUs from ``E_k``;
* ``BUF[j]`` — free buffer units at ``E_j`` as last advertised.

The derived minima drive the two-phase machinery:

* ``minAL(k) = min_j AL[j][k]`` — every entity has accepted all PDUs from
  ``k`` below this, so those PDUs satisfy the **PACK condition**;
* ``minPAL(k) = min_j PAL[j][k]`` — every entity has pre-acknowledged all
  PDUs from ``k`` below this, so those satisfy the **ACK condition**;
* ``minBUF = min_j BUF[j]`` — feeds the flow condition.

All updates are element-wise max: knowledge is monotone, and folding
possibly-stale information (duplicates, reordered control PDUs) with max is
always sound.

Storage layout
--------------

``AL`` and ``PAL`` live in one preallocated flat ``array('q')`` each —
``n*n`` machine words, row ``j`` at byte-contiguous offset ``j*n`` — instead
of a Python list of lists.  A merge walks one row with plain integer
indexing and no per-row list object in sight, which is what flattens the
per-PDU cost curve across cluster sizes (Figure 8's complexity argument
made concrete).  Membership is compiled into *frozen base-offset lists*
(``_live_bases`` for non-excluded rows, ``_present_bases`` for non-evicted
ones) that column-minimum recomputes iterate directly; ``set_excluded`` /
``set_evicted`` rebuild those lists and the caches once per membership
event rather than paying per-column bookkeeping on the hot path.

The column minima are cached and maintained incrementally so that the
per-PDU protocol work stays ``O(n)``.  Each cached minimum is paired with a
count of the live rows holding it: a merge touches one row (``O(n)``) and
only recomputes a column minimum when the cell it raised was that column's
*last* holder of the minimum.

The ``al`` / ``pal`` attributes remain live, sequence-shaped views over the
flat arrays (``state.al[j][k]``, ``state.al[j] == [...]``, iteration and
``row[:]`` all work), so assertions and debugging read exactly as they did
when the matrices were lists of lists.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Sequence, Tuple, Union

#: Buffer knowledge before any advertisement has been seen.  Optimistic so a
#: cold-started cluster is not flow-blocked before the first exchange.  The
#: sentinel never escapes into gauges: ``min_buf_known()`` reports whether
#: ``min_buf()`` is real knowledge or this cold-start placeholder.
INITIAL_BUF = 10 ** 9


class MergeResult:
    """Outcome of one knowledge merge.

    ``changed`` says whether *any* cell of the merged row advanced (truthiness
    mirrors it, so "did we learn anything" call sites read naturally);
    ``dirty`` lists the columns whose cached **minimum** rose.  The dirty set
    is what makes the PACK/ACK pipeline event-driven: a PACK or ACK condition
    can only newly hold for a source whose column minimum moved, so consumers
    rescan exactly those sources instead of all ``n`` to a fixpoint.
    """

    __slots__ = ("changed", "dirty")

    def __init__(self, changed: bool, dirty: Tuple[int, ...]):
        self.changed = changed
        self.dirty = dirty

    def __bool__(self) -> bool:
        return self.changed

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"MergeResult(changed={self.changed}, dirty={self.dirty})"


#: Shared no-op result: most merges on a converged cluster change nothing.
UNCHANGED = MergeResult(False, ())


class _RowView:
    """Live, read-only view of one matrix row inside the flat array."""

    __slots__ = ("_data", "_base", "_n")

    def __init__(self, data: array, base: int, n: int):
        self._data = data
        self._base = base
        self._n = n

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, k: Union[int, slice]):
        if isinstance(k, slice):
            return list(self._data[self._base:self._base + self._n])[k]
        if k < 0:
            k += self._n
        if not 0 <= k < self._n:
            raise IndexError(f"column {k} outside row of {self._n}")
        return self._data[self._base + k]

    def __iter__(self):
        data, base = self._data, self._base
        for k in range(self._n):
            yield data[base + k]

    def __eq__(self, other) -> bool:
        if isinstance(other, _RowView):
            return list(self) == list(other)
        if isinstance(other, (list, tuple)):
            return len(other) == self._n and list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return repr(list(self))


class _MatrixView:
    """Live view of a flat ``n*n`` array as a sequence of ``n`` rows."""

    __slots__ = ("_rows", "_n")

    def __init__(self, data: array, n: int):
        self._n = n
        self._rows = [_RowView(data, j * n, n) for j in range(n)]

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, j: Union[int, slice]):
        return self._rows[j]

    def __iter__(self):
        return iter(self._rows)

    def __eq__(self, other) -> bool:
        if isinstance(other, _MatrixView):
            other = other._rows
        if isinstance(other, (list, tuple)):
            return len(other) == self._n and all(
                row == list(cells) for row, cells in zip(self._rows, other)
            )
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return repr([list(row) for row in self._rows])


class KnowledgeState:
    """Mutable knowledge matrices of one entity.

    ``index`` is the owning entity's own position; its own rows are kept in
    sync when it sends and self-accepts PDUs.

    The matrices are sized to the **membership view**, not any global
    roster: ``n`` is the number of entities this state tracks, and every
    row/column index is view-local.  ``roster`` optionally names the global
    identity behind each local row — a hierarchical subgroup of a sharded
    cluster (docs/PROTOCOL.md §18) passes the global ids of its members, so
    a view-local state still knows who it is talking about.  The mapping is
    pure bookkeeping: the hot-path merge/minima machinery never consults
    it, so a view-local state costs exactly what a same-sized flat state
    costs.
    """

    def __init__(
        self,
        n: int,
        index: int,
        roster: Optional[Sequence[int]] = None,
    ):
        if n < 1:
            raise ValueError(f"cluster size must be >= 1, got {n}")
        if not 0 <= index < n:
            raise ValueError(f"entity index {index} outside cluster of {n}")
        self.n = n
        self.index = index
        if roster is None:
            roster = tuple(range(n))
        else:
            roster = tuple(roster)
            if len(roster) != n:
                raise ValueError(
                    f"roster names {len(roster)} members for a view of {n}"
                )
            if len(set(roster)) != n:
                raise ValueError(f"roster has duplicate member ids: {roster}")
        #: Global member id behind each local row (identity when flat).
        self.roster: Tuple[int, ...] = roster
        self._row_by_member: Dict[int, int] = {
            member: row for row, member in enumerate(roster)
        }
        #: Next sequence number expected from each source (starts at 1).
        self.req: List[int] = [1] * n
        # AL[j][k] / PAL[j][k] as flat n*n arrays, row j at offset j*n.
        self._al: array = array("q", bytes(8 * n * n))
        self._pal: array = array("q", bytes(8 * n * n))
        for i in range(n * n):
            self._al[i] = 1
            self._pal[i] = 1
        #: AL[j][k]: what entity j expects next from k, as known here
        #: (live row-shaped view over the flat array).
        self.al = _MatrixView(self._al, n)
        #: PAL[j][k]: j has pre-acknowledged PDUs from k below this.
        self.pal = _MatrixView(self._pal, n)
        #: Last advertised free buffer units per entity.
        self.buf: List[int] = [INITIAL_BUF] * n
        #: Observers excluded from every minimum (suspected crashed — the
        #: membership extension).  The owner can never exclude itself.
        self.excluded: List[bool] = [False] * n
        #: Observers *evicted* by an agreed view change.  Eviction implies
        #: exclusion and additionally removes the row from the all-rows
        #: (pruning) minima: an evicted member will never come back asking
        #: for retransmissions under its old incarnation, so its frozen
        #: expectations stop pinning every store.
        self.evicted: List[bool] = [False] * n
        # Frozen membership maps: base offsets (j*n) of the rows currently
        # counted in the live minima / the all-rows pruning minima.  Rebuilt
        # only by set_excluded/set_evicted, never touched on the merge path.
        self._live_bases: List[int] = [j * n for j in range(n)]
        self._present_bases: List[int] = [j * n for j in range(n)]
        self._own_base: int = index * n
        # Cached column minima (minAL_k / minPAL_k) and the cached minBUF,
        # each minimum paired with a count of the live rows holding it: a
        # raise of a min-holding cell only forces the O(n) column recompute
        # when it was the *last* holder, so maintenance is O(1) amortized.
        self._min_al: List[int] = [1] * n
        self._min_al_count: List[int] = [n] * n
        self._min_pal: List[int] = [1] * n
        self._min_pal_count: List[int] = [n] * n
        self._min_buf: int = INITIAL_BUF
        self._min_buf_count: int = n
        # All-rows minAL (suspects included) for the pruning path, with the
        # same count trick.  Exclusion does not affect it.
        self._min_al_all: List[int] = [1] * n
        self._min_al_all_count: List[int] = [n] * n
        # Columns whose all-rows minimum moved since the last drain — the
        # engine's prune step visits exactly these instead of sweeping all
        # n sources per acknowledged PDU.
        self._al_all_dirty: set = set()
        # The last vector folded into each AL / PAL row.  Cells only grow,
        # so folding an equal vector again raises nothing; on sparse traffic
        # most confirmations are such repeats (tick probes, their answers).
        # Tuples only — a list may be mutated by its owner.  Sound exactly
        # as long as nothing ever *lowers* a cell (DESIGN.md §16).
        self._last_al: List[Optional[Tuple[int, ...]]] = [None] * n
        self._last_pal: List[Optional[Tuple[int, ...]]] = [None] * n

    # ------------------------------------------------------------------
    # Roster mapping (view-local row <-> global member id)
    # ------------------------------------------------------------------
    def row_of(self, member: int) -> int:
        """View-local row tracking global ``member`` (KeyError if absent)."""
        return self._row_by_member[member]

    def global_of(self, row: int) -> int:
        """Global member id behind view-local ``row``."""
        return self.roster[row]

    # ------------------------------------------------------------------
    # Updates (all monotone)
    # ------------------------------------------------------------------
    def advance_req(self, src: int, seq: int) -> None:
        """Acceptance action: ``REQ_src := seq + 1`` (must be consecutive)."""
        if seq != self.req[src]:
            raise ValueError(
                f"acceptance out of order: expected seq {self.req[src]} "
                f"from E{src}, got {seq}"
            )
        self.req[src] = seq + 1

    def accept(self, src: int, seq: int) -> MergeResult:
        """Acceptance in one step: ``REQ_src := seq + 1`` *and* the matching
        own-row ``AL[index][src]`` cell, in O(1).

        Accepting a PDU changes exactly one coordinate of this entity's own
        knowledge, so folding the whole REQ vector back into the own AL row
        (an O(n) walk plus a tuple allocation, once per accepted PDU) is
        wasted work — this touches the single cell and maintains the two
        column-``src`` minima directly.  The returned dirty set feeds the
        PACK rescan exactly like :meth:`merge_al`'s.
        """
        if seq != self.req[src]:
            raise ValueError(
                f"acceptance out of order: expected seq {self.req[src]} "
                f"from E{src}, got {seq}"
            )
        new = seq + 1
        self.req[src] = new
        data = self._al
        idx = self._own_base + src
        old = data[idx]
        if new <= old:
            return UNCHANGED
        data[idx] = new
        # The own row is never excluded or evicted, so it always counts in
        # both the live minima and the all-rows pruning minima.
        if old == self._min_al_all[src]:
            self._min_al_all_count[src] -= 1
            if self._min_al_all_count[src] == 0:
                (
                    self._min_al_all[src],
                    self._min_al_all_count[src],
                ) = self._col_min_count(data, src, self._present_bases)
                self._al_all_dirty.add(src)
        dirty: Tuple[int, ...] = ()
        if old == self._min_al[src]:
            self._min_al_count[src] -= 1
            if self._min_al_count[src] == 0:
                (
                    self._min_al[src],
                    self._min_al_count[src],
                ) = self._col_min_count(data, src, self._live_bases)
                dirty = (src,)
        return MergeResult(True, dirty)

    def merge_al(self, observer: int, ack: Sequence[int]) -> MergeResult:
        """Fold an observed ACK vector into ``AL[observer]``.

        The result's ``dirty`` columns are the sources whose ``minAL``
        actually rose — the only sources for which the PACK condition can
        newly hold, so the engine rescans exactly those.
        """
        if type(ack) is tuple:
            if ack == self._last_al[observer]:
                return UNCHANGED
            self._last_al[observer] = ack
        return self._merge(
            self._al, self._min_al, self._min_al_count, observer, ack,
            all_minima=self._min_al_all, all_counts=self._min_al_all_count,
        )

    def merge_al_fold(
        self, observer: int, vectors: Sequence[Sequence[int]],
    ) -> MergeResult:
        """Fold several ACK vectors from one observer in a single row walk.

        A BatchPdu carries one build-time ACK vector per inner PDU plus the
        flush-time header vector; per-source vectors are monotone in send
        order, so their column-wise maximum dominates each of them and one
        merge of the fold is equivalent to ``k`` successive merges — at one
        row walk (and one round of cache maintenance) instead of ``k``.
        """
        if not vectors:
            return UNCHANGED
        if len(vectors) == 1:
            return self.merge_al(observer, vectors[0])
        return self.merge_al(observer, [max(column) for column in zip(*vectors)])

    def merge_pal(self, observer: int, pack: Sequence[int]) -> MergeResult:
        """Fold a pre-acknowledgment vector into ``PAL[observer]``."""
        if type(pack) is tuple:
            if pack == self._last_pal[observer]:
                return UNCHANGED
            self._last_pal[observer] = pack
        return self._merge(
            self._pal, self._min_pal, self._min_pal_count, observer, pack,
        )

    def _col_min_count(
        self, data: array, k: int, bases: List[int],
    ) -> Tuple[int, int]:
        """Column ``k``'s minimum over ``bases`` rows, with holder count.

        Full membership — the common case — goes through a strided slice
        and ``array.count`` (both C loops); only a state with excluded or
        evicted rows pays for the Python-level filtered scan.
        """
        n = self.n
        if len(bases) == n:
            column = data[k::n]
            new_min = min(column)
            return new_min, column.count(new_min)
        new_min = min(data[b + k] for b in bases)
        return new_min, sum(1 for b in bases if data[b + k] == new_min)

    def _merge(
        self,
        data: array,
        minima: List[int],
        counts: List[int],
        observer: int,
        vector: Sequence[int],
        all_minima: Optional[List[int]] = None,
        all_counts: Optional[List[int]] = None,
    ) -> MergeResult:
        n = self.n
        base = observer * n
        # One C-level slice per merge instead of n boxed array reads: the
        # per-cell compare loop runs over a plain list.
        row = data[base:base + n].tolist()
        changed = False
        dirty: List[int] = []
        count_in_minima = not self.excluded[observer]
        count_in_all = not self.evicted[observer]
        for k, value in enumerate(vector):
            old = row[k]
            if value <= old:
                continue
            data[base + k] = value
            changed = True
            # Raising a min-holding cell moves the column minimum only when
            # it was the last holder (count hits zero); then the O(n)
            # recompute runs and the column is dirty.  Monotone raises can
            # never land *on* the minimum from above, so the count stays
            # exact without ever incrementing outside a recompute.
            if count_in_all and all_minima is not None and old == all_minima[k]:
                all_counts[k] -= 1
                if all_counts[k] == 0:
                    all_minima[k], all_counts[k] = self._col_min_count(
                        data, k, self._present_bases,
                    )
                    self._al_all_dirty.add(k)
            if count_in_minima and old == minima[k]:
                counts[k] -= 1
                if counts[k] == 0:
                    minima[k], counts[k] = self._col_min_count(
                        data, k, self._live_bases,
                    )
                    dirty.append(k)
        if not changed:
            return UNCHANGED
        return MergeResult(True, tuple(dirty))

    def update_buf(self, observer: int, buf: int) -> None:
        """Record the latest buffer advertisement (not monotone: buffers
        fill and drain, so the newest value simply replaces the old one).

        The cached minimum carries a holder count so re-advertisements of
        an unchanged value — the steady-state common case — and raises away
        from a shared minimum stay O(1); the O(n) rescan only runs when the
        *last* holder of the minimum moves up.
        """
        old = self.buf[observer]
        if buf == old:
            return
        self.buf[observer] = buf
        if self.excluded[observer]:
            # The advertisement is still *recorded* (a re-included member
            # resumes from its latest value), but the cached minimum only
            # tracks live rows; set_excluded's recompute folds this value
            # back in on re-inclusion.
            return
        if old == self._min_buf:
            self._min_buf_count -= 1
        if buf < self._min_buf:
            self._min_buf = buf
            self._min_buf_count = 1
        elif buf == self._min_buf:
            self._min_buf_count += 1
        elif self._min_buf_count == 0:
            self._recompute_min_buf()

    def _recompute_min_buf(self) -> None:
        n = self.n
        new_min = min(self.buf[b // n] for b in self._live_bases)
        self._min_buf = new_min
        self._min_buf_count = sum(
            1 for b in self._live_bases if self.buf[b // n] == new_min
        )

    # ------------------------------------------------------------------
    # Membership (crash-stop extension)
    # ------------------------------------------------------------------
    def set_excluded(self, observer: int, excluded: bool = True) -> None:
        """Exclude a (suspected crashed) observer from every minimum.

        Excluded rows are still merged — their knowledge was true when
        sent, and re-inclusion (a slow entity turning out to be alive) must
        resume from it — but they no longer gate the PACK/ACK conditions or
        the flow window.  The frozen live-row map and every cached minimum
        (including ``minBUF``: a buffer advertisement that arrived while
        the observer was excluded is folded back in here) are rebuilt.
        """
        if observer == self.index:
            raise ValueError("an entity cannot exclude itself")
        if self.excluded[observer] == excluded:
            return
        self.excluded[observer] = excluded
        n = self.n
        self._live_bases = [j * n for j in range(n) if not self.excluded[j]]
        al, pal = self._al, self._pal
        bases = self._live_bases
        for k in range(n):
            new_min = min(al[b + k] for b in bases)
            self._min_al[k] = new_min
            self._min_al_count[k] = sum(1 for b in bases if al[b + k] == new_min)
            new_min = min(pal[b + k] for b in bases)
            self._min_pal[k] = new_min
            self._min_pal_count[k] = sum(1 for b in bases if pal[b + k] == new_min)
        self._recompute_min_buf()

    def set_evicted(self, observer: int, evicted: bool = True) -> None:
        """Evict (or re-admit) an observer — the view-change extension.

        Eviction is exclusion made permanent: the row stops gating the
        PACK/ACK conditions, the flow window, *and* the all-rows pruning
        minima, so stores shrink again after a member dies for good.
        Re-admission (``evicted=False``, the rejoin path) restores the row
        everywhere; callers should first merge the returning member's
        announced REQ vector into its row so its stale pre-crash
        expectations do not drag the minima back down.
        """
        if observer == self.index:
            raise ValueError("an entity cannot evict itself")
        if self.evicted[observer] == evicted:
            return
        self.evicted[observer] = evicted
        n = self.n
        self._present_bases = [j * n for j in range(n) if not self.evicted[j]]
        al = self._al
        bases = self._present_bases
        for k in range(n):
            new_min = min(al[b + k] for b in bases)
            self._min_al_all[k] = new_min
            self._min_al_all_count[k] = sum(
                1 for b in bases if al[b + k] == new_min
            )
        # A membership change can move any all-rows minimum: revisit all.
        self._al_all_dirty.update(range(n))
        # Eviction implies exclusion (and re-admission re-includes); the
        # shared recompute keeps every cached minimum consistent.
        if self.excluded[observer] != evicted:
            self.set_excluded(observer, evicted)

    def live_observers(self) -> List[int]:
        """Indices currently counted in the minima."""
        return [j for j in range(self.n) if not self.excluded[j]]

    def min_al_all_rows(self, src: int) -> int:
        """``minAL_src`` over every non-evicted row, excluded or not.

        Used for pruning retransmission stores: a *suspected* entity may
        turn out to be alive and come back asking, so nothing above what
        even the suspects were last known to expect may be discarded.  An
        *evicted* entity cannot — any return goes through the join/state-
        transfer protocol at the current frontier — so its frozen row no
        longer pins the stores.  O(1) via the all-rows cache.
        """
        return self._min_al_all[src]

    def drain_al_all_dirty(self) -> Tuple[int, ...]:
        """Columns whose all-rows minimum moved since the last drain.

        Consuming read: the internal worklist is cleared.  Lets the
        engine's prune step visit only the sources whose release floor can
        actually have risen, instead of rescanning all ``n`` per
        acknowledged PDU.
        """
        if not self._al_all_dirty:
            return ()
        out = tuple(self._al_all_dirty)
        self._al_all_dirty.clear()
        return out

    # ------------------------------------------------------------------
    # Derived minima
    # ------------------------------------------------------------------
    def min_al(self, src: int) -> int:
        """``minAL_src``: every entity has accepted PDUs from ``src`` below
        this sequence number (PACK threshold).  O(1) via the cache."""
        return self._min_al[src]

    def min_pal(self, src: int) -> int:
        """``minPAL_src``: every entity has pre-acknowledged PDUs from
        ``src`` below this sequence number (ACK threshold).  O(1)."""
        return self._min_pal[src]

    def min_buf(self) -> int:
        """``minBUF``: the most constrained advertised buffer.  O(1)."""
        return self._min_buf

    def min_buf_known(self) -> bool:
        """Whether ``min_buf()`` reflects a real advertisement.

        Before any live observer has advertised below the cold-start
        sentinel, ``min_buf()`` is :data:`INITIAL_BUF` — an optimistic
        placeholder that must not leak into gauges or percentile summaries
        as if it were a measurement.
        """
        return self._min_buf < INITIAL_BUF

    def pack_vector(self) -> Tuple[int, ...]:
        """This entity's pre-acknowledgment knowledge, ``(minAL_0 … minAL_{n-1})``.

        Carried in heartbeat PDUs (quiescence extension): "I have
        pre-acknowledged every PDU from ``k`` below ``pack[k]``".
        """
        return tuple(self._min_al)

    def req_vector(self) -> Tuple[int, ...]:
        """Snapshot of ``REQ`` — the ACK vector for an outgoing PDU."""
        return tuple(self.req)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Deep copy of the complete state for assertions and debugging:
        matrices, membership flags, and every cached minimum."""
        return {
            "roster": list(self.roster),
            "req": list(self.req),
            "al": [row[:] for row in self.al],
            "pal": [row[:] for row in self.pal],
            "buf": list(self.buf),
            "excluded": list(self.excluded),
            "evicted": list(self.evicted),
            "min_al": list(self._min_al),
            "min_pal": list(self._min_pal),
            "min_al_all": list(self._min_al_all),
            "min_buf": self._min_buf,
        }

    def check_cache_consistency(self) -> Dict[str, Tuple[int, int]]:
        """Revalidate every cached minimum against a full recompute.

        Returns ``{}`` when consistent; otherwise a mapping of cache name to
        ``(cached, recomputed)`` for each discrepancy.  Intended for
        assertions in tests and post-view-change sanity checks — it is a
        full O(n²) sweep, never called on the hot path.
        """
        problems: Dict[str, Tuple[int, int]] = {}
        n = self.n
        live = [j * n for j in range(n) if not self.excluded[j]]
        present = [j * n for j in range(n) if not self.evicted[j]]
        if live != self._live_bases:
            problems["live_bases"] = (tuple(self._live_bases), tuple(live))
        if present != self._present_bases:
            problems["present_bases"] = (
                tuple(self._present_bases), tuple(present),
            )
        for k in range(n):
            checks = (
                ("min_al", self._al, live, self._min_al, self._min_al_count),
                ("min_pal", self._pal, live, self._min_pal, self._min_pal_count),
                ("min_al_all", self._al, present,
                 self._min_al_all, self._min_al_all_count),
            )
            for name, data, bases, minima, counts in checks:
                expected = min(data[b + k] for b in bases)
                if minima[k] != expected:
                    problems[f"{name}[{k}]"] = (minima[k], expected)
                expected_count = sum(1 for b in bases if data[b + k] == expected)
                if counts[k] != expected_count:
                    problems[f"{name}_count[{k}]"] = (counts[k], expected_count)
        expected_buf = min(self.buf[b // n] for b in live)
        if self._min_buf != expected_buf:
            problems["min_buf"] = (self._min_buf, expected_buf)
        expected_buf_count = sum(
            1 for b in live if self.buf[b // n] == expected_buf
        )
        if self._min_buf_count != expected_buf_count:
            problems["min_buf_count"] = (
                self._min_buf_count, expected_buf_count,
            )
        return problems

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"KnowledgeState(E{self.index}, req={self.req})"
