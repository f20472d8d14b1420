"""The Allowable Volume management table (paper §2.2/§3.3).

Each site holds one :class:`AVTable`. For every *regular* item the table
stores the site's allowable volume: the amount by which the site may
decrease the item's stock autonomously, with zero communication. Items
absent from the table are non-regular and take the Immediate Update path
— so `defined()` **is** the paper's "checking function" predicate.

The table also implements *holds*: while gathering AV from peers, the
accelerator moves local AV into a hold so concurrent local updates cannot
double-spend it, yet without locking the item (paper: "it is not
necessary to lock the AV exclusively until the completion of whole
transaction").

Every mutation is published on the owning hub's taps (``av.define``,
``av.undefine``, ``av.add``, ``av.take`` and
``av.hold.{open,add,consume,release,reclose}``) when they have
subscribers; the runtime sanitizer audits AV conservation from these
events.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, Mapping, Optional, Tuple

from repro.core.errors import AVUndefined, InsufficientAV, InvalidVolume
from repro.obs.hub import NULL_OBS, Observability


class Hold:
    """AV reserved for one in-progress update.

    Accumulates volume (local takes and peer grants); at the end the
    protocol either :meth:`consume`\\ s the needed amount (returning any
    excess to the table) or :meth:`release`\\ s everything back. ``ctx``
    carries the opening update's ``(trace_id, span_id)`` so lifecycle
    diagnostics (leaks, double-closes) can name the responsible span.
    """

    __slots__ = ("table", "item", "amount", "closed", "hold_id", "ctx")

    def __init__(
        self,
        table: "AVTable",
        item: str,
        hold_id: int = 0,
        ctx: Optional[Tuple[str, int]] = None,
    ) -> None:
        self.table = table
        self.item = item
        self.amount = 0.0
        self.closed = False
        self.hold_id = hold_id
        self.ctx = ctx

    def add(self, amount: float) -> None:
        """Add volume (from a local take or a peer grant) to the hold."""
        self._check_open()
        if amount < 0:
            raise InvalidVolume(f"cannot hold negative volume {amount}")
        self.amount += amount
        table = self.table
        if table._on_hold_add:
            now = table._clock()
            for fn in table._on_hold_add:
                fn(now, table.site, self.item, amount, self)

    def consume(self, needed: float) -> None:
        """Spend ``needed`` from the hold; excess returns to the table."""
        self._check_open()
        if needed < 0:
            raise InvalidVolume(f"cannot consume negative volume {needed}")
        if needed > self.amount:
            raise InsufficientAV(self.item, self.amount, needed)
        self._close(self.table._on_hold_consume, needed, self.amount - needed)

    def release(self) -> None:
        """Return the entire hold to the table (update gave up)."""
        self._check_open()
        self._close(self.table._on_hold_release, self.amount, self.amount)

    def _close(self, tap: list, amount: float, returned: float) -> None:
        # Emit before mutating: a subscriber sees the hold's full volume
        # leave the holds account before ``returned`` re-enters the
        # table, so the conservation sum only ever dips (safe for a <=
        # bound).
        table = self.table
        if tap:
            now = table._clock()
            for fn in tap:
                fn(now, table.site, self.item, amount, self)
        self.amount = 0.0
        self.closed = True
        table.open_holds -= 1
        if returned > 0:
            table.add(self.item, returned)

    def _check_open(self) -> None:
        if self.closed:
            table = self.table
            if table._on_hold_reclose:
                now = table._clock()
                for fn in table._on_hold_reclose:
                    fn(now, table.site, self.item, 0.0, self)
            raise InvalidVolume(f"hold on {self.item!r} already closed")

    def __repr__(self) -> str:
        state = "closed" if self.closed else f"{self.amount}"
        return f"<Hold {self.item!r} {state}>"


class AVTable:
    """Per-site allowable-volume ledger.

    Parameters
    ----------
    site:
        Owning site's name (for error messages and events).
    obs:
        Hub whose taps carry the table's and its holds' ``av.*`` events.
    clock:
        Zero-argument callable giving the simulated time of an event.
    """

    def __init__(
        self,
        site: str = "site",
        obs: Observability = NULL_OBS,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.site = site
        self._clock = clock if clock is not None else (lambda: 0.0)
        self._av: Dict[str, float] = {}
        #: open holds (diagnostic; should be empty at quiescence)
        self.open_holds = 0
        self._hold_seq = 0
        self._on_define = obs.tap("av.define")
        self._on_undefine = obs.tap("av.undefine")
        self._on_add = obs.tap("av.add")
        self._on_take = obs.tap("av.take")
        self._on_hold_open = obs.tap("av.hold.open")
        self._on_hold_add = obs.tap("av.hold.add")
        self._on_hold_consume = obs.tap("av.hold.consume")
        self._on_hold_release = obs.tap("av.hold.release")
        self._on_hold_reclose = obs.tap("av.hold.reclose")

    # ---------------------------------------------------------------- #
    # the checking-function predicate
    # ---------------------------------------------------------------- #

    def defined(self, item: str) -> bool:
        """``True`` iff AV is managed for ``item`` (⇒ Delay Update)."""
        return item in self._av

    # ---------------------------------------------------------------- #
    # schema
    # ---------------------------------------------------------------- #

    def define(self, item: str, initial: float = 0.0) -> None:
        """Register ``item`` for AV management with ``initial`` volume."""
        self.define_many({item: initial})

    def define_many(self, volumes: Mapping[str, float]) -> None:
        """Register every item of ``volumes`` with its initial volume, in
        its order; all or nothing. A subscriber sees one ``av.define``
        event per item."""
        av = self._av
        if not av.keys().isdisjoint(volumes):
            item = next(i for i in volumes if i in av)
            raise InvalidVolume(f"AV for {item!r} already defined at {self.site}")
        if volumes and min(volumes.values()) < 0:
            initial = next(v for v in volumes.values() if v < 0)
            raise InvalidVolume(f"negative initial AV {initial}")
        tap = self._on_define
        for item, initial in volumes.items():
            if tap:
                now = self._clock()
                for fn in tap:
                    fn(now, self.site, item, float(initial))
            av[item] = float(initial)

    def undefine(self, item: str) -> float:
        """Remove ``item`` from AV management; returns the dropped volume."""
        if item not in self._av:
            raise AVUndefined(item)
        dropped = self._av.pop(item)
        if self._on_undefine:
            now = self._clock()
            for fn in self._on_undefine:
                fn(now, self.site, item, dropped)
        return dropped

    # ---------------------------------------------------------------- #
    # volume movement
    # ---------------------------------------------------------------- #

    def get(self, item: str) -> float:
        """Current local AV for ``item``."""
        try:
            return self._av[item]
        except KeyError:
            raise AVUndefined(item) from None

    def level(self, item: str) -> Optional[float]:
        """Local AV for ``item``, ``None`` if undefined: one probe."""
        return self._av.get(item)

    def add(self, item: str, amount: float) -> float:
        """Increase local AV (minting at the maker, or a received grant)."""
        if amount < 0:
            raise InvalidVolume(f"cannot add negative AV {amount}")
        if item not in self._av:
            raise AVUndefined(item)
        self._av[item] += amount
        if self._on_add:
            now = self._clock()
            for fn in self._on_add:
                fn(now, self.site, item, amount)
        return self._av[item]

    def take(self, item: str, amount: float) -> float:
        """Remove exactly ``amount``; raises :class:`InsufficientAV` if short."""
        available = self.get(item)
        if amount < 0:
            raise InvalidVolume(f"cannot take negative AV {amount}")
        if amount > available:
            raise InsufficientAV(item, available, amount)
        self._av[item] = available - amount
        if self._on_take:
            now = self._clock()
            for fn in self._on_take:
                fn(now, self.site, item, amount)
        return amount

    def take_if_covered(self, item: str, amount: float) -> bool:
        """Fused ``get`` + ``take``: spend ``amount`` iff fully covered.

        The Delay decrement hot path's single-lookup form of
        ``if av.get(item) >= need: av.take(item, need)`` — same
        ``av.take`` event, same arithmetic, one dict probe instead of three.
        Returns whether the take happened.
        """
        try:
            available = self._av[item]
        except KeyError:
            raise AVUndefined(item) from None
        if amount < 0:
            raise InvalidVolume(f"cannot take negative AV {amount}")
        if available < amount:
            return False
        self._av[item] = available - amount
        if self._on_take:
            now = self._clock()
            for fn in self._on_take:
                fn(now, self.site, item, amount)
        return True

    def take_up_to(self, item: str, amount: float) -> float:
        """Remove ``min(amount, available)``; returns what was taken."""
        if amount < 0:
            raise InvalidVolume(f"cannot take negative AV {amount}")
        available = self.get(item)
        taken = min(amount, available)
        self._av[item] = available - taken
        if self._on_take:
            now = self._clock()
            for fn in self._on_take:
                fn(now, self.site, item, taken)
        return taken

    def take_all(self, item: str) -> float:
        """Drain the item's AV (paper: "holds all the AV at the site")."""
        available = self.get(item)
        self._av[item] = 0.0
        if self._on_take:
            now = self._clock()
            for fn in self._on_take:
                fn(now, self.site, item, available)
        return available

    def hold(self, item: str, ctx: Optional[Tuple[str, int]] = None) -> Hold:
        """Open a :class:`Hold` for an in-progress update on ``item``.

        ``ctx`` is the opening update's ``(trace_id, span_id)``, attached
        to the hold for lifecycle diagnostics.
        """
        if item not in self._av:
            raise AVUndefined(item)
        self._hold_seq += 1
        self.open_holds += 1
        h = Hold(self, item, hold_id=self._hold_seq, ctx=ctx)
        if self._on_hold_open:
            now = self._clock()
            for fn in self._on_hold_open:
                fn(now, self.site, item, 0.0, h)
        return h

    # ---------------------------------------------------------------- #
    # test hook
    # ---------------------------------------------------------------- #

    def debug_set(self, item: str, volume: float) -> None:
        """TEST-ONLY: force a raw volume, bypassing every check.

        Lets invariant tests corrupt state without reaching into the
        table's internals.
        """
        self._av[item] = volume

    # ---------------------------------------------------------------- #
    # views
    # ---------------------------------------------------------------- #

    def items(self) -> Iterator[Tuple[str, float]]:
        return iter(self._av.items())

    def as_dict(self) -> Dict[str, float]:
        return dict(self._av)

    def total(self) -> float:
        """Sum of AV across all items (conservation diagnostics)."""
        return sum(self._av.values())

    def __contains__(self, item: str) -> bool:
        return item in self._av

    def __len__(self) -> int:
        return len(self._av)

    def __repr__(self) -> str:
        return f"<AVTable {self.site!r} items={len(self._av)} total={self.total():g}>"
