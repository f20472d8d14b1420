"""Per-pair FIFO channels.

Random latency samples can reorder messages between the same pair of
sites; real transport links (and the paper's implicit LAN) deliver in
order. :class:`Channel` enforces FIFO by clamping each delivery time to be
no earlier than the previous delivery on the same directed pair.
"""

from __future__ import annotations


class Channel:
    """Directed (src → dst) link state: last scheduled delivery time."""

    __slots__ = ("src", "dst", "fifo", "_last_delivery", "delivered")

    def __init__(self, src: str, dst: str, fifo: bool = True) -> None:
        self.src = src
        self.dst = dst
        self.fifo = fifo
        self._last_delivery = float("-inf")
        #: messages scheduled over this channel (diagnostic)
        self.delivered = 0

    def delivery_time(self, now: float, latency: float) -> float:
        """Compute (and remember) the delivery time of the next message.

        A negative or NaN ``latency`` raises :class:`ValueError`: a NaN
        delivery time would also disable the FIFO clamp for good, since
        every comparison with a NaN ``_last_delivery`` is false.
        """
        if not latency >= 0:
            raise ValueError(f"negative or NaN latency {latency}")
        when = now + latency
        if self.fifo and when < self._last_delivery:
            when = self._last_delivery
        self._last_delivery = when
        self.delivered += 1
        return when

    def __repr__(self) -> str:
        return f"<Channel {self.src}->{self.dst} fifo={self.fifo} n={self.delivered}>"


class ChannelTable:
    """Lazy registry of directed channels."""

    def __init__(self, fifo: bool = True) -> None:
        self.fifo = fifo
        self._channels: dict[tuple[str, str], Channel] = {}

    def get(self, src: str, dst: str) -> Channel:
        key = (src, dst)
        chan = self._channels.get(key)
        if chan is None:
            chan = Channel(src, dst, fifo=self.fifo)
            self._channels[key] = chan
        return chan

    def __len__(self) -> int:
        return len(self._channels)

    def __iter__(self):
        return iter(self._channels.values())
