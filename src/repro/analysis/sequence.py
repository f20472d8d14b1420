"""Executable protocol diagrams.

The paper's Figs. 3-5 are hand-drawn message-sequence sketches of the
Delay Update (local and with AV transfer) and the Immediate Update.
Here they are *generated*: a :class:`SequenceRecorder` subscribes to a
hub's ``msg.*`` taps and keeps their events, and
:func:`render_sequence` lays the captured
messages out as a text sequence diagram — so the diagrams in
``docs/figures/`` are guaranteed to match what the implementation
actually does (the protocol-figures bench regenerates and checks them).

Example output::

    site0           site1           site2
      |               |               |
      |<--av.request--|               |   t=0
      |--av.req.reply>|               |   t=1
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.net.message import Message
from repro.obs.hub import Observability


@dataclass(frozen=True, slots=True)
class SequenceEvent:
    """One captured network event."""

    event: str  #: "send" | "recv" | "drop"
    time: float
    msg: Message


class SequenceRecorder:
    """Subscriber collecting a hub's message events for diagram rendering."""

    def __init__(self, obs: Observability) -> None:
        self.events: List[SequenceEvent] = []
        self._detach = obs.subscribe_fields(
            self._observe, ("msg.send", "msg.recv", "msg.drop")
        )

    def _observe(self, kind: str, time: float, fields: dict) -> None:
        self.events.append(SequenceEvent(kind[4:], time, fields["msg"]))

    def detach(self) -> None:
        """Stop recording (once)."""
        self._detach()

    def clear(self) -> None:
        self.events.clear()

    def __len__(self) -> int:
        return len(self.events)


def _arrow(
    columns: dict[str, int],
    width: int,
    src: str,
    dst: str,
    label: str,
    dropped: bool = False,
) -> str:
    """One diagram row: an arrow from src's column to dst's column."""
    n_cols = len(columns)
    i, j = columns[src], columns[dst]
    left, right = min(i, j), max(i, j)
    # Build the raw line of lifelines first.
    line = list(" " * (width * n_cols))
    for name, col in columns.items():
        line[col * width + width // 2] = "|"
    start = left * width + width // 2 + 1
    end = right * width + width // 2
    span = end - start
    body = ("x" if dropped else "-") * span
    # Embed the label centred in the arrow body (truncate if needed).
    text = f" {label} "
    if len(text) > span - 2 and span > 6:
        text = f" {label[: span - 7]}~ "
    if len(text) <= span - 2:
        pad = (span - len(text)) // 2
        body = body[:pad] + text + body[pad + len(text):]
    body = list(body)
    if j > i:
        body[-1] = "x" if dropped else ">"
    else:
        body[0] = "x" if dropped else "<"
    line[start:end] = body
    return "".join(line).rstrip()


def render_sequence(
    events: Sequence[SequenceEvent],
    participants: Optional[Sequence[str]] = None,
    width: int = 20,
    show_time: bool = True,
    merge_delivery: bool = True,
) -> str:
    """Render captured events as a text sequence diagram.

    Parameters
    ----------
    events:
        From a :class:`SequenceRecorder`.
    participants:
        Column order; defaults to first-appearance order.
    width:
        Characters per participant column.
    show_time:
        Append ``t=<recv time>`` to each row.
    merge_delivery:
        Draw one arrow per message at its delivery (or drop) time,
        instead of separate send/recv rows — matches how the paper's
        figures are drawn.
    """
    if participants is None:
        seen: dict[str, None] = {}
        for ev in events:
            seen.setdefault(ev.msg.src)
            seen.setdefault(ev.msg.dst)
        participants = list(seen)
    columns = {name: idx for idx, name in enumerate(participants)}

    rows: List[str] = []
    # Header and lifeline row share the arrow rows' column geometry
    # (lifeline at width//2 of each column).
    header = list(" " * (width * len(participants)))
    lifeline = list(" " * (width * len(participants)))
    for name, col in columns.items():
        centre = col * width + width // 2
        start = max(col * width, centre - len(name) // 2)
        header[start : start + len(name)] = name[: width - 1]
        lifeline[centre] = "|"
    rows.append("".join(header).rstrip())
    rows.append("".join(lifeline).rstrip())

    for ev in events:
        if merge_delivery and ev.event == "send":
            continue
        if ev.msg.src not in columns or ev.msg.dst not in columns:
            continue
        label = ev.msg.kind
        line = _arrow(
            columns, width, ev.msg.src, ev.msg.dst, label,
            dropped=ev.event == "drop",
        )
        if show_time:
            line = f"{line}   t={ev.time:g}"
        rows.append(line)
    return "\n".join(rows)


def record_scenario(system, scenario, participants=None, **render_kwargs) -> str:
    """Run ``scenario(env)`` (a generator) on ``system`` and render the
    message sequence it produced.

    Convenience wrapper used by the protocol-figure benches and docs.
    """
    recorder = SequenceRecorder(system.obs)
    proc = system.env.process(scenario(system.env))
    system.run(until=proc)
    recorder.detach()
    if participants is None:
        participants = list(system.sites)
    return render_sequence(
        recorder.events, participants=participants, **render_kwargs
    )
