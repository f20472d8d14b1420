"""Deciding policies: how much AV to request and how much to grant.

The paper's deciding function (§3.3) fixes, per §4, the policy taken from
the SODA'99 electronic-money distribution work [Kawazoe et al.]:

* **request** exactly the shortage still needed, and
* **grant** half of what the grantee currently keeps.

:class:`Soda99Policy` implements that; the alternatives quantify the
design choice in the ablation benches (DESIGN.md, Ablation A).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod


class DecidingPolicy(ABC):
    """Strategy pair used by the accelerator's deciding function."""

    @abstractmethod
    def request_amount(self, shortage: float) -> float:
        """Volume to ask a peer for, given the outstanding shortage."""

    @abstractmethod
    def grant_amount(self, available: float, requested: float) -> float:
        """Volume a grantor hands over, given its holdings and the ask.

        Must satisfy ``0 <= grant <= available``.
        """

    def __repr__(self) -> str:
        return f"<{type(self).__name__}>"


def _ceil_half(x: float) -> float:
    """Half of ``x`` rounded up to an integer when ``x`` is integral.

    Integral stock keeps AV integral, and rounding *up* avoids the
    livelock where a site holding 1 unit would forever grant 0.
    """
    if x <= 0:
        return 0.0
    if float(x).is_integer():
        return float(math.ceil(x / 2))
    return x / 2


class Soda99Policy(DecidingPolicy):
    """The paper's policy: request the shortage, grant half of holdings."""

    def request_amount(self, shortage: float) -> float:
        return shortage

    def grant_amount(self, available: float, requested: float) -> float:
        # min(available, _ceil_half(available)), one call fewer per ask
        if available <= 0:
            return min(available, 0.0)
        if float(available).is_integer():
            return min(available, float(math.ceil(available / 2)))
        return min(available, available / 2)


class GrantAllPolicy(DecidingPolicy):
    """Grantor hands over everything it has (greedy; starves the grantor)."""

    def request_amount(self, shortage: float) -> float:
        return shortage

    def grant_amount(self, available: float, requested: float) -> float:
        return available


class ExactPolicy(DecidingPolicy):
    """Grantor gives exactly what was asked (if it can) and nothing more.

    Minimises volume moved per transfer but maximises transfer frequency:
    the requester ends with zero slack, so its next decrement immediately
    needs another transfer.
    """

    def request_amount(self, shortage: float) -> float:
        return shortage

    def grant_amount(self, available: float, requested: float) -> float:
        return min(available, requested)


class ProportionalPolicy(DecidingPolicy):
    """Grantor gives ``fraction`` of its holdings (generalised SODA'99).

    ``fraction=0.5`` reproduces :class:`Soda99Policy` up to rounding.
    """

    def __init__(self, fraction: float = 0.5) -> None:
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction {fraction} not in (0, 1]")
        self.fraction = fraction

    def request_amount(self, shortage: float) -> float:
        return shortage

    def grant_amount(self, available: float, requested: float) -> float:
        grant = available * self.fraction
        if float(available).is_integer():
            grant = float(math.ceil(grant))
        return min(available, grant)

    def __repr__(self) -> str:
        return f"<ProportionalPolicy {self.fraction}>"


class OverdraftPolicy(DecidingPolicy):
    """Request more than the shortage (prefetch factor ≥ 1).

    Requesting ``factor × shortage`` builds local slack so *future*
    updates complete locally — trades volume concentration for fewer
    transfers. The grantor side still grants half of holdings, capped at
    the (inflated) ask.
    """

    def __init__(self, factor: float = 2.0) -> None:
        if factor < 1.0:
            raise ValueError(f"factor {factor} must be >= 1")
        self.factor = factor

    def request_amount(self, shortage: float) -> float:
        amount = shortage * self.factor
        if float(shortage).is_integer():
            amount = float(math.ceil(amount))
        return amount

    def grant_amount(self, available: float, requested: float) -> float:
        return min(available, max(_ceil_half(available), min(available, requested)))

    def __repr__(self) -> str:
        return f"<OverdraftPolicy {self.factor}>"
