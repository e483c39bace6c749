"""Preset sharing protocols.

Each constructor only decides *which* past variables each controller
keeps locally and which it shares at each stage: a protocol is its
witness slots.  The message map and memory update tables are derived
from them (:meth:`~cisolver.model.ProblemSpec.msg_map`), so every
protocol is consistent with its slots.

Slots are ordered chronologically with the observation before the action
of the same stage; the first slot is the most significant mixed-radix
digit.
"""

from __future__ import annotations

from typing import Sequence

from .errors import InvalidParameter
from .model import KIND_ACT, KIND_OBS, FiniteSpace, SharingProtocol, Slot


def _window(lo: int, hi: int) -> tuple[Slot, ...]:
    """Observation/action pairs for stages ``lo..hi`` inclusive."""
    out = []
    for tau in range(lo, hi + 1):
        out.append(Slot(KIND_OBS, tau))
        out.append(Slot(KIND_ACT, tau))
    return tuple(out)


def _check_spaces(obs_spaces, action_spaces):
    if len(obs_spaces) != len(action_spaces) or not obs_spaces:
        raise InvalidParameter("need one observation and one action space per controller")


def delayed_sharing_protocol(
    delays: int | Sequence[int],
    horizon: int,
    obs_spaces: Sequence[FiniteSpace],
    action_spaces: Sequence[FiniteSpace],
) -> SharingProtocol:
    """Every controller shares its stage-``t - s + 1`` data at stage ``t``.

    With delay ``s`` the shared memory holds everything up to ``s``
    stages ago and the local memory holds the most recent ``s - 1``
    observation/action pairs.  ``delays`` may be a single value or one
    value per controller (asymmetric delays).  ``s = 1`` means sharing
    with one-stage delay: the current data is shared immediately after
    acting and the local memory stays empty.
    """
    _check_spaces(obs_spaces, action_spaces)
    n = len(obs_spaces)
    if isinstance(delays, int):
        delays = [delays] * n
    delays = list(delays)
    if len(delays) != n:
        raise InvalidParameter(f"{len(delays)} delays for {n} controllers")
    if any(s < 1 for s in delays):
        raise InvalidParameter(f"delays must be >= 1, got {delays}")
    if horizon < 1:
        raise InvalidParameter(f"horizon must be >= 1, got {horizon}")

    mem_slots, msg_slots = [], []
    for i in range(n):
        s = delays[i]
        mem_slots.append([_window(max(1, t - s + 1), t - 1) for t in range(1, horizon + 1)])
        msg_slots.append([_window(t - s + 1, t - s + 1) if t >= s else ()
                          for t in range(1, horizon)])
    return SharingProtocol(mem_slots=mem_slots, msg_slots=msg_slots)


def periodic_sharing_protocol(
    period: int,
    horizon: int,
    obs_spaces: Sequence[FiniteSpace],
    action_spaces: Sequence[FiniteSpace],
) -> SharingProtocol:
    """Controllers accumulate locally and dump everything every ``period`` stages.

    Messages are emitted at stages ``t = period, 2*period, ...``; in
    between, the local memory carries all data generated since the last
    dump.  ``period = 1`` coincides with delayed sharing at delay 1.
    """
    _check_spaces(obs_spaces, action_spaces)
    if period < 1:
        raise InvalidParameter(f"period must be >= 1, got {period}")
    if horizon < 1:
        raise InvalidParameter(f"horizon must be >= 1, got {horizon}")
    n = len(obs_spaces)

    mem, msg = [], []
    for t in range(1, horizon + 1):
        last_dump = ((t - 1) // period) * period  # most recent sharing stage < t
        mem.append(_window(last_dump + 1, t - 1))
    for t in range(1, horizon):
        msg.append(_window(t - period + 1, t) if t % period == 0 else ())
    return SharingProtocol(mem_slots=[mem] * n, msg_slots=[msg] * n)


def control_sharing_protocol(
    horizon: int,
    obs_spaces: Sequence[FiniteSpace],
    action_spaces: Sequence[FiniteSpace],
) -> SharingProtocol:
    """Actions are public, observations stay private.

    Each controller shares its current action every stage and keeps its
    full observation history locally, so the local memory grows by one
    observation per stage.
    """
    _check_spaces(obs_spaces, action_spaces)
    if horizon < 1:
        raise InvalidParameter(f"horizon must be >= 1, got {horizon}")
    n = len(obs_spaces)
    mem = [tuple(Slot(KIND_OBS, tau) for tau in range(1, t)) for t in range(1, horizon + 1)]
    msg = [(Slot(KIND_ACT, t),) for t in range(1, horizon)]
    return SharingProtocol(mem_slots=[mem] * n, msg_slots=[msg] * n)


def no_sharing_protocol(
    window: int,
    horizon: int,
    obs_spaces: Sequence[FiniteSpace],
    action_spaces: Sequence[FiniteSpace],
) -> SharingProtocol:
    """Nothing is ever shared; local memory keeps the last ``window`` stages.

    ``window = 0`` makes every controller purely reactive (memory stays
    empty); ``window >= horizon - 1`` keeps the entire local history.
    All messages are the null message.
    """
    _check_spaces(obs_spaces, action_spaces)
    if window < 0:
        raise InvalidParameter(f"window must be >= 0, got {window}")
    if horizon < 1:
        raise InvalidParameter(f"horizon must be >= 1, got {horizon}")
    n = len(obs_spaces)
    mem = [_window(max(1, t - window), t - 1) for t in range(1, horizon + 1)]
    msg = [() for _ in range(1, horizon)]
    return SharingProtocol(mem_slots=[mem] * n, msg_slots=[msg] * n)
