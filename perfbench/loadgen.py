"""Seeded open- and closed-loop request drivers for the serve workload.

The open loop sends each request at its due time regardless of replies
(independent users) and times it from that due time, so a stalled server
is charged for the wait it imposes on later requests; how late the
generator itself sent is reported separately as its lag. The closed loop
keeps a fixed number of connections, each sending its next request only
after the previous reply (callers that wait). Both use at most
``connections`` threads, one blocking connection each.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Request:
    rid: str
    tenant: str
    app: str
    due: float = 0.0  # seconds after the phase start (open loop only)


@dataclass
class Outcome:
    request: Request
    due: float  # absolute perf_counter time the request was due
    sent: float
    done: float
    reply: dict | None
    error: str | None = None
    retries: int = 0

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def lag(self) -> float:
        return self.sent - self.due


class RequestMix:
    """Seeded request stream with exact mix proportions.

    Requests come in shuffled blocks that hold every (tenant, app) pair as
    often as the app's integer weight, so any multiple of
    :attr:`block_size` requests has exactly the configured mix; the seed
    decides only the order.
    """

    def __init__(self, rng: random.Random, mix: dict[str, int], tenants: list[str]):
        self.rng = rng
        self.block = [(t, app) for app, w in mix.items() for t in tenants for _ in range(w)]
        self._pending: list[tuple[str, str]] = []

    @property
    def block_size(self) -> int:
        return len(self.block)

    def draw(self, rid: str, due: float = 0.0) -> Request:
        if not self._pending:
            self._pending = list(self.block)
            self.rng.shuffle(self._pending)
        tenant, app = self._pending.pop()
        return Request(rid=rid, tenant=tenant, app=app, due=due)


def poisson_schedule(mix: RequestMix, rate: float, count: int, prefix: str) -> list[Request]:
    """*count* Poisson arrivals at *rate*/s over exactly ``count / rate`` s.

    Given the number of arrivals in an interval, a Poisson process places
    them as sorted independent uniforms, so the phase has the offered rate
    and Poisson burstiness but a length that does not depend on the seed.
    """
    span = count / rate
    times = sorted(mix.rng.uniform(0.0, span) for _ in range(count))
    return [mix.draw(f"{prefix}-{i}", due=t) for i, t in enumerate(times)]


def open_loop(schedule: list[Request], send, connections: int) -> list[Outcome]:
    """Send each request at its due time over at most *connections* threads."""
    outcomes: list[Outcome | None] = [None] * len(schedule)
    lock = threading.Lock()
    cursor = iter(range(len(schedule)))
    start = time.perf_counter()

    def sender() -> None:
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                return
            req = schedule[i]
            due = start + req.due
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            outcomes[i] = _exchange(req, due, send)

    _run_threads(sender, connections)
    return outcomes


def closed_loop(mix: RequestMix, send, connections: int, seconds: float,
                prefix: str) -> tuple[list[Outcome], float]:
    """Each connection sends its next request after the previous reply.

    Returns the outcomes and the phase's wall time. Requests are drawn from
    *mix* under a lock, so the request sequence is seeded even though which
    connection carries which request is not.
    """
    outcomes: list[Outcome] = []
    lock = threading.Lock()
    counter = iter(range(1 << 62))
    start = time.perf_counter()
    stop_at = start + seconds

    def sender() -> None:
        while time.perf_counter() < stop_at:
            with lock:
                req = mix.draw(f"{prefix}-{next(counter)}")
            outcome = _exchange(req, time.perf_counter(), send)
            with lock:
                outcomes.append(outcome)

    _run_threads(sender, connections)
    return outcomes, time.perf_counter() - start


def _exchange(req: Request, due: float, send) -> Outcome:
    sent = time.perf_counter()
    try:
        reply, retries = send(req)
        error = None
    except Exception as exc:  # noqa: BLE001 - a failed request is counted, not fatal
        reply, retries, error = None, 0, f"{type(exc).__name__}: {exc}"
    return Outcome(req, due, sent, time.perf_counter(), reply, error, retries)


def _run_threads(target, count: int) -> None:
    threads = [threading.Thread(target=target, name=f"perfbench-load-{i}")
               for i in range(count)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
