"""Open-loop line-protocol client: one process, one event-loop thread.

Requests go out on a fixed schedule whatever the server does, over a few
persistent TCP connections; each conversation is pinned to one connection so
its turns reach the server in order. Latency is timed from when a request
was *due*, not from when it was sent, so a stall in the server (or in this
client) is charged to every request that waited behind it. How late the
client itself ran is reported separately.

The loop sleeps in ``select`` until shortly before the next due time and
then polls, because ``epoll`` timeouts round up to whole milliseconds and a
client that sleeps through its send time measures its own gap.
"""

from __future__ import annotations

import math
import selectors
import socket
import time
from collections import deque
from dataclasses import dataclass, field

SPIN_S = 0.0012  # poll, rather than sleep, this close to a due time
CONNECT_TIMEOUT_S = 5.0
DRAIN_S = 10.0  # how long to wait for responses after the last send


@dataclass
class Request:
    conn: int  # connection index; fixed per conversation
    line: bytes  # one request line, newline included


@dataclass
class PhaseResult:
    latencies_ms: list[float]  # due (or send, in bulk mode) -> response read; inf if none
    late_ms: list[float]  # send - due; empty in bulk mode
    responses: list[bytes | None]  # response line per request, None if missing
    elapsed_s: float = 0.0
    missing: int = field(init=False)

    def __post_init__(self):
        self.missing = sum(1 for r in self.responses if r is None)


class Client:
    """Persistent connections to one server, used phase after phase."""

    def __init__(self, address: tuple[str, int], connections: int):
        self.socks = []
        self.selector = selectors.DefaultSelector()
        for c in range(connections):
            sock = socket.create_connection(address, timeout=CONNECT_TIMEOUT_S)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.setblocking(False)
            self.socks.append(sock)
            self.selector.register(sock, selectors.EVENT_READ, c)
        self.partial = [b""] * connections
        self.inflight = [deque() for _ in range(connections)]

    def close(self) -> None:
        self.selector.close()
        for sock in self.socks:
            sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def run(self, requests: list[Request], rate: float | None = None, window: int = 32,
            start_at: float | None = None) -> PhaseResult:
        """Send ``requests`` at ``rate`` per second (open loop), or with at most
        ``window`` in flight per connection when ``rate`` is None (bulk).

        Returns once every response is read, or ``DRAIN_S`` after the last
        send. ``start_at`` (a ``time.perf_counter`` value) fixes the first due
        time; tests set it in the past to make the client late.
        """
        n = len(requests)
        t0 = time.perf_counter() + 0.002 if start_at is None else start_at
        due = [t0 + i / rate for i in range(n)] if rate else None
        sent_at = [0.0] * n
        recv_at = [0.0] * n
        responses: list[bytes | None] = [None] * n
        outbox = [bytearray() for _ in self.socks]
        nxt = done = 0
        last_send = time.perf_counter()
        began = last_send
        while done < n:
            now = time.perf_counter()
            while nxt < n:
                req = requests[nxt]
                if rate:
                    if due[nxt] > now:
                        break
                elif len(self.inflight[req.conn]) >= window:
                    break
                outbox[req.conn] += req.line
                self.inflight[req.conn].append(nxt)
                sent_at[nxt] = now
                last_send = now
                nxt += 1
            pending = False
            for c, buf in enumerate(outbox):
                if buf:
                    try:
                        k = self.socks[c].send(buf)
                        del buf[:k]
                    except BlockingIOError:
                        pass
                    pending = pending or bool(buf)
            if rate and nxt < n:
                wait = due[nxt] - time.perf_counter()
            elif nxt < n:
                wait = 0.05
            else:
                wait = last_send + DRAIN_S - time.perf_counter()
                if wait <= 0:
                    break
            if pending:
                wait = min(wait, 0.0002)
            events = self.selector.select(wait - SPIN_S if wait > SPIN_S else 0)
            for key, _ in events:
                c = key.data
                try:
                    data = self.socks[c].recv(1 << 16)
                except BlockingIOError:
                    continue
                if not data:
                    raise ConnectionError(f"server closed connection {c}")
                t = time.perf_counter()
                lines = (self.partial[c] + data).split(b"\n")
                self.partial[c] = lines.pop()
                for line in lines:
                    idx = self.inflight[c].popleft()
                    recv_at[idx] = t
                    responses[idx] = line
                    done += 1
        origin = due if rate else sent_at
        # a request never answered misses every latency limit
        latencies = [(recv_at[i] - origin[i]) * 1e3 if responses[i] is not None else math.inf
                     for i in range(n)]
        late = [(sent_at[i] - due[i]) * 1e3 for i in range(nxt)] if rate else []
        return PhaseResult(latencies, late, responses, elapsed_s=time.perf_counter() - began)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, min(len(ordered), int(-(-q * len(ordered) // 100))))
    return ordered[rank - 1]
