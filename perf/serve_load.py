"""The ``serve_migration`` load: one HTTP client, closed loop, loopback.

A real client over ``asyncio.open_connection`` on **one** keep-alive
connection drives a :class:`repro.api.ControlServer`, so the whole
parse/route/serialize path is inside every latency sample.  Closed loop,
1 client: the next request goes out only after the previous reply was
read in full, so a slower server is offered less load — latency is the
number to read, not throughput.

Each of ``cycles`` cycles is ``POST /advance {"dt": 0.5}`` followed by
``GET /metrics``, ``GET /state`` and ``GET /telemetry``.  On top rides a
rolling migration, one VIP after another, each taking
``cycles // vips`` cycles: add a spare backend, gracefully drain the
first original backend, poll the drain, give the spare weight 2, and
hard-remove the second original backend (``DELETE`` of an already
drained DIP is a 409 by design, so the route is exercised on a live one).
Every reply must be a 200.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import api

from .trace import ROUNDTRIP_SPAN, Tracer


class HttpClient:
    """Minimal HTTP/1.1 client over one keep-alive connection."""

    def __init__(self, host: str, port: int, tracer: Optional[Tracer] = None) -> None:
        self.host = host
        self.port = port
        self.tracer = tracer
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(self.host, self.port)

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def request(
        self, method: str, path: str, body: Optional[Dict[str, object]] = None
    ) -> Tuple[int, bytes, float]:
        """One round trip; returns ``(status, body, client-observed seconds)``
        with the reply read in full inside the timed region."""
        payload = json.dumps(body).encode() if body is not None else b""
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            "Content-Type: application/json\r\n\r\n"
        ).encode("latin-1")
        tracer = self.tracer
        if tracer is not None:
            tracer.push(ROUNDTRIP_SPAN)
        start = time.perf_counter()
        try:
            self._writer.write(head + payload)
            await self._writer.drain()
            status_line = await self._reader.readline()
            status = int(status_line.split(b" ", 2)[1])
            length = 0
            while True:
                line = await self._reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.partition(b":")
                if name.strip().lower() == b"content-length":
                    length = int(value.strip())
            data = await self._reader.readexactly(length) if length else b""
            elapsed = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.pop()
        return status, data, elapsed


@dataclass
class ServeRun:
    """What one scripted session produced."""

    report: Dict[str, object]
    timed_s: float = 0.0
    #: seconds inside ``/advance`` round trips (conns_per_s denominator).
    advance_s: float = 0.0
    #: yardstick sampled between the calls: (chunk seconds, chunks).
    cal: Tuple[float, int] = (0.0, 0)
    #: ``(kind, seconds)`` of every other call, in order; kind is
    #: "read" (GET) or "write" (POST/PATCH/DELETE).
    ctl: List[Tuple[str, float]] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    events_fired: int = 0
    #: the session's metric registry, for the count metrics.
    registry: Optional[object] = None


async def boot(config) -> Tuple[object, object, HttpClient]:
    """Session + server on an ephemeral loopback port + connected client."""
    session = api.ServeSession(config)
    server = api.ControlServer(session)
    await server.start()
    client = HttpClient(server.host, server.port)
    await client.connect()
    return session, server, client


async def shut(server, client: HttpClient) -> None:
    """Close the client, stop the server, and wait for the server's
    per-connection handler task to end, so that nothing is left for
    ``asyncio.run`` to cancel (which CPython 3.11 logs as an error)."""
    await client.close()
    await server.stop()
    current = asyncio.current_task()
    handlers = [t for t in asyncio.all_tasks() if t is not current]
    if handlers:
        await asyncio.wait(handlers, timeout=5.0)


async def boot_and_close(config) -> None:
    """The serve workload's set-up cost, in isolation."""
    _session, server, client = await boot(config)
    await shut(server, client)


async def run_migration(
    config,
    cycles: int,
    dt: float = 0.5,
    tracer: Optional[Tracer] = None,
    kernel=None,
) -> ServeRun:
    """One scripted session.  ``kernel`` (a ``calibrate.Kernel``) runs one
    yardstick chunk on the client side after every ``/advance`` reply."""
    session, server, client = await boot(config)
    client.tracer = tracer
    run = ServeRun(report={})
    cal_s, chunks = 0.0, 0

    async def call(kind: str, method: str, path: str, body=None) -> bytes:
        status, data, elapsed = await client.request(method, path, body)
        if kind == "advance":
            run.advance_s += elapsed
        else:
            run.ctl.append((kind, elapsed))
        if status != 200 or not data:
            run.failures.append(f"{method} {path} -> {status} {data[:120]!r}")
        return data

    try:
        started = time.perf_counter()
        state = json.loads(await call("read", "GET", "/state"))
        vips = [entry["vip"] for entry in state["vips"]]
        per_vip = cycles // len(vips)
        polls = max(1, min(per_vip - 4, per_vip * 3 // 4))
        #: per-VIP migration targets, fixed when its window opens.
        old = spare = victim = ""
        before: List[str] = []
        for cycle in range(cycles):
            await call("advance", "POST", "/advance", {"dt": dt})
            if kernel is not None:
                cal_s += kernel.chunk()
                chunks += 1
            await call("read", "GET", "/metrics")
            state_body = await call("read", "GET", "/state")
            await call("read", "GET", "/telemetry")
            index, step = divmod(cycle, per_vip)
            if index >= len(vips):
                continue
            vip = vips[index]
            if step == 0:
                before = json.loads(state_body)["vips"][index]["dips"]
                old, victim = before[0], before[1]
                await call("write", "POST", f"/vips/{vip}/dips", {})
            elif step == 1:
                # The ADD went through the 3-step update; by now it has
                # executed, so the spare shows in the pool.
                pool = json.loads(state_body)["vips"][index]["dips"]
                added = [d for d in pool if d not in before]
                if not added:
                    run.failures.append(f"spare of {vip} not in pool after {dt}s")
                    continue
                spare = added[0]
                await call("write", "POST", f"/dips/{old}/drain", {})
            elif step < 2 + polls:
                await call("read", "GET", f"/dips/{old}/drain")
            elif step == 2 + polls:
                await call("write", "PATCH", f"/dips/{spare}", {"weight": 2})
            elif step == 3 + polls:
                await call("write", "DELETE", f"/dips/{victim}")
        run.timed_s = time.perf_counter() - started
        run.cal = (cal_s, chunks)
        run.events_fired = session.queue.processed
        status, data, _ = await client.request("POST", "/shutdown", {})
        if status != 200:
            run.failures.append(f"POST /shutdown -> {status}")
        run.report = json.loads(data) if data else {}
    finally:
        await shut(server, client)
    run.registry = session.lb.metrics
    return run
