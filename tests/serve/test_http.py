"""HTTP roundtrip tests for the serve control plane.

These go through a real socket (``asyncio.open_connection`` against
``asyncio.start_server``) so the request-line parsing, routing, error
rendering and keep-alive handling are all exercised — no shortcut into
the session.
"""

from __future__ import annotations

import asyncio
import json
import logging
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.serve import ControlServer, ServeConfig, ServeSession
from repro.serve import session as session_module
from repro.serve.script import _Client


def roundtrip(requests, config=None):
    """Boot a server, run ``requests`` on one keep-alive connection,
    return the (status, parsed-body) pairs."""

    async def go():
        session = ServeSession(config or ServeConfig(seed=11, scale=0.01))
        server = ControlServer(session)
        await server.start()
        client = _Client(server.host, server.port)
        await client.connect()
        results = []
        try:
            for method, path, body in requests:
                status, text = await client.request(method, path, body)
                try:
                    payload = json.loads(text) if text else {}
                except json.JSONDecodeError:
                    payload = text
                results.append((status, payload))
        finally:
            await client.close()
            await server.stop()
        return results

    return asyncio.run(go())


def raw_exchange(request: bytes):
    """Send ``request`` as raw bytes on a fresh connection; return
    ``(status, headers, parsed body, closed)`` where ``closed`` says the
    server hung up after its reply."""

    async def go():
        server = ControlServer(ServeSession(ServeConfig(seed=11, scale=0.01)))
        await server.start()
        reader, writer = await asyncio.open_connection(server.host, server.port)
        try:
            writer.write(request)
            await writer.drain()
            status_line = await reader.readline()
            headers = {}
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            body = await reader.readexactly(int(headers.get("content-length", 0)))
            try:
                closed = await asyncio.wait_for(reader.read(), 5.0) == b""
            except asyncio.TimeoutError:  # the server kept it open
                closed = False
        finally:
            writer.close()
            await writer.wait_closed()
            await server.stop()
        status = int(status_line.split(b" ")[1]) if status_line else None
        return status, headers, json.loads(body) if body else None, closed

    return asyncio.run(go())


class TestHostileHeads:
    """A request whose head cannot be read gets a structured reply and a
    closed connection — never an empty reply and an asyncio traceback."""

    def check_431(self, request, caplog):
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            status, headers, payload, closed = raw_exchange(request)
        assert status == 431
        assert payload["error"]["code"] == "header_too_large"
        assert headers["connection"] == "close" and closed
        assert not [r for r in caplog.records if r.name == "asyncio"]

    def test_oversized_request_line(self, caplog):
        path = "/" + "a" * 70_000
        self.check_431(f"GET {path} HTTP/1.1\r\n\r\n".encode(), caplog)

    def test_oversized_header_line(self, caplog):
        header = "X-Big: " + "b" * 70_000
        self.check_431(f"GET /healthz HTTP/1.1\r\n{header}\r\n\r\n".encode(), caplog)

    def test_too_many_header_lines(self, caplog):
        headers = "".join(f"X-H{i}: v\r\n" for i in range(101))
        self.check_431(f"GET /healthz HTTP/1.1\r\n{headers}\r\n".encode(), caplog)

    def test_a_hundred_header_lines_still_pass(self):
        headers = "".join(f"X-H{i}: v\r\n" for i in range(99))
        request = f"GET /healthz HTTP/1.1\r\n{headers}Connection: close\r\n\r\n"
        status, _headers, payload, _closed = raw_exchange(request.encode())
        assert status == 200 and payload["ok"]


class TestRoutes:
    def test_healthz(self):
        [(status, payload)] = roundtrip([("GET", "/healthz", None)])
        assert status == 200
        assert payload == {"ok": True, "now": 0.0, "mode": "switch"}

    def test_state_and_advance(self):
        results = roundtrip([
            ("GET", "/state", None),
            ("POST", "/advance", {"dt": 2.0}),
            ("GET", "/state", None),
        ])
        assert [s for s, _ in results] == [200, 200, 200]
        before, advance, after = (p for _, p in results)
        assert before["now"] == 0.0 and after["now"] == 2.0
        assert advance["arrivals"] == after["total_connections"]
        assert after["vips"] and after["vips"][0]["dips"]

    def test_metrics_is_prometheus_text(self):
        [_, (status, text)] = roundtrip([
            ("POST", "/advance", {"dt": 2.0}),
            ("GET", "/metrics", None),
        ])
        assert status == 200
        assert isinstance(text, str) or isinstance(text, dict) is False
        # Exposition format: HELP/TYPE comment lines present.
        assert "# TYPE" in str(text)

    def test_full_mutation_cycle_over_http(self):
        # state -> add spare -> drain old -> poll -> weight, all via HTTP.
        async def go():
            session = ServeSession(ServeConfig(seed=11, scale=0.01))
            server = ControlServer(session)
            await server.start()
            client = _Client(server.host, server.port)
            await client.connect()
            try:
                await client.json("POST", "/advance", {"dt": 5.0})
                _, state = await client.json("GET", "/state")
                vip = state["vips"][0]["vip"]
                old = state["vips"][0]["dips"][0]
                status, added = await client.json(
                    "POST", f"/vips/{vip}/dips", {}
                )
                assert status == 200
                assert len(added["dips"]) == len(state["vips"][0]["dips"]) + 1
                status, record = await client.json(
                    "POST", f"/dips/{old}/drain", {}
                )
                assert status == 200
                assert record["status"] in ("draining", "drained")
                for _ in range(80):
                    await client.json("POST", "/advance", {"dt": 5.0})
                    status, record = await client.json(
                        "GET", f"/dips/{old}/drain"
                    )
                    if record["status"] == "drained":
                        break
                assert record["status"] == "drained"
                survivor = added["dips"][-1]
                status, out = await client.json(
                    "PATCH", f"/dips/{survivor}", {"weight": 3}
                )
                assert status == 200 and out["requested_weight"] == 3
                status, report = await client.json("POST", "/shutdown", {})
                assert status == 200
                assert report["audit_ok"]
                assert report["unattributed_violations"] == 0
            finally:
                await client.close()
                await server.stop()

        asyncio.run(go())


def telemetry_after_updates(config):
    """Advance, add a spare and drain an old DIP over HTTP, advance until
    the updates finished, then ``GET /telemetry``: the parsed JSONL."""

    async def go():
        server = ControlServer(ServeSession(config))
        await server.start()
        client = _Client(server.host, server.port)
        await client.connect()
        try:
            await client.json("POST", "/advance", {"dt": 5.0})
            _, state = await client.json("GET", "/state")
            vip = state["vips"][0]
            await client.json("POST", f"/vips/{vip['vip']}/dips", {})
            await client.json("POST", f"/dips/{vip['dips'][0]}/drain", {})
            await client.json("POST", "/advance", {"dt": 5.0})
            status, text = await client.request("GET", "/telemetry")
            assert status == 200
        finally:
            await client.close()
            await server.stop()
        return [json.loads(line) for line in text.splitlines()]

    return asyncio.run(go())


class TestTelemetrySpans:
    """``GET /telemetry`` promises metrics + finished spans; before this
    test it served the metrics alone."""

    def check(self, records, switches):
        spans = [r for r in records if r["record"] == "span"]
        assert spans, "no update record served"
        completed = sum(
            r["value"]
            for r in records
            if r["record"] == "metric"
            and r["name"].endswith("update.updates_completed_total")
        )
        assert len(spans) == completed
        for span in spans:
            assert span["name"] == "pcc_update"
            assert span["switch"] in switches
            marks = span["marks"]
            assert marks["t_req"] <= marks["t_exec"] <= marks["t_finish"]
            assert span["attrs"]["kind"] in ("add", "drain")
        return spans

    def test_single_switch_serves_its_update_records(self):
        records = telemetry_after_updates(ServeConfig(seed=11, scale=0.01))
        spans = self.check(records, {"silkroad-serve"})
        assert [s["attrs"]["kind"] for s in spans] == ["add", "drain"]

    def test_fleet_serves_every_members_records_tagged(self, monkeypatch):
        monkeypatch.setattr(session_module, "FLEET_REPLICATION", 2)
        config = ServeConfig(seed=11, scale=0.01, num_switches=3)
        records = telemetry_after_updates(config)
        spans = self.check(records, {f"fleet-serve-{i}" for i in range(3)})
        # Replication 2: both owners of the VIP ran both updates.
        assert len({s["switch"] for s in spans}) == 2 and len(spans) == 4


class TestWallclockPacing:
    """``ServeConfig(wallclock=True)``: the server's pacer moves the clock
    with no ``/advance``, and ``POST /shutdown`` stops it."""

    @staticmethod
    def pacers():
        return [
            task for task in asyncio.all_tasks()
            if task.get_coro().__qualname__ == "WallclockPacer._run"
        ]

    def test_healthz_moves_alone_and_shutdown_stops_the_pacer(self):
        async def go():
            config = ServeConfig(seed=11, scale=0.01, wallclock=True)
            server = ControlServer(ServeSession(config))
            await server.start()
            served = asyncio.create_task(server.wait_shutdown())
            client = _Client(server.host, server.port)
            await client.connect()
            try:
                assert len(self.pacers()) == 1
                deadline, now = time.monotonic() + 2.0, 0.0
                while now == 0.0 and time.monotonic() < deadline:
                    await asyncio.sleep(0.05)
                    _, health = await client.json("GET", "/healthz")
                    now = health["now"]
                assert now > 0.0, "2 s of real time and the clock never moved"
                status, _ = await client.json("POST", "/shutdown", {})
                assert status == 200
            finally:
                await client.close()
            await asyncio.wait_for(served, 5.0)
            return self.pacers()

        assert asyncio.run(go()) == []


#: Drives a keep-alive client against a server and calls ``stop()`` with
#: no ``POST /shutdown``; prints the ``_handle`` tasks still pending.
_STOP_SCRIPT = """
import asyncio, sys
from repro.serve import ControlServer, ServeConfig, ServeSession
from repro.serve.script import _Client

async def go(client_first):
    server = ControlServer(ServeSession(ServeConfig(seed=11, scale=0.01)))
    await server.start()
    client = _Client(server.host, server.port)
    await client.connect()
    status, _ = await client.json("GET", "/healthz")
    assert status == 200
    if client_first:
        await client.close()
    await server.stop()
    pending = [
        t for t in asyncio.all_tasks()
        if t.get_coro().__qualname__ == "ControlServer._handle" and not t.done()
    ]
    print("pending handlers:", len(pending))
    if not client_first:
        await client.close()

asyncio.run(go(sys.argv[1] == "client-first"))
"""


class TestStopWaitsForHandlers:
    """``ControlServer.stop()`` with no ``POST /shutdown`` ends and awaits
    every connection handler, so none is left for ``asyncio.run`` to
    cancel (which logs "Exception in callback ... CancelledError")."""

    @pytest.mark.parametrize("order", ["client-first", "server-first"])
    def test_no_handler_left_pending_or_cancelled(self, order):
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-c", _STOP_SCRIPT, order],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "pending handlers: 0"
        assert "Exception in callback" not in proc.stderr, proc.stderr
        assert "CancelledError" not in proc.stderr, proc.stderr


class TestStructuredHttpErrors:
    def test_no_route_404(self):
        [(status, payload)] = roundtrip([("GET", "/nope", None)])
        assert status == 404
        assert payload["error"]["code"] == "no_route"

    def test_wrong_method_on_a_known_route_is_405_with_allow(self):
        status, headers, payload, closed = raw_exchange(
            b"GET /advance HTTP/1.1\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"
        )
        assert status == 405
        assert headers["allow"] == "POST"
        assert payload["error"]["code"] == "method_not_allowed"
        results = roundtrip([
            ("PATCH", "/dips/10.0.0.0:8080/drain", {}),
            ("POST", "/dips/10.0.0.0:8080", {}),
            ("GET", "/healthz", None),  # the connection survives a 405
        ])
        assert [s for s, _ in results] == [405, 405, 200]
        assert "allowed: GET, POST" in results[0][1]["error"]["message"]
        assert "allowed: DELETE, PATCH" in results[1][1]["error"]["message"]

    def test_unknown_dip_404_body(self):
        [(status, payload)] = roundtrip([
            ("POST", "/dips/1.2.3.4:99/drain", {}),
        ])
        assert status == 404
        assert payload["error"] == {
            "status": 404,
            "code": "unknown_dip",
            "message": "unknown DIP: 1.2.3.4:99",
        }

    def test_bad_json_400(self):
        async def go():
            session = ServeSession(ServeConfig(seed=11, scale=0.01))
            server = ControlServer(session)
            await server.start()
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            try:
                body = b"{not json"
                writer.write(
                    b"POST /advance HTTP/1.1\r\nHost: x\r\n"
                    + f"Content-Length: {len(body)}\r\n\r\n".encode()
                    + body
                )
                await writer.drain()
                status_line = await reader.readline()
                status = int(status_line.split(b" ")[1])
                length = 0
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    if line.lower().startswith(b"content-length:"):
                        length = int(line.split(b":")[1])
                payload = json.loads(await reader.readexactly(length))
            finally:
                writer.close()
                await writer.wait_closed()
                await server.stop()
            return status, payload

        status, payload = asyncio.run(go())
        assert status == 400
        assert payload["error"]["code"] == "bad_json"

    def test_hostile_advance_dt_400_and_healthz_answers(self):
        # bool-as-int, non-finite floats (json.loads accepts the
        # Infinity/NaN literals) and a dt that would simulate for minutes
        # under the dispatch lock must all bounce before any work is done.
        hostile = [True, float("inf"), float("nan"), -1, 1e7]
        requests = []
        for dt in hostile:
            requests.append(("POST", "/advance", {"dt": dt}))
            requests.append(("GET", "/healthz", None))
        results = roundtrip(requests)
        for (status, payload), (h_status, health) in zip(
            results[0::2], results[1::2]
        ):
            assert status == 400
            assert payload["error"]["status"] == 400
            assert payload["error"]["code"] == "bad_advance"
            assert payload["error"]["message"]
            assert h_status == 200 and health["now"] == 0.0

    def test_bad_advance_400_and_connection_survives(self):
        # A 4xx must not kill the keep-alive connection.
        results = roundtrip([
            ("POST", "/advance", {"dt": -1}),
            ("GET", "/healthz", None),
        ])
        assert results[0][0] == 400
        assert results[0][1]["error"]["code"] == "bad_advance"
        assert results[1][0] == 200
