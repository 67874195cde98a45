"""Scripted serving runs: boot a control server, drive it over HTTP.

:func:`run_serve_script` is the one-call harness behind the serve
determinism test, the CLI ``serve --script`` mode and the CI serve smoke
step: it boots a :class:`~repro.serve.http.ControlServer` on an ephemeral
port, executes a JSON-able op list through a real HTTP client
(``asyncio.open_connection`` — the full parse/route/serialize path is
exercised, not a shortcut into the session), posts ``/shutdown`` and
returns the final report.  Ops address VIPs and DIPs *by index into the
current state*, so one script works across seeds and scales.

:data:`DEFAULT_MIGRATION_SCRIPT` is the flagship scenario: a live backend
migration — grow the pool from the spare reserve, gracefully drain the
old backend, advance until every connection pinned to it has finished
(asserting zero broken connections by construction: a drain never breaks
anything), bump a survivor's weight, and (on fleets) move the VIP to
another switch mid-stream.  With ``chaos=True`` the seeded fault plan
fires throughout.

Because the whole exchange is serial and the clock virtual, two runs of
the same script against the same :class:`~repro.serve.session.ServeConfig`
are bit-identical — ``ServeScriptResult.fingerprint`` is the metric
registry fingerprint the determinism check compares.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .http import ControlServer
from .session import ServeConfig, ServeSession

#: Live DIP migration with drain-completion polling; ``fleet_only`` ops
#: are skipped on single-switch sessions.
DEFAULT_MIGRATION_SCRIPT: List[Dict[str, object]] = [
    {"op": "advance", "dt": 2.0},
    # Step 1 of the migration: bring up the replacement backend.
    {"op": "add_spare", "vip_index": 0},
    {"op": "advance", "dt": 1.0},
    # Step 2: gracefully drain the old backend (PCC-safe 3-step update).
    {"op": "drain", "vip_index": 0, "dip_index": 0},
    {"op": "advance", "dt": 1.0},
    # Re-drain while draining: must be idempotent (no second update).
    {"op": "redrain"},
    # Step 3: wait until the pool flip finished and every pinned
    # connection ended naturally.
    {"op": "advance_until_drained", "dt": 5.0, "max_steps": 60},
    # Shift new-connection share onto a survivor.
    {"op": "weight", "vip_index": 0, "dip_index": 0, "weight": 3},
    {"op": "advance", "dt": 2.0},
    # Fleets additionally move the VIP to another switch mid-stream.
    {"op": "reassign", "vip_index": 0, "to_index": 1, "fleet_only": True},
    {"op": "advance", "dt": 3.0},
]


@dataclass
class ServeScriptResult:
    """Everything a scripted serve run produced, ready for assertions."""

    fingerprint: str
    report: Dict[str, object]
    responses: List[Dict[str, object]] = field(default_factory=list)
    telemetry: str = ""

    @property
    def ok(self) -> bool:
        return bool(
            self.report.get("audit_ok")
            and self.report.get("unattributed_violations") == 0
        )

    def summary(self) -> str:
        report = self.report
        return (
            f"{report['total_connections']} connections, "
            f"{report['mutations']} mutations over {report['advances']} advances, "
            f"{report['pcc_violations']} PCC violations "
            f"({report['unattributed_violations']} unattributed), "
            f"audit {'ok' if report['audit_ok'] else 'FAILED'}"
        )


class _Client:
    """Minimal HTTP/1.1 client over one keep-alive connection."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def request(
        self, method: str, path: str, body: Optional[Dict[str, object]] = None
    ) -> Tuple[int, str]:
        payload = json.dumps(body).encode() if body is not None else b""
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            "Content-Type: application/json\r\n\r\n"
        )
        self._writer.write(head.encode("latin-1") + payload)
        await self._writer.drain()
        status_line = await self._reader.readline()
        status = int(status_line.decode("latin-1").split(" ", 2)[1])
        length = 0
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        body_bytes = await self._reader.readexactly(length) if length else b""
        return status, body_bytes.decode()

    async def json(
        self, method: str, path: str, body: Optional[Dict[str, object]] = None
    ) -> Tuple[int, Dict[str, object]]:
        status, text = await self.request(method, path, body)
        return status, (json.loads(text) if text else {})


async def _run_script(
    config: ServeConfig, script: List[Dict[str, object]]
) -> ServeScriptResult:
    session = ServeSession(config)
    server = ControlServer(session)
    await server.start()
    client = _Client(server.host, server.port)
    await client.connect()
    responses: List[Dict[str, object]] = []
    #: DIP addresses captured when ops referenced them, for later polling.
    drained: List[str] = []

    async def state() -> Dict[str, object]:
        _, payload = await client.json("GET", "/state")
        return payload

    def note(op: str, status: int, payload: Dict[str, object]) -> None:
        responses.append({"op": op, "status": status, "response": payload})

    try:
        for step in script:
            op = step["op"]
            if step.get("fleet_only") and not session.is_fleet:
                continue
            if op == "advance":
                status, payload = await client.json(
                    "POST", "/advance", {"dt": step["dt"]}
                )
                note(op, status, payload)
            elif op == "add_spare":
                vips = (await state())["vips"]
                vip = vips[step.get("vip_index", 0)]["vip"]
                status, payload = await client.json(
                    "POST", f"/vips/{vip}/dips", {}
                )
                note(op, status, payload)
            elif op == "drain":
                vips = (await state())["vips"]
                entry = vips[step.get("vip_index", 0)]
                dip = entry["dips"][step.get("dip_index", 0)]
                status, payload = await client.json(
                    "POST", f"/dips/{dip}/drain", {}
                )
                if status == 200:
                    drained.append(dip)
                note(op, status, payload)
            elif op == "redrain":
                if drained:
                    status, payload = await client.json(
                        "POST", f"/dips/{drained[-1]}/drain", {}
                    )
                    note(op, status, payload)
            elif op == "advance_until_drained":
                dip = drained[-1] if drained else None
                for _ in range(int(step.get("max_steps", 40))):
                    status, payload = await client.json(
                        "POST", "/advance", {"dt": step.get("dt", 5.0)}
                    )
                    if dip is None:
                        break
                    status, payload = await client.json(
                        "GET", f"/dips/{dip}/drain"
                    )
                    if payload.get("status") == "drained":
                        break
                note(op, status, payload)
            elif op == "weight":
                vips = (await state())["vips"]
                entry = vips[step.get("vip_index", 0)]
                dip = entry["dips"][step.get("dip_index", 0)]
                status, payload = await client.json(
                    "PATCH", f"/dips/{dip}", {"weight": step["weight"]}
                )
                note(op, status, payload)
            elif op == "remove":
                vips = (await state())["vips"]
                entry = vips[step.get("vip_index", 0)]
                dip = entry["dips"][step.get("dip_index", 0)]
                status, payload = await client.json("DELETE", f"/dips/{dip}")
                note(op, status, payload)
            elif op == "reassign":
                # Chaos can make reassignment momentarily impossible (the
                # VIP shed, every target down or un-synced) — a legitimate
                # 409.  Do what an operator loop does: re-pick an eligible
                # target from the live state and retry across advances
                # until the fleet heals.
                status, payload = 409, {}
                for attempt in range(int(step.get("max_attempts", 20))):
                    if attempt:
                        await client.json(
                            "POST", "/advance", {"dt": step.get("retry_dt", 3.0)}
                        )
                    snapshot = await state()
                    entry = snapshot["vips"][step.get("vip_index", 0)]
                    vip = entry["vip"]
                    to_index = step.get("to_index")
                    owners = set(entry.get("owners") or ())
                    candidates = [
                        sw["index"]
                        for sw in snapshot.get("switches") or ()
                        if sw["dataplane_up"]
                        and sw["synced"]
                        and sw["index"] not in owners
                    ]
                    if to_index not in candidates and candidates:
                        to_index = candidates[0]
                    if to_index is None:
                        to_index = 1
                    status, payload = await client.json(
                        "POST", f"/vips/{vip}/reassign", {"to_index": to_index}
                    )
                    if status == 200:
                        break
                note(op, status, payload)
            else:
                raise ValueError(f"unknown script op: {op!r}")
        _, telemetry = await client.request("GET", "/telemetry")
        status, report = await client.json("POST", "/shutdown", {})
        note("shutdown", status, report)
    finally:
        await client.close()
        await server.stop()
    return ServeScriptResult(
        fingerprint=str(report.get("fingerprint", "")),
        report=report,
        responses=responses,
        telemetry=telemetry,
    )


def run_serve_script(
    config: ServeConfig = ServeConfig(),
    script: Optional[List[Dict[str, object]]] = None,
) -> ServeScriptResult:
    """Boot a server, run ``script`` (default: the live migration), shut
    down, and return the final report + per-op responses."""
    if script is None:
        script = DEFAULT_MIGRATION_SCRIPT
    return asyncio.run(_run_script(config, script))
