"""The serving mode's HTTP control plane.

:class:`ControlServer` speaks a deliberately small HTTP/1.1 over
``asyncio.start_server`` — request line, headers, ``Content-Length``
bodies, keep-alive — with no third-party dependency.  Every request is
dispatched under one :class:`asyncio.Lock`, so the session only ever sees
a *serial* stream of operations; with the virtual clock that makes any
scripted interaction a deterministic total order (the property the serve
determinism test and the CI smoke step pin).

The routes are one table, :meth:`ControlServer._routes` (path shape ->
method -> handler; JSON in/out unless noted), documented in
docs/serving.md.  Errors are structured: ``{"error": {"status", "code",
"message"}}``.  A known path asked with another method is a 405 with
``Allow``; a request whose head cannot be read (a line over 64 KiB, too
many header lines) is a 431, and the connection closes.
"""

from __future__ import annotations

import asyncio
import json
from typing import Callable, Dict, Optional, Tuple
from urllib.parse import unquote

from .clock import WallclockPacer
from .session import ApiError, ServeSession

_MAX_BODY = 1 << 20
_MAX_HEADER_LINES = 100


def _body(error: ApiError) -> bytes:
    return json.dumps(error.to_payload()).encode()


class ControlServer:
    """Serves the control API for one :class:`ServeSession`."""

    def __init__(
        self, session: ServeSession, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.session = session
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._lock = asyncio.Lock()
        self._pacer: Optional[WallclockPacer] = None
        self._shutdown_event = asyncio.Event()
        #: Each live connection's handler task -> its writer, so that
        #: ``stop`` can end and await them.
        self._handlers: Dict[asyncio.Task, asyncio.StreamWriter] = {}

    async def start(self) -> None:
        """Bind and start serving; ``self.port`` is the bound port."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._server = await asyncio.start_server(
            self._handle, host=self.host, port=self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.session.config.wallclock:
            self._pacer = WallclockPacer(self._paced_advance)
            self._pacer.start()

    def _paced_advance(self, dt: float) -> None:
        async def tick() -> None:
            async with self._lock:
                if not self._shutdown_event.is_set():
                    self.session.advance(dt)

        asyncio.get_running_loop().create_task(tick())

    async def wait_shutdown(self) -> None:
        """Block until a ``POST /shutdown`` lands, then tear down."""
        await self._shutdown_event.wait()
        await self.stop()

    async def stop(self) -> None:
        if self._pacer is not None:
            await self._pacer.stop()
            self._pacer = None
        if self._server is not None:
            self._server.close()
            # A live connection outlives its listener: closing its writer
            # ends the handler at EOF, and awaited, none is left to cancel.
            handlers = [t for t in self._handlers if t is not asyncio.current_task()]
            for task in handlers:
                self._handlers[task].close()
            await asyncio.gather(*handlers, return_exceptions=True)
            await self._server.wait_closed()
            self._server = None
        self._shutdown_event.set()

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._handlers[task] = writer
        try:
            while True:
                try:
                    head = await self._read_head(reader)
                except ApiError as err:  # unframeable: answer, then close
                    status, payload = err.status, _body(err)
                    await self._respond(writer, status, payload, keep_alive=False)
                    break
                if head is None:
                    break
                method, target, headers, length = head
                body = await reader.readexactly(length) if length else b""
                status, content_type, payload, extra = await self._dispatch(
                    method.upper(), target, body
                )
                keep_alive = headers.get("connection", "").lower() != "close"
                await self._respond(
                    writer, status, payload, content_type, keep_alive, extra
                )
                if self._shutdown_event.is_set() or not keep_alive:
                    break
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            finally:
                del self._handlers[task]

    @staticmethod
    async def _read_head(
        reader: asyncio.StreamReader,
    ) -> Optional[Tuple[str, str, Dict[str, str], int]]:
        """``(method, target, headers, body length)``, or ``None`` at a clean
        end of stream; a line over 64 KiB or too many header lines is a 431."""
        try:
            request_line = await reader.readline()
            if not request_line or request_line in (b"\r\n", b"\n"):
                return None
            parts = request_line.decode("latin-1").strip().split(" ", 2)
            if len(parts) != 3:
                raise ApiError(400, "bad_request", "malformed request line")
            headers: Dict[str, str] = {}
            for _ in range(_MAX_HEADER_LINES + 1):
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    length = headers.get("content-length", "0")
                    if not (length.isdecimal() and int(length) <= _MAX_BODY):
                        raise ApiError(400, "bad_request", "bad Content-Length")
                    return parts[0], parts[1], headers, int(length)
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
        except ValueError:  # StreamReader.readline past its limit
            pass
        too_large = f"a line over 64 KiB, or over {_MAX_HEADER_LINES} header lines"
        raise ApiError(431, "header_too_large", too_large)

    _REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
                405: "Method Not Allowed", 409: "Conflict",
                431: "Request Header Fields Too Large",
                500: "Internal Server Error"}

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: bytes,
        content_type: str = "application/json",
        keep_alive: bool = True,
        extra: Optional[Dict[str, str]] = None,
    ) -> None:
        reason = self._REASONS.get(status, "Unknown")
        connection = "keep-alive" if keep_alive else "close"
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: {connection}\r\n"
            + "".join(f"{k}: {v}\r\n" for k, v in (extra or {}).items())
            + "\r\n"
        )
        writer.write(head.encode("latin-1") + payload)
        await writer.drain()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    async def _dispatch(
        self, method: str, target: str, body: bytes
    ) -> Tuple[int, str, bytes, Dict[str, str]]:
        """``(status, content type, payload, extra headers)``."""
        path = unquote(target.split("?", 1)[0])
        parts = [p for p in path.split("/") if p]
        try:
            data: Dict[str, object] = {}
            if body:
                try:
                    data = json.loads(body)
                except json.JSONDecodeError:
                    raise ApiError(400, "bad_json", "request body is not JSON")
                if not isinstance(data, dict):
                    raise ApiError(400, "bad_json", "request body must be an object")
            # A path's second segment is its argument: /dips/{dip}/drain.
            shape = tuple("*" if i == 1 else p for i, p in enumerate(parts))
            arg = parts[1] if len(parts) > 1 else ""
            handlers = self._routes(arg, data).get(shape, {})
            if method not in handlers:
                where = f"{method} /{'/'.join(parts)}"
                if not handlers:
                    raise ApiError(404, "no_route", where)
                allow = ", ".join(sorted(handlers))
                where = f"{where}; allowed: {allow}"
                body = _body(ApiError(405, "method_not_allowed", where))
                return 405, "application/json", body, {"Allow": allow}
            async with self._lock:
                return (*handlers[method](), {})
        except Exception as exc:  # surface, don't kill the connection
            if not isinstance(exc, ApiError):
                exc = ApiError(500, "internal", f"{type(exc).__name__}: {exc}")
            return exc.status, "application/json", _body(exc), {}

    def _routes(
        self, arg: str, data: Dict[str, object]
    ) -> Dict[Tuple[str, ...], Dict[str, Callable[[], Tuple[int, str, bytes]]]]:
        """The route table: path shape -> method -> handler."""
        s = self.session

        def ok(payload: object) -> Tuple[int, str, bytes]:
            return 200, "application/json", json.dumps(payload).encode()

        def add_dip() -> Tuple[int, str, bytes]:
            dip = data.get("dip")
            if dip is not None and not isinstance(dip, str):
                raise ApiError(400, "bad_dip", "dip must be a string")
            return ok(s.add_dip(arg, dip))

        def shutdown() -> Tuple[int, str, bytes]:
            report = s.shutdown()
            self._shutdown_event.set()
            return ok(report)

        mode = "fleet" if s.is_fleet else "switch"
        return {
            ("healthz",): {
                "GET": lambda: ok({"ok": True, "now": s.queue.now, "mode": mode})
            },
            ("state",): {"GET": lambda: ok(s.state())},
            ("metrics",): {"GET": lambda: (
                200, "text/plain; version=0.0.4", s.metrics_text().encode()
            )},
            ("telemetry",): {"GET": lambda: (
                200, "application/x-ndjson",
                "".join(line + "\n" for line in s.telemetry_records()).encode(),
            )},
            ("advance",): {"POST": lambda: ok(s.advance(data.get("dt", 0)))},
            ("shutdown",): {"POST": shutdown},
            ("vips", "*", "dips"): {"POST": add_dip},
            ("vips", "*", "reassign"): {
                "POST": lambda: ok(s.reassign(arg, data.get("to_index", -1)))
            },
            ("dips", "*", "drain"): {
                "POST": lambda: ok(s.drain_dip(arg)),
                "GET": lambda: ok(s.drain_state(arg)),
            },
            ("dips", "*"): {
                "DELETE": lambda: ok(s.remove_dip(arg)),
                "PATCH": lambda: ok(s.set_weight(arg, data.get("weight", 0))),
            },
        }
