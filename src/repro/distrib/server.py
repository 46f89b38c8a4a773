"""Network front door: a socket server wrapping :class:`AlignmentService`.

The server speaks the length-prefixed JSON protocol of
``repro.distrib.wire``.  One connection handles any number of requests,
each a single frame with an ``"op"`` field:

``ping``
    Liveness + identity (pid, engine, transport, state path).
``submit``
    ``{"op": "submit", "jobs": [...]}`` — align a batch and reply with the
    results (wire-exact) plus per-job cache-hit flags.
``stats`` / ``metrics``
    The service's :meth:`stats` dict / full metrics snapshot, including the
    shard-0 series merged back from the worker process.
``shutdown``
    Ask the server to stop serving after replying.

Shutdown is always graceful: ``close(drain=True)`` (also the SIGINT/SIGTERM
path installed by :meth:`serve_forever`) stops accepting connections,
drains the submission queue, flushes durable state and joins the worker —
in-flight tickets complete instead of being dropped.
"""

from __future__ import annotations

import os
import signal
import socket
import threading
import traceback
from typing import Any

from ..errors import ReproError, ServiceError
from .wire import job_from_wire, recv_frame, result_to_wire, send_frame

__all__ = ["AlignmentServer", "GracefulShutdown"]


class GracefulShutdown:
    """Context manager turning SIGINT/SIGTERM into an orderly stop request.

    The handler only sets :attr:`requested`; the serving loop notices and
    walks its normal drain-flush-join shutdown path instead of dying with
    tickets in flight.  Previous handlers are restored on exit.
    """

    _SIGNALS = (signal.SIGINT, signal.SIGTERM)

    def __init__(self) -> None:
        self.requested = threading.Event()
        self._previous: dict[int, Any] = {}

    def __enter__(self) -> "GracefulShutdown":
        for signum in self._SIGNALS:
            try:
                self._previous[signum] = signal.signal(signum, self._handle)
            except (ValueError, OSError):
                pass  # not the main thread / unsupported platform
        return self

    def __exit__(self, *exc_info: object) -> None:
        for signum, previous in self._previous.items():
            try:
                signal.signal(signum, previous)
            except (ValueError, OSError):
                pass

    def _handle(self, signum: int, frame: Any) -> None:
        self.requested.set()


class AlignmentServer:
    """Serve an :class:`~repro.service.AlignmentService` over a socket.

    Parameters
    ----------
    config:
        :class:`repro.api.AlignConfig` the service is built from (transport
        and durable state path come from ``config.service``).
    host, port:
        Bind address; ``port=0`` picks a free port (read it back from
        :attr:`port`).

    The server owns its service and shuts it down in :meth:`close`.
    """

    def __init__(self, config, host: str = "127.0.0.1", port: int = 0) -> None:
        from ..service import AlignmentService

        self.service = AlignmentService(config=config)
        self.config = self.service.config
        self._sock = socket.create_server((host, port))
        self.host, self.port = self._sock.getsockname()[:2]
        self._stop = threading.Event()
        self._accept_thread: threading.Thread | None = None
        self._conn_threads: list[threading.Thread] = []
        self._lock = threading.Lock()
        self._closed = False
        self._requests_c = self.service.obs.counter(
            "repro_server_requests_total",
            "requests handled by the network front door",
            labelnames=("op",),
        )
        self._connections_c = self.service.obs.counter(
            "repro_server_connections_total",
            "client connections accepted",
        )

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    # -- lifecycle --------------------------------------------------------

    def start(self) -> "AlignmentServer":
        """Start accepting connections (idempotent)."""
        if self._closed:
            raise ServiceError("server has been closed")
        if self._accept_thread is None or not self._accept_thread.is_alive():
            self._accept_thread = threading.Thread(
                target=self._accept_loop, name="repro-server-accept", daemon=True
            )
            self._accept_thread.start()
        return self

    def serve_forever(self, install_signal_handlers: bool = False) -> None:
        """Serve until :meth:`request_stop` (or SIGINT/SIGTERM), then drain."""
        self.start()
        if install_signal_handlers:
            with GracefulShutdown() as stop:
                while not self._stop.is_set() and not stop.requested.is_set():
                    stop.requested.wait(0.2)
        else:
            self._stop.wait()
        self.close(drain=True)

    def request_stop(self) -> None:
        self._stop.set()

    def close(self, drain: bool = True) -> None:
        """Stop accepting, finish open connections, shut the service down."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._stop.set()
        try:
            self._sock.close()
        except OSError:
            pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        for thread in list(self._conn_threads):
            thread.join(timeout=10.0)
        self.service.shutdown(drain=drain)

    def __enter__(self) -> "AlignmentServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close(drain=exc_info[0] is None)

    # -- connection handling ----------------------------------------------

    def _accept_loop(self) -> None:
        self._sock.settimeout(0.2)
        while not self._stop.is_set():
            try:
                conn, _addr = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            self._connections_c.inc()
            thread = threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                name="repro-server-conn",
                daemon=True,
            )
            thread.start()
            with self._lock:
                self._conn_threads.append(thread)
                self._conn_threads = [
                    t for t in self._conn_threads if t.is_alive()
                ]

    def _serve_connection(self, conn: socket.socket) -> None:
        with conn:
            while not self._stop.is_set():
                try:
                    request = recv_frame(conn)
                except ServiceError:
                    # An undecodable frame closes only this connection, and
                    # is counted as a request of its own kind.
                    self._requests_c.inc(op="malformed")
                    return
                except OSError:
                    return
                if request is None:
                    return
                response = self._handle_request(request)
                try:
                    send_frame(conn, response)
                except OSError:
                    return
                if request.get("op") == "shutdown" and response.get("ok"):
                    self.request_stop()
                    return

    def _handle_request(self, request: dict[str, Any]) -> dict[str, Any]:
        op = str(request.get("op", ""))
        self._requests_c.inc(op=op or "unknown")
        try:
            if op == "ping":
                return {"ok": True, "server": self._identity()}
            if op == "submit":
                return self._handle_submit(request)
            if op == "stats":
                return {"ok": True, "stats": self.service.stats().to_dict()}
            if op == "metrics":
                return {
                    "ok": True,
                    "metrics": self.service.metrics_snapshot().to_dict(),
                }
            if op == "shutdown":
                return {"ok": True, "stopping": True}
            return {"ok": False, "error": f"unknown op {op!r}"}
        except ReproError as exc:
            return {"ok": False, "error": str(exc)}
        except Exception as exc:  # never let a handler kill the connection
            return {
                "ok": False,
                "error": f"{type(exc).__name__}: {exc}",
                "traceback": traceback.format_exc(),
            }

    def _handle_submit(self, request: dict[str, Any]) -> dict[str, Any]:
        jobs = [job_from_wire(payload) for payload in request.get("jobs", [])]
        if not jobs:
            return {"ok": True, "results": [], "cached": []}
        timeout = float(request.get("timeout", 300.0))
        tickets = self.service.submit_many(jobs)
        if not self.service.running:
            self.service.drain()
        results = [ticket.result(timeout=timeout) for ticket in tickets]
        return {
            "ok": True,
            "results": [result_to_wire(result) for result in results],
            "cached": [bool(ticket.cache_hit) for ticket in tickets],
        }

    def _identity(self) -> dict[str, Any]:
        return {
            "pid": os.getpid(),
            "engine": self.config.engine,
            "transport": self.config.service.transport,
            "state_path": self.config.service.state_path,
        }
