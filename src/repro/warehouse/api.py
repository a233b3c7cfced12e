"""The running-service surface: HTTP control plane for a warehouse run.

Mirrors :mod:`repro.telemetry.serve` — stdlib ``ThreadingHTTPServer``,
ephemeral port 0 binding, handlers reading server attributes — and adds
the control endpoints the issue asks for:

* ``POST /submit`` — queue a job submission (JSON spec, see
  :func:`job_from_spec`);
* ``POST /depart`` — queue a departure by job name;
* ``GET /status`` — the latest published service snapshot as JSON;
* ``GET /metrics`` — the live Prometheus rendering, mounted next to the
  status endpoint when a registry is attached.

Handlers run on server threads while the scheduler runs the event loop
on the driver thread, and the scheduler core is deliberately
single-threaded.  The :class:`ServiceGateway` is the only object both
sides touch: handlers *enqueue* commands and *read* the last published
status under a lock that is never held across blocking work (the
RPL802 discipline); the driver drains the inbox and publishes a fresh
snapshot between ``run_until`` slices.  The scheduler itself never sees
another thread.
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Tuple, Union

from ..core.units import Seconds
from ..sanitizer.hooks import register_shared
from ..telemetry.export import prometheus_text
from ..telemetry.metrics import MetricRegistry
from ..telemetry.serve import CONTENT_TYPE as PROMETHEUS_CONTENT_TYPE
from ..workloads import (
    BG_NAMES,
    LC_NAMES,
    LoadSchedule,
    bg_workload,
    lc_workload,
)
from .events import WarehouseJob

JSON_CONTENT_TYPE = "application/json; charset=utf-8"

#: Largest ``POST`` body the control plane reads; longer ones get 413.
MAX_BODY_BYTES = 64 * 1024


@dataclass(frozen=True)
class GatewayCommand:
    """One control-plane request waiting for the driver to apply it."""

    kind: str  # "submit" | "depart"
    name: str
    job: Optional[WarehouseJob] = None
    #: Requested simulated time, or None for "as soon as possible" (the
    #: driver schedules it at the loop's current time).
    at_s: Optional[Seconds] = None


def _spec_number(value: object, error: str) -> float:
    """A finite JSON number (``true`` is an ``int`` in Python: rejected)."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not math.isfinite(value)
    ):
        raise ValueError(error)
    return float(value)


def job_from_spec(spec: Dict[str, object]) -> GatewayCommand:
    """Parse a ``POST /submit`` body into a submission command.

    The spec names a catalog workload (Tailbench LC or PARSEC BG) and
    optionally a job name, an ``at`` time, and — for LC jobs — either a
    constant ``load`` or a ``schedule`` of ``[start_s, load]`` steps::

        {"workload": "memcached", "name": "mc-1", "load": 0.6}
        {"workload": "xapian", "schedule": [[0, 0.3], [120, 0.9]]}
        {"workload": "canneal", "at": 42.0}

    Raises ValueError on anything malformed (the handler turns that
    into a 400).
    """
    workload_name = spec.get("workload")
    if not isinstance(workload_name, str):
        raise ValueError("spec needs a 'workload' name")
    name = spec.get("name", workload_name)
    if not isinstance(name, str) or not name:
        raise ValueError("'name' must be a non-empty string")
    at = spec.get("at")
    at_s = None if at is None else _spec_number(
        at, "'at' must be a finite number of simulated seconds"
    )
    if workload_name in LC_NAMES:
        schedule: Union[LoadSchedule, float]
        raw_schedule = spec.get("schedule")
        if raw_schedule is not None:
            try:
                schedule = LoadSchedule.steps(
                    [
                        (
                            _spec_number(t, "step start must be a finite number"),
                            _spec_number(load, "step load must be a finite number"),
                        )
                        for t, load in raw_schedule  # type: ignore[union-attr]
                    ]
                )
            except (TypeError, ValueError) as exc:
                raise ValueError(f"bad 'schedule': {exc}") from exc
        else:
            schedule = _spec_number(
                spec.get("load", 0.5), "'load' must be a finite number"
            )
        job = WarehouseJob.lc(lc_workload(workload_name), schedule, name)
    elif workload_name in BG_NAMES:
        if spec.get("load") is not None or spec.get("schedule") is not None:
            raise ValueError("BG jobs take neither 'load' nor 'schedule'")
        job = WarehouseJob.bg(bg_workload(workload_name), name)
    else:
        raise ValueError(
            f"unknown workload {workload_name!r}; "
            f"LC: {LC_NAMES}, BG: {BG_NAMES}"
        )
    return GatewayCommand(
        kind="submit",
        name=name,
        job=job,
        at_s=at_s,
    )


class ServiceGateway:
    """The thread boundary between HTTP handlers and the driver loop.

    The lock guards only the inbox list and the published status bytes;
    JSON encoding, spec parsing, and socket writes all happen outside
    it, so no blocking call ever runs under the lock.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._inbox: List[GatewayCommand] = []
        self._status_bytes = b"{}"
        register_shared(
            self,
            name=f"ServiceGateway@{id(self):x}",
            lock_attrs=("_lock",),
            container_attrs=("_inbox",),
        )

    def enqueue(self, command: GatewayCommand) -> None:
        """Handler side: queue a command for the driver."""
        with self._lock:
            self._inbox.append(command)

    def drain(self) -> List[GatewayCommand]:
        """Driver side: take every queued command (oldest first)."""
        with self._lock:
            commands, self._inbox = self._inbox, []
        return commands

    def publish(self, status: Dict[str, object]) -> None:
        """Driver side: refresh what ``GET /status`` serves."""
        body = json.dumps(status, indent=2, sort_keys=True).encode("utf-8")
        with self._lock:
            self._status_bytes = body

    def status_bytes(self) -> bytes:
        """Handler side: the last published snapshot."""
        with self._lock:
            return self._status_bytes


class _WarehouseHandler(BaseHTTPRequestHandler):
    """Routes the control plane; silent on the access log."""

    server_version = "repro-warehouse/1.0"

    def _respond(
        self, code: int, body: bytes, content_type: str = JSON_CONTENT_TYPE
    ) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _respond_json(self, code: int, payload: Dict[str, object]) -> None:
        self._respond(code, json.dumps(payload).encode("utf-8"))

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = self.path.split("?", 1)[0]
        gateway: ServiceGateway = self.server.gateway  # type: ignore[attr-defined]
        registry: Optional[MetricRegistry] = (
            self.server.registry  # type: ignore[attr-defined]
        )
        if path in ("/", "/status"):
            self._respond(200, gateway.status_bytes())
        elif path == "/metrics":
            if registry is None:
                self.send_error(404, "no metric registry attached")
                return
            self._respond(
                200,
                prometheus_text(registry).encode("utf-8"),
                content_type=PROMETHEUS_CONTENT_TYPE,
            )
        else:
            self.send_error(404, "try /status or /metrics")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        path = self.path.split("?", 1)[0]
        gateway: ServiceGateway = self.server.gateway  # type: ignore[attr-defined]
        header = self.headers.get("Content-Length") or "0"
        if not (header.isascii() and header.isdigit()):
            # The body was not read, so the connection cannot be reused.
            self.close_connection = True
            self._respond_json(
                400, {"error": f"bad Content-Length {header!r}"}
            )
            return
        length = int(header)
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            self._respond_json(
                413, {"error": f"body over {MAX_BODY_BYTES} bytes"}
            )
            return
        raw = self.rfile.read(length) if length else b"{}"
        try:
            spec = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._respond_json(400, {"error": f"bad JSON body: {exc}"})
            return
        if not isinstance(spec, dict):
            self._respond_json(400, {"error": "body must be a JSON object"})
            return
        if path == "/submit":
            try:
                command = job_from_spec(spec)
            except ValueError as exc:
                self._respond_json(400, {"error": str(exc)})
                return
        elif path == "/depart":
            name = spec.get("name")
            if not isinstance(name, str) or not name:
                self._respond_json(400, {"error": "'name' must be a string"})
                return
            at = spec.get("at")
            try:
                at_s = None if at is None else _spec_number(
                    at, "'at' must be a finite number"
                )
            except ValueError as exc:
                self._respond_json(400, {"error": str(exc)})
                return
            command = GatewayCommand(kind="depart", name=name, at_s=at_s)
        else:
            self.send_error(404, "try /submit or /depart")
            return
        gateway.enqueue(command)
        self._respond_json(202, {"queued": command.kind, "name": command.name})

    def log_message(self, format: str, *args: object) -> None:
        pass  # control traffic is not worth a stderr line each


class WarehouseAPIServer(ThreadingHTTPServer):
    """The bound control-plane endpoint for one warehouse run."""

    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        gateway: ServiceGateway,
        registry: Optional[MetricRegistry] = None,
    ) -> None:
        super().__init__(address, _WarehouseHandler)
        self.gateway = gateway
        self.registry = registry
        # The server object crosses into the serve_forever thread while
        # the driver keeps a handle for shutdown(); its mutable state is
        # stdlib socketserver machinery plus the (lock-guarded) gateway.
        register_shared(self, name=f"WarehouseAPIServer@{id(self):x}")

    @property
    def port(self) -> int:
        """The bound port (useful when constructed with port 0)."""
        return int(self.server_address[1])

    @property
    def url(self) -> str:
        host = self.server_address[0]
        return f"http://{host}:{self.port}"


def make_api_server(
    gateway: ServiceGateway,
    registry: Optional[MetricRegistry] = None,
    host: str = "127.0.0.1",
    port: int = 0,
) -> WarehouseAPIServer:
    """Bind (but do not start) the control plane.

    Port 0 picks a free ephemeral port; read it back from
    :attr:`WarehouseAPIServer.port`.  Call ``serve_forever()`` on a
    thread to serve, and ``shutdown()`` + ``server_close()`` when done.
    """
    return WarehouseAPIServer((host, port), gateway, registry)
