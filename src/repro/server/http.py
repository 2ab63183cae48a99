"""The sweep server's network front door: a stdlib-only asyncio HTTP/1.1 loop.

No web framework — requests are small JSON documents and the handler set is
closed, so a hand-rolled parser over ``asyncio.start_server`` keeps the
server importable everywhere the simulator is. Every connection handles one
request (``Connection: close``), which sidesteps keep-alive bookkeeping;
clients that care about latency reuse the OS connection setup cost, not us.

Routes (all under ``/v1``, wire schema v1 — see docs/server.md):

========  ============================  =========================================
method    path                          body / response
========  ============================  =========================================
GET       /v1/health                    server + registry info
POST      /v1/jobs                      spec or grid wire payload → receipt
GET       /v1/jobs                      all jobs (no per-cell detail)
GET       /v1/jobs/{id}                 full status incl. per-cell states
GET       /v1/jobs/{id}/events?since=N  events past N (non-blocking poll)
GET       /v1/jobs/{id}/stream?since=N  same log as Server-Sent Events
GET       /v1/jobs/{id}/results         durable results for every cell
POST      /v1/jobs/{id}/cancel          request cancellation
POST      /v1/predict                   spec or grid → surrogate estimates
========  ============================  =========================================

Error shape: every non-2xx response is ``{"error": {"message": ...}}``;
validation failures (422) add ``field``/``value``/``choices`` from
:class:`~repro.api.wire.WireError`.

Blocking job state lives behind :class:`~repro.server.jobs.JobManager`
(threads); the asyncio side bridges into it with ``run_in_executor`` only
where it must block (the SSE feed), so one stuck client never stalls the
accept loop.
"""

from __future__ import annotations

import asyncio
import json
from typing import Dict, Optional, Tuple

from repro.api.wire import (
    WIRE_VERSION,
    WireError,
    grid_from_wire,
    is_grid_payload,
    spec_from_wire,
    tenant_from_payload,
)
from repro.server.jobs import JobManager, QuotaError, SurrogateUnavailable

#: Largest request body we read; submissions are small JSON documents.
MAX_BODY_BYTES = 1 << 20
#: One SSE keep-alive/poll cycle: how long a stream blocks waiting for the
#: next event before emitting a comment line (so dead clients surface).
SSE_WAIT_SECONDS = 15.0


class _HttpError(Exception):
    def __init__(self, status: int, payload: Dict[str, object]) -> None:
        super().__init__(payload.get("message", ""))
        self.status = status
        self.payload = payload


_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


def _response_bytes(
    status: int, body: bytes, content_type: str = "application/json"
) -> bytes:
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n"
        "\r\n"
    )
    return head.encode("ascii") + body


def _json_response(status: int, payload: Dict[str, object]) -> bytes:
    return _response_bytes(status, json.dumps(payload).encode("utf-8"))


def _error_response(status: int, payload: Dict[str, object]) -> bytes:
    return _json_response(status, {"error": payload})


class SweepServer:
    """Binds a :class:`~repro.server.jobs.JobManager` to a TCP port."""

    def __init__(
        self, manager: JobManager, host: str = "127.0.0.1", port: int = 8321
    ) -> None:
        self.manager = manager
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    # ------------------------------------------------------------- serving --

    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting; returns the bound (host, port).

        ``port=0`` binds an ephemeral port — the return value is the real
        one (tests and the CLI's startup line use this).
        """
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        sockname = self._server.sockets[0].getsockname()
        self.port = sockname[1]
        return sockname[0], sockname[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self.manager.close()

    # ---------------------------------------------------------- connection --

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                (
                    method,
                    path,
                    query,
                    body,
                    headers,
                ) = await self._read_request(reader)
            except _HttpError as exc:
                writer.write(_error_response(exc.status, exc.payload))
                await writer.drain()
                return
            except (asyncio.IncompleteReadError, ConnectionError, ValueError):
                return  # malformed or vanished client; nothing to say

            try:
                await self._route(method, path, query, body, headers, writer)
            except _HttpError as exc:
                writer.write(_error_response(exc.status, exc.payload))
                await writer.drain()
            except WireError as exc:
                writer.write(_error_response(422, exc.to_payload()))
                await writer.drain()
            except QuotaError as exc:
                writer.write(_error_response(exc.status, {"message": str(exc)}))
                await writer.drain()
            except SurrogateUnavailable as exc:
                writer.write(_error_response(503, {"message": str(exc)}))
                await writer.drain()
            except ConnectionError:
                pass  # client went away mid-response (SSE disconnect)
            except Exception as exc:  # noqa: BLE001 — one request, not the server
                writer.write(
                    _error_response(
                        500, {"message": f"{type(exc).__name__}: {exc}"}
                    )
                )
                await writer.drain()
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Tuple[str, str, Dict[str, str], Optional[dict], Dict[str, str]]:
        request_line = (await reader.readline()).decode("latin-1").rstrip("\r\n")
        if not request_line:
            raise ValueError("empty request")
        parts = request_line.split(" ")
        if len(parts) != 3:
            raise _HttpError(400, {"message": "malformed request line"})
        method, target, _version = parts

        headers: Dict[str, str] = {}
        while True:
            line = (await reader.readline()).decode("latin-1").rstrip("\r\n")
            if not line:
                break
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()

        path, _, query_string = target.partition("?")
        query: Dict[str, str] = {}
        for pair in query_string.split("&"):
            if pair:
                key, _, value = pair.partition("=")
                query[key] = value

        body: Optional[dict] = None
        length = int(headers.get("content-length", "0") or "0")
        if length > MAX_BODY_BYTES:
            raise _HttpError(
                413,
                {
                    "message": f"request body of {length} bytes exceeds the "
                    f"{MAX_BODY_BYTES}-byte limit"
                },
            )
        if length:
            raw = await reader.readexactly(length)
            try:
                body = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise _HttpError(
                    400, {"message": f"request body is not valid JSON: {exc}"}
                ) from exc
        return method, path, query, body, headers

    # -------------------------------------------------------------- routes --

    async def _route(
        self,
        method: str,
        path: str,
        query: Dict[str, str],
        body: Optional[dict],
        headers: Dict[str, str],
        writer: asyncio.StreamWriter,
    ) -> None:
        segments = [segment for segment in path.split("/") if segment]
        if not segments or segments[0] != "v1":
            raise _HttpError(404, {"message": f"unknown path {path!r}"})
        segments = segments[1:]

        if segments == ["health"]:
            self._require(method, "GET")
            writer.write(_json_response(200, self._health()))
            await writer.drain()
            return

        if segments == ["predict"]:
            self._require(method, "POST")
            writer.write(_json_response(200, self._predict(body, headers)))
            await writer.drain()
            return

        if segments == ["jobs"]:
            if method == "POST":
                writer.write(_json_response(202, self._submit(body, headers)))
            else:
                self._require(method, "GET")
                writer.write(
                    _json_response(
                        200,
                        {
                            "jobs": [
                                job.to_payload(cells=False)
                                for job in self.manager.jobs()
                            ]
                        },
                    )
                )
            await writer.drain()
            return

        if len(segments) >= 2 and segments[0] == "jobs":
            job = self.manager.get(segments[1])
            if job is None:
                raise _HttpError(
                    404, {"message": f"unknown job {segments[1]!r}"}
                )
            rest = segments[2:]
            if not rest:
                self._require(method, "GET")
                writer.write(_json_response(200, job.to_payload()))
            elif rest == ["events"]:
                self._require(method, "GET")
                since = self._since(query)
                events, done = job.wait_events(since, timeout=0)
                writer.write(
                    _json_response(
                        200, {"events": events, "done": done, "state": job.state}
                    )
                )
            elif rest == ["stream"]:
                self._require(method, "GET")
                await self._stream_events(job, self._since(query), writer)
                return
            elif rest == ["results"]:
                self._require(method, "GET")
                writer.write(
                    _json_response(
                        200,
                        {
                            "id": job.id,
                            "state": job.state,
                            "cells": self.manager.results(job),
                        },
                    )
                )
            elif rest == ["cancel"]:
                self._require(method, "POST")
                self.manager.cancel(job.id)
                writer.write(
                    _json_response(202, {"id": job.id, "state": job.state})
                )
            else:
                raise _HttpError(404, {"message": f"unknown path {path!r}"})
            await writer.drain()
            return

        raise _HttpError(404, {"message": f"unknown path {path!r}"})

    def _require(self, method: str, expected: str) -> None:
        if method != expected:
            raise _HttpError(
                405, {"message": f"method {method} not allowed here"}
            )

    def _since(self, query: Dict[str, str]) -> int:
        raw = query.get("since", "0")
        try:
            return max(0, int(raw))
        except ValueError:
            raise _HttpError(
                400, {"message": f"since must be an integer, got {raw!r}"}
            ) from None

    def _health(self) -> Dict[str, object]:
        from repro.sim.backends import available_backends
        from repro.sim.simulator import available_predictors
        from repro.workloads.spec2017 import SPEC_PROFILES

        payload: Dict[str, object] = {
            "ok": True,
            "wire_version": WIRE_VERSION,
            "store": str(self.manager.store.root),
            "workloads": sorted(SPEC_PROFILES),
            "predictors": sorted(available_predictors()),
            "backends": sorted(available_backends()),
            "max_cells_per_job": self.manager.max_cells,
            "max_queued_jobs": self.manager.max_queued,
            "dispatchers": self.manager.dispatchers,
            "sharding": self.manager.leases is not None,
        }
        if self.manager.leases is not None:
            payload["lease_owner"] = self.manager.leases.owner
            payload["lease_ttl"] = self.manager.leases.ttl
        tier = self.manager.surrogate
        if tier is not None:
            payload["surrogate"] = {
                "mode": tier.mode,
                "model_sha256": tier.model.content_sha256,
                "level": tier.model.level,
            }
        else:
            payload["surrogate"] = None
        return payload

    @staticmethod
    def _tenant(body: dict, headers: Dict[str, str]) -> Optional[str]:
        """Resolve the submission's tenant id, if any.

        Two equivalent carriers (docs/api.md): a ``Bearer`` token in the
        ``Authorization`` header, or ``ext.tenant`` in the payload. When
        both are present they must agree — a submission must not pass one
        tenant's quota check while being attributed to another.
        """
        from_ext = tenant_from_payload(body)
        from_header: Optional[str] = None
        auth = headers.get("authorization", "")
        if auth:
            scheme, _, token = auth.partition(" ")
            if scheme.lower() != "bearer" or not token.strip():
                raise _HttpError(
                    400,
                    {
                        "message": "Authorization must be 'Bearer <tenant>'",
                    },
                )
            from_header = token.strip()
        if from_ext is not None and from_header is not None:
            if from_ext != from_header:
                raise WireError(
                    "ext.tenant and the Authorization bearer token disagree",
                    field="ext.tenant",
                    value=from_ext,
                )
            return from_ext
        return from_header if from_header is not None else from_ext

    def _submit(
        self, body: Optional[dict], headers: Optional[Dict[str, str]] = None
    ) -> Dict[str, object]:
        if body is None:
            raise _HttpError(400, {"message": "a JSON body is required"})
        if not isinstance(body, dict):
            raise WireError("submission payload must be an object")
        tenant = self._tenant(body, headers or {})
        check_invariants = False
        if is_grid_payload(body):
            grid = grid_from_wire(body)
            check_invariants = grid.check_invariants
            specs = grid.specs()
        else:
            # A spec carries its own check_invariants to the worker.
            specs = [spec_from_wire(body)]
        _job, receipt = self.manager.submit(
            specs, check_invariants=check_invariants, tenant=tenant
        )
        return receipt

    def _predict(
        self, body: Optional[dict], headers: Optional[Dict[str, str]] = None
    ) -> Dict[str, object]:
        """Answer a grid from the surrogate model — no job, no executor."""
        if body is None:
            raise _HttpError(400, {"message": "a JSON body is required"})
        if not isinstance(body, dict):
            raise WireError("predict payload must be an object")
        tenant = self._tenant(body, headers or {})
        if is_grid_payload(body):
            specs = grid_from_wire(body).specs()
        else:
            specs = [spec_from_wire(body)]
        predictions = self.manager.predict(specs, tenant=tenant)
        tier = self.manager.surrogate
        payload: Dict[str, object] = {
            "wire_version": WIRE_VERSION,
            "count": len(predictions),
            "model_sha256": tier.model.content_sha256,
            "level": tier.model.level,
            "predictions": predictions,
        }
        if tenant is not None:
            payload["tenant"] = tenant
        return payload

    # ----------------------------------------------------------------- SSE --

    async def _stream_events(self, job, since: int, writer) -> None:
        """Bridge the job's event log into a Server-Sent-Events response.

        Each event goes out as ``id:`` (the sequence number), ``event:``
        (cell/heartbeat/job) and ``data:`` (the JSON payload); a final
        ``event: done`` closes the stream once the job is terminal and the
        log is drained. Blocking waits happen in the default thread-pool
        executor so the event loop stays free.
        """
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-store\r\n"
            b"Connection: close\r\n"
            b"\r\n"
        )
        await writer.drain()
        loop = asyncio.get_running_loop()
        cursor = since
        while True:
            events, done = await loop.run_in_executor(
                None, job.wait_events, cursor, SSE_WAIT_SECONDS
            )
            for event in events:
                data = json.dumps(event)
                frame = (
                    f"id: {event['seq']}\nevent: {event['event']}\n"
                    f"data: {data}\n\n"
                )
                writer.write(frame.encode("utf-8"))
                cursor = event["seq"] + 1
            if done and not events:
                writer.write(
                    f"event: done\ndata: {json.dumps({'state': job.state})}\n\n"
                    .encode("utf-8")
                )
                await writer.drain()
                return
            if not events:
                writer.write(b": keep-alive\n\n")  # dead-client detector
            await writer.drain()


async def serve(
    store_path: str,
    host: str = "127.0.0.1",
    port: int = 8321,
    workers: Optional[int] = None,
    timeout: Optional[float] = None,
    retries: Optional[int] = None,
    dispatchers: Optional[int] = None,
    lease_ttl: Optional[float] = None,
    surrogate_model: Optional[str] = None,
    surrogate_mode: Optional[str] = None,
    announce=print,
) -> None:
    """Run the sweep server until cancelled (the ``repro serve`` body).

    ``surrogate_model`` (default ``REPRO_SURROGATE_MODEL``) loads a trained
    model artifact and enables ``/v1/predict``; ``surrogate_mode`` (default
    ``REPRO_SURROGATE``) additionally lets submitted sweeps settle
    tight-interval cells without simulating them. A missing or corrupt
    model path fails startup loudly rather than serving without it.
    """
    from repro.harness.store import ResultStore
    from repro.surrogate.triage import (
        SurrogateStore,
        default_mode,
        default_model_path,
        load_tier,
    )

    store = ResultStore(store_path)
    model_path = (
        surrogate_model if surrogate_model is not None else default_model_path()
    )
    tier = None
    if model_path:
        tier = load_tier(
            model_path,
            mode=surrogate_mode if surrogate_mode is not None else default_mode(),
            store=SurrogateStore(store.root),
        )
    manager = JobManager(
        store,
        workers=workers,
        timeout=timeout,
        retries=retries,
        dispatchers=dispatchers,
        lease_ttl=lease_ttl,
        surrogate=tier,
    )
    server = SweepServer(manager, host=host, port=port)
    bound_host, bound_port = await server.start()
    assert manager.leases is not None
    surrogate_note = (
        "" if tier is None else f", surrogate {tier.mode} "
        f"({tier.model.content_sha256[:12]})"
    )
    announce(
        f"repro serve: listening on http://{bound_host}:{bound_port} "
        f"(wire v{WIRE_VERSION}, store {store_path}, "
        f"{manager.dispatchers} dispatchers, owner {manager.leases.owner}"
        f"{surrogate_note})"
    )
    try:
        await server.serve_forever()
    finally:
        await server.close()
