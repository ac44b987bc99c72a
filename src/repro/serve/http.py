"""Minimal HTTP/1.1 framing over asyncio streams.

Just enough protocol for a JSON analytics service — request-line +
headers + ``Content-Length`` bodies, keep-alive, canonical JSON
responses — implemented on ``asyncio.StreamReader``/``StreamWriter``
so the server stays dependency-free.  Chunked transfer encoding,
pipelining past an error, and multipart bodies are deliberately out of
scope; stdlib ``http.client`` (and every mainstream client) is happy
with this subset.

Canonical JSON matters here: responses are encoded with sorted keys
and tight separators before they enter the result cache, so a cache
hit can return the *byte-identical* payload of the cold miss — the
property tests/serve asserts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any
from urllib.parse import parse_qsl, unquote

import asyncio

__all__ = [
    "MAX_LINE_BYTES",
    "MAX_HEADER_BYTES",
    "MAX_BODY_BYTES",
    "HttpError",
    "HttpRequest",
    "Response",
    "read_request",
    "render_response",
    "json_body",
    "error_body",
]

#: Per-line, total-header, and body ceilings; requests beyond them are
#: rejected with 431/413 instead of buffering unbounded client input.
MAX_LINE_BYTES = 8192
MAX_HEADER_BYTES = 32768
MAX_BODY_BYTES = 16 * 1024 * 1024

_REASONS = {
    200: "OK",
    201: "Created",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    413: "Payload Too Large",
    415: "Unsupported Media Type",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """A request that must be answered with an HTTP error status.

    Attributes:
        status: HTTP status code.
        retry_after_seconds: When set, emitted as a ``Retry-After``
            header (load shedding and rate limiting use this).
    """

    def __init__(
        self,
        status: int,
        message: str,
        retry_after_seconds: float | None = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.retry_after_seconds = retry_after_seconds


@dataclass(frozen=True)
class HttpRequest:
    """One parsed request."""

    method: str
    path: str
    query: dict[str, str]
    headers: dict[str, str]
    body: bytes
    version: str = "HTTP/1.1"

    @property
    def keep_alive(self) -> bool:
        """Whether the client expects the connection to stay open."""
        connection = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.0":
            return connection == "keep-alive"
        return connection != "close"

    @property
    def client_id(self) -> str:
        """Identity used for per-client rate limiting.

        An explicit ``X-Client-Id`` header wins; otherwise all
        requests on the transport share the anonymous bucket.
        """
        return self.headers.get("x-client-id", "anonymous")

    def json(self) -> Any:
        """Decode the body as JSON (empty body decodes to ``{}``).

        Raises:
            HttpError: 400 on malformed JSON.
        """
        if not self.body:
            return {}
        try:
            return json.loads(self.body)
        except (ValueError, UnicodeDecodeError) as error:
            raise HttpError(400, f"malformed JSON body: {error}") from None


@dataclass(frozen=True)
class Response:
    """One response: status + JSON body bytes + extra headers."""

    status: int
    body: bytes
    headers: dict[str, str] = field(default_factory=dict)
    content_type: str = "application/json"


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    line = await reader.readline()
    if len(line) > MAX_LINE_BYTES:
        raise HttpError(431, "request line or header too long")
    return line


async def read_request(
    reader: asyncio.StreamReader,
) -> HttpRequest | None:
    """Read one request off the wire; ``None`` on a clean EOF.

    Raises:
        HttpError: On malformed framing or a request exceeding the
            size ceilings.
        asyncio.IncompleteReadError: If the peer disconnects mid-body.
    """
    request_line = await _read_line(reader)
    if not request_line:
        return None
    try:
        text = request_line.decode("latin-1").rstrip("\r\n")
        method, target, version = text.split(" ", 2)
    except ValueError:
        raise HttpError(400, "malformed request line") from None
    if not version.startswith("HTTP/1."):
        raise HttpError(400, f"unsupported protocol {version!r}")

    headers: dict[str, str] = {}
    total = 0
    while True:
        line = await _read_line(reader)
        if line in (b"\r\n", b"\n", b""):
            break
        total += len(line)
        if total > MAX_HEADER_BYTES:
            raise HttpError(431, "request headers too large")
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()

    raw_length = headers.get("content-length", "0")
    try:
        content_length = int(raw_length)
    except ValueError:
        raise HttpError(
            400, f"invalid Content-Length {raw_length!r}"
        ) from None
    if content_length < 0:
        raise HttpError(400, f"invalid Content-Length {raw_length!r}")
    if content_length > MAX_BODY_BYTES:
        raise HttpError(413, "request body too large")
    body = (
        await reader.readexactly(content_length)
        if content_length
        else b""
    )

    path, _, query_string = target.partition("?")
    query = {
        key: value
        for key, value in parse_qsl(query_string, keep_blank_values=True)
    }
    return HttpRequest(
        method=method.upper(),
        path=unquote(path) or "/",
        query=query,
        headers=headers,
        body=body,
        version=version,
    )


def render_response(response: Response, keep_alive: bool) -> bytes:
    """Serialize a :class:`Response` to wire bytes."""
    reason = _REASONS.get(response.status, "Unknown")
    lines = [
        f"HTTP/1.1 {response.status} {reason}",
        f"Content-Type: {response.content_type}",
        f"Content-Length: {len(response.body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in response.headers.items():
        lines.append(f"{name}: {value}")
    head = "\r\n".join(lines) + "\r\n\r\n"
    return head.encode("latin-1") + response.body


def _json_safe(value: Any) -> Any:
    """Recursively replace non-finite floats (strict JSON has no
    ``NaN``/``Infinity`` literals) and stringify non-string keys."""
    if isinstance(value, float):
        if math.isnan(value):
            return None
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    if isinstance(value, dict):
        return {str(key): _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    return value


def json_body(payload: Any) -> bytes:
    """Encode a payload as canonical JSON bytes.

    Sorted keys + fixed separators make the encoding a pure function
    of the payload value, which is what lets the result cache promise
    byte-identical hits.
    """
    return json.dumps(
        _json_safe(payload),
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
    ).encode("utf-8") + b"\n"


def error_body(error_type: str, message: str, limit: int = 300) -> bytes:
    """Encode a client-facing error payload.

    Only the exception type and (truncated) message cross the wire —
    never a traceback; the chaos suite asserts this.
    """
    if len(message) > limit:
        message = message[: limit - 3] + "..."
    return json_body({"error": {"type": error_type, "message": message}})
