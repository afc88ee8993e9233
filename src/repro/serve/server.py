"""The ``repro-serve`` HTTP/JSON daemon: campaign-as-a-service.

Stdlib only: :mod:`http.server` (a :class:`ThreadingHTTPServer`, whose
``serve_forever`` loop polls the listening socket through
:mod:`selectors`) in front of the campaign
:class:`~repro.campaign.scheduler.JobScheduler`.  The stdlib keeps the
connection loop (``handle``/``handle_one_request``, ``send_error``);
the handler parses requests and formats responses itself.  The parser
reads the request line and at most :data:`MAX_HEADERS` header lines,
splits each line on its first colon into a dict keyed by the
lower-cased name (the first of a repeated field wins) and applies the
stdlib's keep-alive and ``Expect: 100-continue`` rules.  What it
refuses, each reply with ``Connection: close``::

    400  request line without exactly three words (HTTP/0.9 included),
         a malformed HTTP version, a header line without a colon or with
         a space before it, an obs-fold continuation line, repeated
         Content-Length values that disagree, a Content-Length that is
         not 1*DIGIT
    414  request line over 64 KiB
    431  header line over 64 KiB, more than MAX_HEADERS header lines
    501  any Transfer-Encoding; a method other than GET and POST
    505  an HTTP major version other than 1

Any other answer sent before its request's declared body was read (a
413, a POST to an unknown path, a GET with a body) also carries
``Connection: close`` and closes the connection, so the unread body is
never parsed as the next request.

A response's status line and headers (``Server``, ``Date``,
``Content-Type``, ``Location`` if any, ``Content-Length``) come from one
format and leave with the body in one write; ``Date`` is formatted at
most once a second.

Handlers never block on simulation work — they resolve against the
result cache, coalesce onto in-flight jobs, or schedule onto the worker
pool and answer with a job handle (``repro-lint`` rule RPR011 enforces
this: no ``time.sleep`` or direct engine/run calls inside handler code
paths).  A serial worker simulates in the daemon's own interpreter, so
handlers and the worker take turns on the GIL: a handler yields the CPU
after every request, and :meth:`ServeService.serve_forever` lowers the
switch interval to :data:`SWITCH_INTERVAL_S`, so a busy keep-alive
client and a running simulation alternate one request at a time.

API (all JSON unless noted)::

    POST /v1/runs                RunSpec dict (or {"spec": .., "force": ..,
                                 "lifecycle": .., "wait_s": ..}) ->
                                 200 record on cache hit, 202 job handle
    POST /v1/campaigns           CampaignSpec dict (same envelope) ->
                                 202 campaign handle (per-run job ids)
    GET  /v1/jobs/<id>           job state (+ record once terminal)
    GET  /v1/jobs/<id>/events    JSONL progress stream (close-delimited)
    GET  /v1/campaigns/<id>      campaign aggregate (+ values when done)
    GET  /v1/runs/<key>          cached record by content key
    GET  /v1/runs/<key>/explain  self-contained HTML blame report
    GET  /v1/status              service + scheduler + campaign-root status
                                 (job timing histograms, the --profile flag)
    GET  /v1/metrics             the serve MetricsRegistry, flat JSON

A job's kernel profile (``--profile``) rides on its record as a
``perf`` block, read through ``GET /v1/jobs/<id>``.

Every request lands in the service's own
:class:`~repro.telemetry.registry.MetricsRegistry` (request counters,
per-endpoint latency histograms, cache hit/miss/coalesce tallies) —
the same instrument kit the simulator uses, pointed at the service.
The whole instrument set is registered when the service starts, so the
registry never grows while ``/v1/metrics`` exports it.
"""

from __future__ import annotations

import email.utils
import json
import math
import os
import re
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import IO, Any, Dict, List, Optional, Tuple
from urllib.parse import parse_qs

from ..campaign.cli import status_payload
from ..campaign.scheduler import Cached, JobScheduler, Submission
from ..campaign.spec import CampaignSpec, RunSpec
from ..errors import ConfigurationError, ReproError
from ..version import __version__
from .report import record_html

#: Request bodies above this are refused (a campaign spec is tiny).
MAX_BODY_BYTES = 8 * 1024 * 1024

#: A single POSTed campaign may expand to at most this many runs.
MAX_CAMPAIGN_RUNS = 4096

#: Upper bound on the server-side block of a ``wait_s`` request.
MAX_WAIT_S = 300.0

#: The keys a request envelope may carry around its spec.
ENVELOPE_KEYS = frozenset(("spec", "force", "lifecycle", "wait_s"))

#: Handler write buffer: a response up to this size (headers and body)
#: leaves in one socket write when the request is done.
WRITE_BUFFER_BYTES = 64 * 1024

#: GIL switch interval while :meth:`ServeService.serve_forever` runs the
#: daemon: how long a handler waits for the GIL before it asks a running
#: simulation to hand it over (the interpreter's default is 5 ms).
SWITCH_INTERVAL_S = 0.001

#: Called after every request: gives the CPU, and with it the GIL, to a
#: thread that waits for them (a simulating worker), so one keep-alive
#: client cannot hold them for a run of back-to-back requests.
_yield_cpu = getattr(os, "sched_yield", lambda: None)

#: Header lines a request may carry, and the longest header line in
#: bytes (the stdlib's limits).
MAX_HEADERS = 100
MAX_LINE_BYTES = 65536

#: Route names as the metrics see them.  ``unrouted`` counts the
#: requests no route answered (unknown paths and errors raised before
#: a route returned).
ROUTES = (
    "runs.post", "campaigns.post", "jobs.get", "events.get",
    "campaigns.get", "records.get", "explain.get", "status.get",
    "metrics.get", "unrouted",
)

_HTTP_VERSION = re.compile(r"HTTP/(\d{1,10})\.(\d{1,10})", re.ASCII)
#: A header field name (RFC 9110 token): no spaces, no separators.
_TOKEN = re.compile(r"[!#$%&'*+\-.^_`|~0-9A-Za-z]+")

#: Cache keys are 32 lowercase hex digits (RunSpec.key); anything else
#: is rejected before it can reach the filesystem layer.
_KEY_ALPHABET = set("0123456789abcdef")


def _valid_key(key: str) -> bool:
    return len(key) == 32 and all(c in _KEY_ALPHABET for c in key)


class _HttpError(Exception):
    """An error with an HTTP status, raised inside handler routes."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


def read_headers(rfile: IO[bytes]) -> Dict[str, str]:
    """The header block of one request, ``{lower-cased name: value}``.

    Values lose the spaces and tabs around them; the first of a repeated
    field wins.  Raises :class:`_HttpError` with the module docstring's
    answer for a malformed block.
    """
    headers: Dict[str, str] = {}
    for _ in range(MAX_HEADERS + 1):
        line = rfile.readline(MAX_LINE_BYTES + 1)
        if len(line) > MAX_LINE_BYTES:
            raise _HttpError(431, "Line too long")
        if line in (b"\r\n", b"\n", b""):
            break
        name, colon, value = str(line, "iso-8859-1").partition(":")
        # Also refuses an obs-fold line, which starts with a space.
        if not colon or _TOKEN.fullmatch(name) is None:
            raise _HttpError(400, "Bad header line")
        name = name.lower()
        value = value.strip(" \t\r\n")
        if headers.setdefault(name, value) != value and name == "content-length":
            raise _HttpError(400, "Conflicting Content-Length")
    else:
        raise _HttpError(431, "Too many headers")
    if "transfer-encoding" in headers:
        raise _HttpError(501, "Transfer-Encoding is not supported")
    length = headers.get("content-length")
    if length is not None and not (length.isascii() and length.isdigit()):
        raise _HttpError(400, "Bad Content-Length")
    return headers


class CampaignHandle:
    """One POSTed campaign: its expansion order and per-run handles."""

    __slots__ = ("id", "name", "keys", "records", "job_ids", "hits")

    def __init__(self, handle_id: str, name: str) -> None:
        self.id = handle_id
        self.name = name
        #: Spec keys in expansion order (duplicates collapse onto one).
        self.keys: List[str] = []
        #: Cache answers, by key.
        self.records: Dict[str, Dict[str, Any]] = {}
        #: Scheduled/coalesced jobs, by key.
        self.job_ids: Dict[str, str] = {}
        self.hits = 0

    def to_dict(
        self, scheduler: JobScheduler, include_records: bool = False
    ) -> Dict[str, Any]:
        jobs = {}
        pending = 0
        for key, job_id in sorted(self.job_ids.items()):
            job = scheduler.job(job_id)
            state = job.state if job is not None else "unknown"
            jobs[job_id] = state
            if job is None or not job.done:
                pending += 1
        out: Dict[str, Any] = {
            "id": self.id,
            "name": self.name,
            "total": len(self.keys),
            "hits": self.hits,
            "misses": len(self.job_ids),
            "state": "done" if pending == 0 else "running",
            "jobs": jobs,
        }
        if include_records and pending == 0:
            records = []
            for key in self.keys:
                record = self.records.get(key)
                if record is None:
                    job = scheduler.job(self.job_ids[key])
                    record = job.record if job is not None else None
                records.append(record)
            out["records"] = records
            out["values"] = [
                (r or {}).get("value") for r in records
            ]
        return out


class ServeState:
    """Everything the handler threads share: scheduler, metrics, campaigns."""

    def __init__(
        self,
        root,
        workers: int = 2,
        timeout_s: Optional[float] = None,
        max_events: Optional[int] = None,
        max_retries: int = 0,
        retry_backoff_s: float = 0.25,
        lifecycle: bool = False,
        memory_cache: int = 4096,
        profile: bool = False,
        echo=None,
    ) -> None:
        from ..telemetry.registry import MetricsRegistry

        self.root = root
        self.echo = echo
        self.metrics = metrics = MetricsRegistry()
        # Every instrument the daemon updates is fetched here, once: the
        # registry takes no lock, so one created on first use by one
        # handler thread could change its dicts under another thread's
        # /v1/metrics export.
        #: Job-timing histograms (fed by the scheduler).
        self._timing_hists = tuple(
            (name, metrics.histogram(f"scheduler.jobs.{name}"))
            for name in ("queue_delay_s", "wall_s", "turnaround_s")
        )
        #: Every request a route or the router answered.
        self.requests = metrics.counter("serve.requests")
        #: Per route: (request counter, latency histogram).
        self.by_route = {
            route: (
                metrics.counter(f"serve.http.{route}.requests"),
                metrics.histogram(f"serve.http.{route}.latency_us"),
            )
            for route in ROUTES
        }
        #: Per status class of those answers (2 for 2xx; 4xx, 5xx).
        self.by_status = {
            cls: metrics.counter(f"serve.http.responses.{cls}xx")
            for cls in (2, 4, 5)
        }
        #: Per Submission.source: the cache tally it bumps.
        self._tallies = {
            "cache": metrics.counter("serve.cache.hits"),
            "coalesced": metrics.counter("serve.cache.coalesced"),
            "scheduled": metrics.counter("serve.cache.misses"),
        }
        #: Kernel-profile every executed job (adds a ``perf`` block to
        #: each fresh record).
        self.profile = profile
        self.scheduler = JobScheduler.at(
            root,
            workers=workers,
            timeout_s=timeout_s,
            max_events=max_events,
            max_retries=max_retries,
            retry_backoff_s=retry_backoff_s,
            lifecycle=lifecycle,
            echo=echo,
            # A hot query loop must not append a journal line per hit.
            journal_reused=False,
            memory_cache=memory_cache,
            # Job timing spans land in the serve registry as
            # scheduler.jobs.* histograms (queue delay, wall, turnaround).
            metrics=self.metrics,
            profile=profile,
        )
        self.campaigns: Dict[str, CampaignHandle] = {}
        self._campaign_lock = threading.Lock()
        self._next_campaign = 1
        self.started_t = time.time()  # repro-lint: disable=RPR001

    def submit(
        self,
        spec: RunSpec,
        force: bool = False,
        lifecycle: Optional[bool] = None,
    ) -> Submission:
        """Submit one spec, mirroring the outcome into serve metrics."""
        sub = self.scheduler.submit(spec, force=force, lifecycle=lifecycle)
        self._tallies[sub.source].inc()
        return sub

    def new_campaign(self, name: str) -> CampaignHandle:
        with self._campaign_lock:
            handle = CampaignHandle(f"c{self._next_campaign}", name)
            self._next_campaign += 1
            self.campaigns[handle.id] = handle
            return handle

    def _job_timing(self) -> Dict[str, Any]:
        """Lifetime job-timing histograms (fed by the scheduler)."""
        out = {}
        for name, hist in self._timing_hists:
            out[name] = {
                "count": hist.count,
                "mean": round(hist.mean, 6),
                "max": round(hist.max, 6),
            }
        return out

    def status(self) -> Dict[str, Any]:
        stats = dict(self.scheduler.stats)
        submitted = stats["submitted"]
        return {
            "service": {
                "version": __version__,
                "uptime_s": round(
                    time.time() - self.started_t, 3  # repro-lint: disable=RPR001
                ),
                "workers": self.scheduler.workers,
                "campaigns": len(self.campaigns),
                "profile": self.profile,
            },
            "scheduler": {
                "stats": stats,
                # This daemon's own ratio: its hits write no journal
                # line, so the durable block's journal ratio below
                # counts batch runs only.
                "cache_hit_ratio": (
                    round(stats["cache_hits"] / submitted, 4)
                    if submitted else 0.0
                ),
                "jobs": self.scheduler.counts(),
                "timing": self._job_timing(),
            },
            # Embeds the durable "scheduler" block (jobs.jsonl fold) —
            # the same shape ``repro-campaign status --json`` reports.
            "campaign_root": status_payload(self.root),
        }


class ServeHandler(BaseHTTPRequestHandler):
    """Routes ``/v1/*`` onto the shared :class:`ServeState`.

    Handler threads must stay non-blocking with respect to simulation
    work: every route either answers from state or hands back a job id.
    The one sanctioned wait is the condition-variable long-poll behind
    ``wait_s`` and the events stream, both deadline-bounded.
    """

    protocol_version = "HTTP/1.1"
    server_version = f"repro-serve/{__version__}"
    #: Socket read timeout so an idle keep-alive client can't pin a
    #: handler thread forever.
    timeout = 60
    #: Buffered writes: each response leaves in one write (the stdlib
    #: flushes after every request, and in ``finish()`` after the error
    #: replies of ``send_error``, which also close the connection).
    wbufsize = WRITE_BUFFER_BYTES
    #: The events stream still writes in pieces, and a small write
    #: queued behind an unacknowledged one would wait ~40 ms for a
    #: delayed ACK under Nagle.
    disable_nagle_algorithm = True

    #: Whether the request declared a body that no route has read yet.
    #: An answer sent while it has closes the connection, so the body is
    #: never parsed as the next request.
    body_unread = False

    # -- plumbing ------------------------------------------------------------

    @property
    def state(self) -> ServeState:
        return self.server.state  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:
        echo = self.state.echo
        if echo is not None:
            echo(f"{self.address_string()} {format % args}")

    def handle_one_request(self) -> None:
        try:
            super().handle_one_request()
            _yield_cpu()
        except ConnectionError:
            # The client went away before the buffered answer left.  Drop
            # the answer: closing the writer in finish() would resend it
            # and raise again.
            self.wfile.raw.close()
            self.close_connection = True

    def parse_request(self) -> bool:
        """Parse one request's line and headers (module docstring).

        Sets what the stdlib's parser sets: ``command``, ``path``,
        ``request_version``, ``headers`` (here a plain dict, see
        :func:`read_headers`) and ``close_connection``.  Returns False
        once a malformed request has had its error reply.
        """
        self.command = None
        # Unknown until parsed; any value but "HTTP/0.9" keeps the status
        # line on an error reply.
        self.request_version = ""
        self.close_connection = True
        self.requestline = requestline = str(
            self.raw_requestline, "iso-8859-1"
        ).rstrip("\r\n")
        words = requestline.split()
        if not words:
            return False  # a blank line: close without an answer
        try:
            if len(words) != 3:
                raise _HttpError(400, f"Bad request syntax ({requestline!r})")
            version = words[2]
            match = _HTTP_VERSION.fullmatch(version)
            if match is None:
                raise _HttpError(400, f"Bad request version ({version!r})")
            if int(match[1]) != 1:
                raise _HttpError(505, f"Invalid HTTP version ({version[5:]})")
            self.command, self.path, self.request_version = words
            self.headers = headers = read_headers(self.rfile)
        except _HttpError as exc:
            self.send_error(exc.code, str(exc))
            return False
        http11 = int(match[2]) >= 1
        connection = headers.get("connection", "").lower()
        self.close_connection = connection == "close" or (
            not http11 and connection != "keep-alive"
        )
        self.body_unread = int(headers.get("content-length") or 0) > 0
        if http11 and headers.get("expect", "").lower() == "100-continue":
            return self.handle_expect_100()
        return True

    def handle_expect_100(self) -> bool:
        # The client holds the body back until it sees this line, so it
        # cannot wait in the buffer for the answer.
        super().handle_expect_100()
        self.wfile.flush()
        return True

    def _send(
        self,
        code: int,
        body: str,
        content_type: str = "application/json",
        location: Optional[str] = None,
    ) -> int:
        data = body.encode("utf-8")
        self.log_request(code)
        location_line = f"Location: {location}\r\n" if location else ""
        close_line = ""
        if self.body_unread:
            self.close_connection = True
            close_line = "Connection: close\r\n"
        head = (
            f"{self.protocol_version} {code} {self.responses[code][0]}\r\n"
            f"Server: {self.version_string()}\r\n"
            f"Date: {self.server.http_date()}\r\n"
            f"{close_line}"
            f"Content-Type: {content_type}\r\n"
            f"{location_line}"
            f"Content-Length: {len(data)}\r\n\r\n"
        )
        self.wfile.write(head.encode("latin-1") + data)
        return code

    def _send_json(
        self,
        code: int,
        payload: Dict[str, Any],
        location: Optional[str] = None,
    ) -> int:
        body = json.dumps(payload, sort_keys=True) + "\n"
        return self._send(code, body, location=location)

    def _read_json(self) -> Dict[str, Any]:
        try:
            length = int(self.headers.get("content-length") or 0)
        except ValueError:
            raise _HttpError(400, "bad Content-Length") from None
        if length <= 0:
            raise _HttpError(411, "a JSON body with Content-Length is required")
        if length > MAX_BODY_BYTES:
            raise _HttpError(413, f"body exceeds {MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(length)
        self.body_unread = False
        try:
            data = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            raise _HttpError(400, "body is not valid JSON") from None
        if not isinstance(data, dict):
            raise _HttpError(400, "body must be a JSON object")
        return data

    @staticmethod
    def _envelope(data: Dict[str, Any]) -> Tuple[Dict[str, Any], bool, Optional[bool], Optional[float]]:
        """Unpack the optional request envelope around a spec dict.

        ``{"spec": {...}, "force": bool, "lifecycle": bool, "wait_s": s}``
        — or the bare spec dict itself.  Nothing is bent: an unknown key,
        a ``force`` that is not a JSON boolean, a ``lifecycle`` that is
        neither a boolean nor null or a ``wait_s`` that is not a finite
        JSON number >= 0 is a 400 naming the field.
        """
        if "spec" in data and isinstance(data["spec"], dict):
            unknown = data.keys() - ENVELOPE_KEYS
            if unknown:
                raise _HttpError(
                    400,
                    f"unknown envelope keys {sorted(unknown)}; "
                    f"valid: {sorted(ENVELOPE_KEYS)}",
                )
            spec = data["spec"]
            force = data.get("force", False)
            if not isinstance(force, bool):
                raise _HttpError(400, f"force={force!r} must be true or false")
            lifecycle = data.get("lifecycle")
            if not (lifecycle is None or isinstance(lifecycle, bool)):
                raise _HttpError(
                    400, f"lifecycle={lifecycle!r} must be true, false or null"
                )
            wait_s = data.get("wait_s")
            if wait_s is not None:
                # JSON admits NaN and Infinity; a NaN timeout never
                # expires and makes the scheduler's wait loop spin.
                if (
                    not isinstance(wait_s, (int, float))
                    or isinstance(wait_s, bool)
                    or not 0.0 <= wait_s < math.inf
                ):
                    raise _HttpError(
                        400, f"wait_s={wait_s!r} must be a finite number >= 0"
                    )
                wait_s = min(float(wait_s), MAX_WAIT_S)
            return spec, force, lifecycle, wait_s
        return data, False, None, None

    # -- dispatch ------------------------------------------------------------

    def do_GET(self) -> None:
        self._handle("GET")

    def do_POST(self) -> None:
        self._handle("POST")

    def _handle(self, method: str) -> None:
        t0 = time.perf_counter()  # repro-lint: disable=RPR001
        route = "unrouted"
        try:
            route, code = self._route(method)
        except _HttpError as exc:
            code = self._send_json(exc.code, {"error": str(exc)})
        except (ConfigurationError, ReproError) as exc:
            code = self._send_json(400, {"error": str(exc)})
        except (BrokenPipeError, ConnectionError, TimeoutError):
            return  # client went away mid-response; nothing to answer
        except Exception as exc:  # surface, never kill the thread
            code = self._send_json(
                500, {"error": f"{type(exc).__name__}: {exc}"}
            )
        latency_us = (time.perf_counter() - t0) * 1e6  # repro-lint: disable=RPR001
        state = self.state
        state.requests.inc()
        requests, latency = state.by_route[route]
        requests.inc()
        latency.observe(latency_us)
        state.by_status[code // 100].inc()

    def _route(self, method: str) -> Tuple[str, int]:
        """Dispatch one request; returns (route-name, status) for metrics."""
        path, _, query = self.path.partition("?")
        parts = [p for p in path.split("/") if p]
        if len(parts) < 2 or parts[0] != "v1":
            raise _HttpError(404, f"unknown path {path!r}")
        head = parts[1]
        if method == "POST":
            if parts == ["v1", "runs"]:
                return "runs.post", self._post_run()
            if parts == ["v1", "campaigns"]:
                return "campaigns.post", self._post_campaign()
            raise _HttpError(404, f"unknown POST path {path!r}")
        if head == "jobs" and len(parts) == 3:
            return "jobs.get", self._get_job(parts[2])
        if head == "jobs" and len(parts) == 4 and parts[3] == "events":
            return "events.get", self._get_job_events(parts[2])
        if head == "campaigns" and len(parts) == 3:
            return "campaigns.get", self._get_campaign(parts[2], query)
        if head == "runs" and len(parts) == 3:
            return "records.get", self._get_record(parts[2])
        if head == "runs" and len(parts) == 4 and parts[3] == "explain":
            return "explain.get", self._get_explain(parts[2])
        if parts == ["v1", "status"]:
            return "status.get", self._send_json(200, self.state.status())
        if parts == ["v1", "metrics"]:
            return "metrics.get", self._send_json(
                200, self.state.metrics.as_dict()
            )
        raise _HttpError(404, f"unknown path {path!r}")

    # -- routes --------------------------------------------------------------

    def _post_run(self) -> int:
        spec_dict, force, lifecycle, wait_s = self._envelope(self._read_json())
        try:
            spec = RunSpec.from_dict(spec_dict)
        except (KeyError, TypeError, ValueError) as exc:
            raise _HttpError(400, f"bad RunSpec: {exc}") from exc
        sub = self.state.submit(spec, force=force, lifecycle=lifecycle)
        if sub.hit:
            # json.dumps({"key", "record", "source"}, sort_keys=True),
            # byte for byte, with the record's stored text spliced in.
            return self._send(200, (
                '{"key": ' + json.dumps(spec.key)
                + ', "record": ' + sub.text
                + ', "source": ' + json.dumps(sub.source) + "}\n"
            ))
        job = sub.job
        if wait_s:
            # Deadline-bounded condition wait, not a poll loop: the
            # scheduler wakes us the moment the job turns terminal.
            self.state.scheduler.wait([job.id], timeout_s=wait_s)
        body = {"source": sub.source, "key": spec.key, "job": job.to_dict()}
        code = 200 if job.done else 202
        return self._send_json(code, body, location=f"/v1/jobs/{job.id}")

    def _post_campaign(self) -> int:
        spec_dict, force, lifecycle, wait_s = self._envelope(self._read_json())
        campaign = CampaignSpec.from_dict(spec_dict)
        runs = campaign.run_count()
        if runs > MAX_CAMPAIGN_RUNS:
            raise _HttpError(
                413,
                f"campaign expands to {runs} runs (limit {MAX_CAMPAIGN_RUNS})",
            )
        specs = campaign.expand()
        handle = self.state.new_campaign(campaign.name)
        seen = set()
        for spec in specs:
            key = spec.key
            if key in seen:
                continue  # duplicate grid point: one job serves all
            seen.add(key)
            handle.keys.append(key)
            sub = self.state.submit(spec, force=force, lifecycle=lifecycle)
            if sub.hit:
                handle.hits += 1
                handle.records[key] = sub.record
            else:
                handle.job_ids[key] = sub.job.id
        if wait_s and handle.job_ids:
            self.state.scheduler.wait(
                list(handle.job_ids.values()), timeout_s=wait_s
            )
        body = handle.to_dict(self.state.scheduler, include_records=bool(wait_s))
        code = 200 if body["state"] == "done" else 202
        return self._send_json(
            code, {"campaign": body}, location=f"/v1/campaigns/{handle.id}"
        )

    def _get_job(self, job_id: str) -> int:
        job = self.state.scheduler.job(job_id)
        if job is None:
            raise _HttpError(404, f"no such job {job_id!r}")
        return self._send_json(200, {"job": job.to_dict()})

    def _get_job_events(self, job_id: str) -> int:
        """Stream job events as JSONL until terminal (close-delimited)."""
        scheduler = self.state.scheduler
        job = scheduler.job(job_id)
        if job is None:
            raise _HttpError(404, f"no such job {job_id!r}")
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Cache-Control", "no-store")
        self.send_header("Connection", "close")
        self.close_connection = True
        self.end_headers()
        seen = 0
        deadline = time.monotonic() + MAX_WAIT_S  # repro-lint: disable=RPR001
        while True:
            remaining = deadline - time.monotonic()  # repro-lint: disable=RPR001
            events = scheduler.wait_events(
                job_id, seen, timeout_s=max(0.0, min(remaining, 10.0))
            )
            for event in events:
                line = json.dumps(event, sort_keys=True) + "\n"
                self.wfile.write(line.encode("utf-8"))
            seen += len(events)
            if events:
                self.wfile.flush()
            job = scheduler.job(job_id)
            if job is None or job.done or remaining <= 0:
                return 200

    def _get_campaign(self, campaign_id: str, query: str) -> int:
        handle = self.state.campaigns.get(campaign_id)
        if handle is None:
            raise _HttpError(404, f"no such campaign {campaign_id!r}")
        records = parse_qs(query).get("records", ["0"])[-1]
        include = records not in ("0", "", "false")
        body = handle.to_dict(self.state.scheduler, include_records=include)
        return self._send_json(200, {"campaign": body})

    def _require_record(self, key: str) -> Cached:
        if not _valid_key(key):
            raise _HttpError(400, f"malformed run key {key!r}")
        hit = self.state.scheduler.cached(key)
        if hit is None:
            raise _HttpError(404, f"no cached record for key {key!r}")
        return hit

    def _get_record(self, key: str) -> int:
        _, text = self._require_record(key)
        return self._send(200, '{"record": ' + text + "}\n")

    def _get_explain(self, key: str) -> int:
        record, _ = self._require_record(key)
        html = record_html(record)
        if html is None:
            raise _HttpError(
                409,
                "record has no blame data; re-submit the spec with "
                '{"lifecycle": true, "force": true} and retry',
            )
        return self._send(200, html, "text/html; charset=utf-8")


class ReproServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`ServeState`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], state: ServeState) -> None:
        self.state = state
        #: The second and ``Date`` value of the latest response.
        self._date = (0, "")
        super().__init__(address, ServeHandler)

    def http_date(self) -> str:
        """The ``Date`` header value, formatted at most once a second.

        Handler threads that race into a new second may each format it;
        they store the same text.
        """
        now = int(time.time())  # repro-lint: disable=RPR001
        second, text = self._date
        if second != now:
            text = email.utils.formatdate(now, usegmt=True)
            self._date = (now, text)
        return text


class ServeService:
    """One running daemon: state + server + (optional) background thread.

    The CLI calls :meth:`serve_forever`; tests and the benchmark call
    :meth:`start` to serve from a daemon thread in-process.
    """

    def __init__(
        self, root, host: str = "127.0.0.1", port: int = 0, **state_kwargs
    ) -> None:
        self.state = ServeState(root, **state_kwargs)
        self.server = ReproServer((host, port), self.state)
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self.server.server_address[0]

    @property
    def port(self) -> int:
        return self.server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def _startup(self) -> None:
        # Resume the durable backlog, then pre-fork pool workers so the
        # first cold query pays no spawn latency.
        self.state.scheduler.start()
        self.state.scheduler.prewarm()

    def start(self) -> "ServeService":
        self._startup()
        self._thread = threading.Thread(
            target=self.server.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-serve-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve in the calling thread until interrupted or shut down.

        The daemon owns its interpreter here, so it also sets the GIL
        switch interval (:data:`SWITCH_INTERVAL_S`) until it returns.
        """
        self._startup()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(SWITCH_INTERVAL_S)
        try:
            self.server.serve_forever(poll_interval=0.2)
        finally:
            sys.setswitchinterval(interval)

    def close(self) -> None:
        if self._thread is not None:
            self.server.shutdown()
            self._thread.join(timeout=5.0)
        self.server.server_close()
        self.state.scheduler.close(wait=False)
