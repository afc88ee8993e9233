"""The daemon's HTTP front end: request parser, error table, response head.

``ServeHandler`` parses request lines and headers itself and formats
every response head in one piece; the stdlib keeps the connection loop.
These tests drive it over raw sockets, so no stdlib parser sits on the
client side either, and compare the parser with the stdlib's
``parse_request`` on generated header blocks.
"""

import email.utils
import http.client
import io
import json
import re
import socket
from datetime import datetime, timezone
from http.server import BaseHTTPRequestHandler

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import CampaignEngine, RunSpec
from repro.serve import ServeHandler, ServeService
from repro.serve import server as server_module

pytestmark = pytest.mark.serve

SPEC = {"app": "pingpong", "network": "ib", "nodes": 2,
        "app_args": {"size": 1024}}
BODY = json.dumps(SPEC).encode()
N = len(BODY)


def post(headers, body=BODY):
    """A POST /v1/runs request with these header lines and body."""
    head = b"".join(line + b"\r\n" for line in headers)
    return b"POST /v1/runs HTTP/1.1\r\nHost: test\r\n" + head + b"\r\n" + body


def exchange(service, request):
    """Send one raw request; returns (status line, headers, body)."""
    with socket.create_connection(
        (service.host, service.port), timeout=30
    ) as sock, sock.makefile("rb") as fh:
        sock.sendall(request)
        status = fh.readline().decode("latin-1").rstrip("\r\n")
        headers = []
        while True:
            line = fh.readline().decode("latin-1").rstrip("\r\n")
            if not line:
                break
            name, _, value = line.partition(":")
            headers.append((name, value.strip()))
        length = int(dict(headers).get("Content-Length", 0))
        return status, headers, fh.read(length)


def answer(service, method, path, body=None):
    """(status code, headers dict, decoded JSON or raw body) of a plain
    keep-alive request."""
    data = b"" if body is None else json.dumps(body).encode()
    request = (
        f"{method} {path} HTTP/1.1\r\nHost: test\r\n"
        f"Content-Length: {len(data)}\r\n\r\n"
    ).encode() + data
    status, headers, raw = exchange(service, request)
    headers = dict(headers)
    if headers.get("Content-Type") == "application/json":
        raw = json.loads(raw)
    return int(status.split()[1]), headers, raw


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    root = tmp_path_factory.mktemp("http-root")
    CampaignEngine(root=root, workers=1, echo=None).run_specs(
        [RunSpec.from_dict(SPEC)]
    )
    svc = ServeService(root, workers=1, echo=None).start()
    yield svc
    svc.close()


# -- the error table ----------------------------------------------------------

#: (id, raw request, status, whether the reply says Connection: close).
ROWS = [
    # Answers the parser gives.
    ("conflicting-content-length",
     post([b"Content-Length: %d" % N, b"Content-Length: %d" % (N + 1)]),
     400, True),
    ("space-before-colon", post([b"Content-Length : %d" % N]), 400, True),
    ("transfer-encoding-beside-content-length",
     post([b"Transfer-Encoding: chunked", b"Content-Length: %d" % N]),
     501, True),
    ("transfer-encoding-alone",
     post([b"Transfer-Encoding: chunked"], b"%x\r\n%s\r\n0\r\n\r\n" % (N, BODY)),
     501, True),
    ("obs-fold",
     post([b"X-Note: one", b"  two", b"Content-Length: %d" % N]), 400, True),
    ("content-length-with-sign", post([b"Content-Length: +%d" % N]), 400, True),
    ("content-length-with-underscore",
     post([b"Content-Length: %s_%s" % (str(N)[:1].encode(), str(N)[1:].encode())]),
     400, True),
    ("header-without-colon",
     post([b"NoColonHere", b"Content-Length: %d" % N]), 400, True),
    ("http-2.0", b"GET /v1/status HTTP/2.0\r\nHost: test\r\n\r\n", 505, True),
    ("http-0.9", b"GET /v1/status\r\n", 400, True),
    # Answers kept from before the parser.
    ("no-content-length", post([], b""), 411, False),
    ("body-too-large", post([b"Content-Length: 9000000"], b""), 413, False),
    ("request-line-too-long",
     b"GET /" + b"a" * 65536 + b" HTTP/1.1\r\n\r\n", 414, True),
    ("header-line-too-long",
     post([b"X-Big: " + b"a" * 65536, b"Content-Length: %d" % N]), 431, True),
    ("too-many-headers",
     post([b"X-H%d: v" % i for i in range(101)] + [b"Content-Length: %d" % N]),
     431, True),
    ("unknown-method", b"PUT /v1/runs HTTP/1.1\r\nHost: test\r\n\r\n", 501, True),
]


def check_row(service, request, code, close):
    status, headers, _ = exchange(service, request)
    assert status.startswith(f"HTTP/1.1 {code} "), status
    assert dict(headers).get("Connection") == ("close" if close else None)


@pytest.mark.parametrize(
    "request_bytes, code, close", [row[1:] for row in ROWS],
    ids=[row[0] for row in ROWS],
)
def test_error_table(service, request_bytes, code, close):
    check_row(service, request_bytes, code, close)


# -- answers without the stdlib parser ----------------------------------------


def test_answers_do_not_use_the_stdlib_header_parser(service, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("http.client.parse_headers called")

    monkeypatch.setattr(http.client, "parse_headers", refuse)
    code, _, hit = answer(service, "POST", "/v1/runs", SPEC)
    assert code == 200 and hit["source"] == "cache"
    cold = dict(SPEC, app_args={"size": 48})
    code, headers, miss = answer(
        service, "POST", "/v1/runs",
        {"spec": cold, "lifecycle": True, "wait_s": 60},
    )
    assert code == 200 and miss["job"]["state"] == "done"
    job_id, key = miss["job"]["id"], miss["key"]
    assert headers["Location"] == f"/v1/jobs/{job_id}"
    code, _, campaign = answer(service, "POST", "/v1/campaigns", {
        "spec": {"name": "c", "base": SPEC}, "wait_s": 60,
    })
    assert code == 200 and campaign["campaign"]["hits"] == 1
    campaign_id = campaign["campaign"]["id"]

    gets = {
        f"/v1/jobs/{job_id}": 200,
        f"/v1/jobs/{job_id}/events": 200,
        f"/v1/campaigns/{campaign_id}?records=1": 200,
        f"/v1/runs/{key}": 200,
        f"/v1/runs/{key}/explain": 200,
        "/v1/status": 200,
        "/v1/metrics": 200,
        "/v1/runs/not-a-key": 400,
        "/v1/jobs/j999999": 404,
        "/nope": 404,
    }
    for path, expected in gets.items():
        code, _, body = answer(service, "GET", path)
        assert code == expected, (path, code, body)
        if path.startswith("/v1/campaigns/"):  # the query reached the route
            assert body["campaign"]["values"] == [hit["record"]["value"]]
    for _, request, code, close in ROWS:
        check_row(service, request, code, close)


# -- the response head --------------------------------------------------------

IMF_FIXDATE = re.compile(
    r"(Mon|Tue|Wed|Thu|Fri|Sat|Sun), \d\d "
    r"(Jan|Feb|Mar|Apr|May|Jun|Jul|Aug|Sep|Oct|Nov|Dec) \d{4} "
    r"\d\d:\d\d:\d\d GMT"
)


def test_response_head_names_order_and_date(service):
    """The header names, in the order, that the stdlib's
    ``send_response``/``send_header`` calls gave before."""
    status, headers, _ = exchange(service, post([b"Content-Length: %d" % N]))
    assert status == "HTTP/1.1 200 OK"
    assert [name for name, _ in headers] == [
        "Server", "Date", "Content-Type", "Content-Length",
    ]
    values = dict(headers)
    assert values["Server"].startswith("repro-serve/")
    assert values["Content-Type"] == "application/json"
    date = values["Date"]
    assert IMF_FIXDATE.fullmatch(date), date
    sent = email.utils.parsedate_to_datetime(date)
    assert abs((datetime.now(timezone.utc) - sent).total_seconds()) < 2.0

    cold = json.dumps({"spec": dict(SPEC, app_args={"size": 40}), "wait_s": 60})
    status, headers, _ = exchange(
        service, post([b"Content-Length: %d" % len(cold)], cold.encode())
    )
    assert status == "HTTP/1.1 200 OK"
    assert [name for name, _ in headers] == [
        "Server", "Date", "Content-Type", "Location", "Content-Length",
    ]


def test_date_is_formatted_once_a_second(service, monkeypatch):
    now = [1_700_000_000.9]
    formatted = []
    formatdate = email.utils.formatdate

    def counting(timeval, **kwargs):
        formatted.append(timeval)
        return formatdate(timeval, **kwargs)

    monkeypatch.setattr(server_module.time, "time", lambda: now[0])
    monkeypatch.setattr(server_module.email.utils, "formatdate", counting)
    first = service.server.http_date()
    now[0] += 0.05
    assert service.server.http_date() == first
    now[0] += 0.1  # crosses into the next second
    second = service.server.http_date()
    assert formatted == [1_700_000_000, 1_700_000_001]
    assert first == formatdate(1_700_000_000, usegmt=True)
    assert second == formatdate(1_700_000_001, usegmt=True)
    assert first != second


# -- the parser against the stdlib's ------------------------------------------


class Probe(ServeHandler):
    """A handler on an in-memory request that records its decision to
    send ``100 Continue`` instead of sending it."""

    def __init__(self, raw):  # no socket: only the parser runs
        self.rfile = io.BytesIO(raw)
        self.wfile = io.BytesIO()
        self.raw_requestline = self.rfile.readline(65537)
        self.continued = False

    def handle_expect_100(self):
        self.continued = True
        return True


def stdlib_parse(raw):
    probe = Probe(raw)
    assert BaseHTTPRequestHandler.parse_request(probe)
    return probe


def serve_parse(raw):
    probe = Probe(raw)
    assert probe.parse_request()
    return probe


def cased(text):
    """``text`` with the case of each letter drawn independently."""
    return st.lists(
        st.booleans(), min_size=len(text), max_size=len(text)
    ).map(lambda upper: "".join(
        c.upper() if u else c.lower() for c, u in zip(text, upper)
    ))


#: A field value with no space or tab at either end.
value_st = st.from_regex(r"([!-~]([ !-~]{0,14}[!-~])?)?", fullmatch=True)
#: Spaces and tabs around a value.
space_st = st.sampled_from(["", " ", "  ", "\t", " \t "])

known_names = ["Host", "Accept-Encoding", "Content-Type", "User-Agent"]
field_st = st.one_of(
    st.tuples(st.sampled_from(known_names).flatmap(cased), value_st),
    st.tuples(st.from_regex(r"X-[A-Za-z0-9-]{1,10}", fullmatch=True), value_st),
    st.tuples(cased("Connection"), st.sampled_from(
        ["close", "keep-alive"]).flatmap(cased)),
    st.tuples(cased("Expect"), st.sampled_from(
        ["100-continue", "nothing"]).flatmap(cased)),
)


@st.composite
def header_blocks(draw):
    """(raw request, the same request with values' trailing spaces cut)."""
    fields = draw(st.lists(field_st, max_size=8))
    if fields:  # any field but Content-Length may repeat
        repeats = draw(st.lists(st.sampled_from(fields), max_size=3))
        fields = draw(st.permutations(fields + repeats))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(fields)))
        fields.insert(at, (draw(cased("Content-Length")),
                           str(draw(st.integers(0, 10**6)))))
    version = draw(st.sampled_from(["HTTP/1.0", "HTTP/1.1"]))
    method = draw(st.sampled_from(["GET", "POST"]))
    raw = trimmed = f"{method} /v1/status {version}\r\n"
    for name, value in fields:
        lead, trail = draw(space_st), draw(space_st)
        raw += f"{name}:{lead}{value}{trail}\r\n"
        trimmed += f"{name}:{lead}{value}\r\n"
    return (raw + "\r\n").encode(), (trimmed + "\r\n").encode()


@settings(max_examples=300, deadline=None)
@given(header_blocks())
def test_parser_agrees_with_the_stdlib(blocks):
    """Same values, keep-alive and Expect decisions as the stdlib's
    ``parse_request`` (``http.client.parse_headers`` plus its rules).
    The stdlib keeps a value's trailing spaces, which RFC 9110 excludes
    from the field value; the parser drops them, so the stdlib reads
    the same block without them."""
    raw, trimmed = blocks
    ours, theirs = serve_parse(raw), stdlib_parse(trimmed)
    for name in ("content-length", "connection", "expect"):
        assert ours.headers.get(name) == theirs.headers.get(name), name
    assert ours.close_connection == theirs.close_connection
    assert ours.continued == theirs.continued
    assert (ours.command, ours.path, ours.request_version) == (
        theirs.command, theirs.path, theirs.request_version
    )


def test_trailing_space_does_not_hide_connection_close():
    raw = b"GET /v1/status HTTP/1.1\r\nConnection: close \r\n\r\n"
    assert serve_parse(raw).close_connection
    assert stdlib_parse(raw).close_connection is False  # the stdlib's reading
