"""End-to-end tests for the ``repro-serve`` HTTP/JSON daemon.

Each module-scoped service binds port 0 on localhost and is exercised
through :mod:`urllib` — the same client path the CI smoke uses.  The
acceptance contract: cached queries answer instantly with records
bit-identical to ``repro-campaign run``, cold queries come back as job
handles that complete through the shared JobScheduler.
"""

import json
import socket
import sys
import threading
import time
import urllib.error
import urllib.request
from http.client import HTTPConnection, HTTPException

import pytest

from repro.campaign import CampaignEngine, ResultCache, RunSpec
from repro.serve import ServeService, ServeState

pytestmark = pytest.mark.serve

SPEC = {"app": "pingpong", "network": "ib", "nodes": 2,
        "app_args": {"size": 1024}}

CAMPAIGN = {
    "name": "serve-test",
    "base": {"app": "pingpong", "nodes": 2},
    "grid": {"network": ["ib", "elan"], "app_args.size": [0, 1024]},
}


def http(method, url, body=None):
    data = None if body is None else json.dumps(body).encode()
    req = urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json"} if data else {},
    )
    with urllib.request.urlopen(req, timeout=60) as resp:
        raw = resp.read()
        kind = resp.headers.get("Content-Type", "")
        if kind.startswith("application/json"):
            return resp.status, json.loads(raw)
        return resp.status, raw


def http_error(method, url, body=None):
    try:
        http(method, url, body)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read() or b"{}")
    raise AssertionError(f"{method} {url} unexpectedly succeeded")


def raw_http(service, method, path, body=None):
    """Status and undecoded body bytes of one request."""
    conn = HTTPConnection(service.host, service.port, timeout=60)
    try:
        conn.request(
            method, path, body=None if body is None else json.dumps(body)
        )
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def canonical(payload):
    """The bytes json.dumps(..., sort_keys=True) gives a JSON answer."""
    return (json.dumps(payload, sort_keys=True) + "\n").encode()


def on_server_writes(monkeypatch, service, action):
    """Call ``action(name)`` before every socket write the server makes
    on an accepted connection (those sockets sit on the service port)."""
    for name in ("send", "sendall"):
        original = getattr(socket.socket, name)

        def wrapper(sock, *args, _name=name, _original=original, **kwargs):
            if sock.getsockname()[1] == service.port:
                action(_name)
            return _original(sock, *args, **kwargs)

        monkeypatch.setattr(socket.socket, name, wrapper)


def read_head(fh):
    """Status line and headers (lower-cased names) of one response."""
    status = fh.readline().decode()
    headers = {}
    while True:
        line = fh.readline().decode().strip()
        if not line:
            return status, headers
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()


@pytest.fixture(scope="module")
def warm_root(tmp_path_factory):
    """A campaign root pre-populated by the batch engine."""
    root = tmp_path_factory.mktemp("serve-root")
    engine = CampaignEngine(root=root, workers=1, echo=None)
    batch = engine.run_specs([RunSpec.from_dict(SPEC)])
    assert batch.records[0]["status"] == "ok"
    return root, batch.records[0]


@pytest.fixture(scope="module")
def service(warm_root):
    root, _ = warm_root
    svc = ServeService(root, workers=1, echo=None).start()
    yield svc
    svc.close()


# -- cached path --------------------------------------------------------------


def test_cached_query_matches_batch_record(service, warm_root):
    _, batch_record = warm_root
    status, body = http("POST", service.url + "/v1/runs", SPEC)
    assert status == 200
    assert body["source"] == "cache"
    # Bit-identical to what repro-campaign run produced.
    assert json.dumps(body["record"], sort_keys=True) == json.dumps(
        batch_record, sort_keys=True
    )


def test_key_canonicalization_reaches_the_cache(service):
    noisy = {"app_args": {"size": 1024.0}, "nodes": 2.0,
             "network": "ib", "app": "pingpong"}
    status, body = http("POST", service.url + "/v1/runs", noisy)
    assert status == 200 and body["source"] == "cache"


def test_record_fetch_by_key(service, warm_root):
    _, batch_record = warm_root
    status, body = http(
        "GET", service.url + f"/v1/runs/{batch_record['key']}"
    )
    assert status == 200
    assert body["record"]["label"] == batch_record["label"]


def test_hit_bodies_are_the_canonical_encoding_on_every_tier(tmp_path):
    """Hits splice the stored record text; the bytes must still equal
    json.dumps(payload, sort_keys=True) for the record the tier holds."""
    CampaignEngine(root=tmp_path, workers=1, echo=None).run_specs(
        [RunSpec.from_dict(SPEC)]
    )
    key = RunSpec.from_dict(SPEC).key
    cache = ResultCache(tmp_path / "cache")
    stored = cache.get(key)

    def check(svc, source, record):
        status, raw = raw_http(svc, "POST", "/v1/runs", SPEC)
        assert status == 200
        assert raw == canonical(
            {"key": key, "record": record, "source": source}
        )
        status, raw = raw_http(svc, "GET", f"/v1/runs/{key}")
        assert status == 200
        assert raw == canonical({"record": record})

    svc = ServeService(tmp_path, workers=1, memory_cache=0, echo=None).start()
    try:
        check(svc, "cache", stored)  # no LRU: both answers read the file
    finally:
        svc.close()
    svc = ServeService(tmp_path, workers=1, echo=None).start()
    try:
        raw_http(svc, "POST", "/v1/runs", SPEC)  # into the LRU
        cache.path(key).unlink()
        check(svc, "cache", stored)  # the file is gone: memory answers
    finally:
        svc.close()


def test_journaled_run_without_its_cache_file_is_simulated_again(tmp_path):
    """No answer is read from the journal: once a record's cache file is
    gone, the engine and the daemon both simulate the run again."""
    spec = RunSpec.from_dict(SPEC)
    engine = CampaignEngine(root=tmp_path, workers=1, echo=None)
    first = engine.run_specs([spec]).records[0]
    assert [r["key"] for r in engine.journal.entries()] == [spec.key]
    engine.cache.path(spec.key).unlink()
    again = CampaignEngine(root=tmp_path, workers=1, echo=None)
    assert again.run_specs([spec]).sources == {"cache": 0, "run": 1}

    engine.cache.path(spec.key).unlink()
    svc = ServeService(tmp_path, workers=1, echo=None).start()
    try:
        status, _ = http_error("GET", svc.url + f"/v1/runs/{spec.key}")
        assert status == 404
        status, body = http(
            "POST", svc.url + "/v1/runs", {"spec": SPEC, "wait_s": 60}
        )
        assert status == 200 and body["source"] == "scheduled"
        record = body["job"]["record"]
    finally:
        svc.close()
    assert record["value"] == first["value"]
    assert ResultCache(tmp_path / "cache").get(spec.key) == record


def test_hit_answer_is_one_socket_write(service, monkeypatch):
    http("POST", service.url + "/v1/runs", SPEC)  # promote into the LRU
    writes = []
    on_server_writes(monkeypatch, service, writes.append)
    status, body = raw_http(service, "POST", "/v1/runs", SPEC)
    assert status == 200 and json.loads(body)["source"] == "cache"
    assert len(writes) == 1


def test_every_request_yields_the_cpu(service, monkeypatch):
    # A simulating worker gets the GIL back after each answer instead of
    # waiting out a run of back-to-back keep-alive requests.
    import repro.serve.server as server

    # By thread: handlers of earlier tests' connections may still yield
    # once after their last answer and once at the client's EOF.  Keyed
    # by the Thread object, not its ident: the C library hands an exited
    # thread's ident to the next thread it starts.
    yields = []
    monkeypatch.setattr(
        server, "_yield_cpu", lambda: yields.append(threading.current_thread())
    )
    conn = HTTPConnection(service.host, service.port, timeout=60)
    try:
        for _ in range(3):
            conn.request("POST", "/v1/runs", body=json.dumps(SPEC))
            resp = conn.getresponse()
            assert resp.status == 200
            resp.read()
        deadline = time.monotonic() + 10
        while (max(map(yields.count, yields), default=0) < 3
               and time.monotonic() < deadline):
            time.sleep(0.01)  # the yield follows the answer
        # This connection's handler: once a request.
        assert max(map(yields.count, yields), default=0) == 3
    finally:
        conn.close()


def test_serve_forever_sets_the_switch_interval_until_it_returns(tmp_path):
    from repro.serve.server import SWITCH_INTERVAL_S

    before = sys.getswitchinterval()
    svc = ServeService(tmp_path, workers=1, echo=None)
    thread = threading.Thread(target=svc.serve_forever, daemon=True)
    thread.start()
    try:
        # Answered only once serve_forever's loop runs.
        status, _ = http("GET", svc.url + "/v1/status")
        assert status == 200
        assert sys.getswitchinterval() == SWITCH_INTERVAL_S
    finally:
        svc.server.shutdown()
        thread.join(timeout=10)
        svc.close()
    assert not thread.is_alive()
    assert sys.getswitchinterval() == before


def test_expect_100_continue_arrives_before_the_body(service):
    body = json.dumps(SPEC).encode()
    with socket.create_connection(
        (service.host, service.port), timeout=10
    ) as sock, sock.makefile("rb") as fh:
        sock.sendall(
            b"POST /v1/runs HTTP/1.1\r\nHost: test\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: %d\r\nExpect: 100-continue\r\n\r\n"
            % len(body)
        )
        status, _ = read_head(fh)  # times out if it waits in the buffer
        assert status.startswith("HTTP/1.1 100")
        sock.sendall(body)
        status, headers = read_head(fh)
        assert status.startswith("HTTP/1.1 200")
        answer = json.loads(fh.read(int(headers["content-length"])))
    assert answer["source"] == "cache"


def test_stdlib_error_replies_leave_the_buffer(service):
    """send_error answers skip the per-request flush; finish() sends
    them, and their Connection: close ends the exchange."""
    for request, code in (
        (b"GET /v1/status extra HTTP/1.1\r\n\r\n", 400),
        (b"PUT /v1/runs HTTP/1.1\r\nHost: test\r\n\r\n", 501),
    ):
        with socket.create_connection(
            (service.host, service.port), timeout=10
        ) as sock, sock.makefile("rb") as fh:
            sock.sendall(request)
            status, headers = read_head(fh)
            assert status.split()[1] == str(code)
            assert headers["connection"] == "close"


def test_client_gone_before_the_answer_is_quiet(service, monkeypatch):
    """A failed write drops the buffered answer instead of raising from
    finish() into the server's traceback printer."""
    failures = []
    monkeypatch.setattr(
        service.server, "handle_error",
        lambda request, address: failures.append(sys.exc_info()[1]),
    )

    def refuse(name):
        raise BrokenPipeError(32, "Broken pipe")

    on_server_writes(monkeypatch, service, refuse)
    conn = HTTPConnection(service.host, service.port, timeout=10)
    try:
        conn.request("POST", "/v1/runs", body=json.dumps(SPEC))
        with pytest.raises((HTTPException, OSError)):
            conn.getresponse().read()
    finally:
        conn.close()
    monkeypatch.undo()
    # The server lives on, and the dead exchange raised nothing.
    assert http("POST", service.url + "/v1/runs", SPEC)[0] == 200
    assert failures == []


# -- cold path ----------------------------------------------------------------


def test_cold_query_completes_via_job_handle(service):
    spec = dict(SPEC, app_args={"size": 4096})
    status, body = http("POST", service.url + "/v1/runs", spec)
    assert status == 202
    assert body["source"] == "scheduled"
    job_id = body["job"]["id"]
    deadline = time.time() + 60  # repro-lint: disable=RPR001
    while True:
        status, body = http("GET", service.url + f"/v1/jobs/{job_id}")
        assert status == 200
        if body["job"]["state"] in ("done", "quarantined"):
            break
        assert time.time() < deadline  # repro-lint: disable=RPR001
    assert body["job"]["state"] == "done"
    assert body["job"]["record"]["status"] == "ok"
    # Now it's a cache hit, and the record matches the job's.
    status, hit = http("POST", service.url + "/v1/runs", spec)
    assert status == 200 and hit["source"] == "cache"
    assert hit["record"] == body["job"]["record"]


def test_wait_s_must_be_a_finite_non_negative_number(service):
    """JSON admits NaN; a NaN wait would spin a handler thread."""
    spec = json.dumps(dict(SPEC, app_args={"size": 24}))
    scheduled = service.state.scheduler.stats["scheduled"]
    for bad in ("NaN", "Infinity", "-1"):
        req = urllib.request.Request(
            service.url + "/v1/runs", method="POST",
            data=f'{{"spec": {spec}, "wait_s": {bad}}}'.encode(),
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=30)
        assert err.value.code == 400
        assert "wait_s" in json.loads(err.value.read())["error"]
    # Rejected at the boundary: nothing was scheduled.
    assert service.state.scheduler.stats["scheduled"] == scheduled


def test_non_finite_spec_values_are_400(service):
    """JSON admits NaN; a NaN app arg must not reach a worker."""
    scheduled = service.state.scheduler.stats["scheduled"]
    for bad in ("NaN", "Infinity", "-Infinity"):
        body = (
            '{"spec": {"app": "pingpong", "network": "ib", "nodes": 2, '
            f'"app_args": {{"size": {bad}}}}}, "wait_s": 20}}'
        )
        req = urllib.request.Request(
            service.url + "/v1/runs", method="POST", data=body.encode(),
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=30)
        assert err.value.code == 400
        assert "not a finite number" in json.loads(err.value.read())["error"]
    # Rejected at the boundary: nothing was scheduled.
    assert service.state.scheduler.stats["scheduled"] == scheduled


def test_wait_s_blocks_until_done(service):
    spec = dict(SPEC, app_args={"size": 2048})
    status, body = http(
        "POST", service.url + "/v1/runs", {"spec": spec, "wait_s": 60}
    )
    assert status == 200
    assert body["job"]["state"] == "done"


def test_coalescing_identical_inflight_specs(service):
    spec = dict(SPEC, app_args={"size": 8192})
    scheduler = service.state.scheduler
    held, scheduler._dispatch = scheduler._dispatch, lambda job: None
    try:
        _, first = http("POST", service.url + "/v1/runs", spec)
        _, second = http("POST", service.url + "/v1/runs", spec)
    finally:
        scheduler._dispatch = held
    assert first["source"] == "scheduled"
    assert second["source"] == "coalesced"
    assert second["job"]["id"] == first["job"]["id"]
    scheduler.start()  # release the held backlog
    scheduler.wait(timeout_s=60)
    _, done = http("GET", service.url + "/v1/jobs/" + first["job"]["id"])
    assert done["job"]["state"] == "done"


def test_events_stream_is_jsonl_to_terminal(service):
    spec = dict(SPEC, app_args={"size": 16384})
    _, body = http(
        "POST", service.url + "/v1/runs", {"spec": spec, "wait_s": 60}
    )
    job_id = body["job"]["id"]
    status, raw = http("GET", service.url + f"/v1/jobs/{job_id}/events")
    assert status == 200
    events = [json.loads(line) for line in raw.decode().splitlines()]
    assert [e["event"] for e in events] == ["submitted", "dispatched", "done"]
    assert all(e["id"] == job_id for e in events)
    assert [e["seq"] for e in events] == [0, 1, 2]


# -- campaigns ----------------------------------------------------------------


def test_campaign_expansion_and_values(service):
    status, body = http(
        "POST",
        service.url + "/v1/campaigns",
        {"spec": CAMPAIGN, "wait_s": 120},
    )
    assert status == 200
    campaign = body["campaign"]
    assert campaign["total"] == 4
    assert campaign["state"] == "done"
    assert campaign["hits"] >= 1  # size=1024/ib was pre-warmed
    assert len(campaign["values"]) == 4
    assert all(isinstance(v, float) for v in campaign["values"])
    # The handle stays queryable afterwards.
    status, again = http(
        "GET", service.url + f"/v1/campaigns/{campaign['id']}?records=1"
    )
    assert status == 200
    assert again["campaign"]["values"] == campaign["values"]


def test_oversized_campaign_is_refused_before_expanding(service, monkeypatch):
    from repro.campaign import CampaignSpec

    def refuse(self):
        raise AssertionError("expand() called on an oversized campaign")

    monkeypatch.setattr(CampaignSpec, "expand", refuse)
    huge = dict(CAMPAIGN, grid={"nodes": list(range(2, 1002)),
                                "app_args.size": list(range(1000))})
    code, err = http_error("POST", service.url + "/v1/campaigns", huge)
    assert code == 413
    assert err["error"] == "campaign expands to 1000000 runs (limit 4096)"


# -- explain ------------------------------------------------------------------


def test_explain_conflict_then_renders_after_lifecycle_rerun(service):
    spec = dict(SPEC, app_args={"size": 256})
    _, body = http(
        "POST", service.url + "/v1/runs", {"spec": spec, "wait_s": 60}
    )
    key = body["key"]
    code, err = http_error("GET", service.url + f"/v1/runs/{key}/explain")
    assert code == 409 and "lifecycle" in err["error"]
    _, body = http(
        "POST",
        service.url + "/v1/runs",
        {"spec": spec, "lifecycle": True, "force": True, "wait_s": 60},
    )
    status, html = http("GET", service.url + f"/v1/runs/{key}/explain")
    assert status == 200
    page = html.decode()
    assert "<html" in page.lower()
    assert "blame" in page.lower()


# -- status + metrics ---------------------------------------------------------


def test_status_embeds_campaign_status_payload(service, warm_root):
    from repro.campaign.cli import status_payload

    root, _ = warm_root
    status, body = http("GET", service.url + "/v1/status")
    assert status == 200
    assert body["service"]["workers"] == 1
    assert body["scheduler"]["stats"]["submitted"] >= 1
    # GET /v1/status reuses the repro-campaign status --json payload.
    expected = status_payload(root)
    assert body["campaign_root"]["journal"] == expected["journal"]
    assert body["campaign_root"]["cache"] == expected["cache"]


def test_metrics_expose_request_and_cache_counters(service):
    status, metrics = http("GET", service.url + "/v1/metrics")
    assert status == 200
    assert metrics["serve.requests"] >= 1
    assert metrics["serve.cache.hits"] >= 1
    assert metrics["serve.cache.misses"] >= 1
    assert metrics["serve.cache.coalesced"] >= 1
    assert metrics["serve.http.runs.post.requests"] >= 1
    assert metrics["serve.http.runs.post.latency_us.count"] >= 1
    assert metrics["serve.http.responses.2xx"] >= 1


def test_metrics_registry_is_fixed_at_start(tmp_path, monkeypatch):
    """Every instrument exists from start-up, so no request adds one
    while another thread's /v1/metrics export iterates the registry."""
    CampaignEngine(root=tmp_path, workers=1, echo=None).run_specs(
        [RunSpec.from_dict(SPEC)]
    )
    svc = ServeService(tmp_path, workers=1, echo=None).start()
    try:
        url, scheduler = svc.url, svc.state.scheduler
        before = len(svc.state.metrics)

        http("POST", url + "/v1/runs", SPEC)  # hit
        spec = dict(SPEC, app_args={"size": 8})
        held, scheduler._dispatch = scheduler._dispatch, lambda job: None
        try:
            _, miss = http("POST", url + "/v1/runs",
                           {"spec": spec, "lifecycle": True})
            http("POST", url + "/v1/runs", spec)  # coalesced
        finally:
            scheduler._dispatch = held
        scheduler.start()
        scheduler.wait(timeout_s=60)
        job_id, key = miss["job"]["id"], miss["key"]
        _, body = http("POST", url + "/v1/campaigns", {"spec": CAMPAIGN})
        for path in (
            f"/v1/jobs/{job_id}", f"/v1/jobs/{job_id}/events",
            f"/v1/campaigns/{body['campaign']['id']}", f"/v1/runs/{key}",
            f"/v1/runs/{key}/explain", "/v1/status", "/v1/metrics",
        ):
            assert http("GET", url + path)[0] == 200, path
        assert http_error("GET", url + "/nope")[0] == 404
        monkeypatch.setattr(svc.state, "status", lambda: 1 / 0)
        assert http_error("GET", url + "/v1/status")[0] == 500

        metrics = svc.state.metrics.as_dict()
        assert len(svc.state.metrics) == before
        for route in ("runs.post", "campaigns.post", "jobs.get",
                      "events.get", "campaigns.get", "records.get",
                      "explain.get", "status.get", "metrics.get",
                      "unrouted"):
            assert metrics[f"serve.http.{route}.requests"] >= 1, route
        for name in ("hits", "misses", "coalesced"):
            assert metrics[f"serve.cache.{name}"] >= 1, name
        for cls in (2, 4, 5):
            assert metrics[f"serve.http.responses.{cls}xx"] >= 1, cls
    finally:
        svc.close()


# -- error handling -----------------------------------------------------------


def test_unknown_paths_and_ids_404(service):
    assert http_error("GET", service.url + "/nope")[0] == 404
    assert http_error("GET", service.url + "/v1/jobs/j999999")[0] == 404
    assert http_error("GET", service.url + "/v1/campaigns/c999")[0] == 404
    missing = "0" * 32
    assert http_error("GET", service.url + f"/v1/runs/{missing}")[0] == 404


def test_malformed_key_is_rejected(service):
    code, err = http_error("GET", service.url + "/v1/runs/not-a-key")
    assert code == 400 and "malformed" in err["error"]


def test_bad_bodies_are_400(service):
    code, _ = http_error("POST", service.url + "/v1/runs",
                         {"app": "pingpong", "network": "ib", "nodes": 0})
    assert code == 400
    code, _ = http_error("POST", service.url + "/v1/runs",
                         {"network": "ib", "nodes": 2})
    assert code == 400
    req = urllib.request.Request(
        service.url + "/v1/runs", data=b"{not json", method="POST"
    )
    try:
        urllib.request.urlopen(req, timeout=30)
        raise AssertionError("bad JSON accepted")
    except urllib.error.HTTPError as exc:
        assert exc.code == 400


# -- concurrency --------------------------------------------------------------


def test_record_reads_race_hits_on_a_small_lru(tmp_path):
    """GET /v1/runs/<key> reads the LRU that hits reorder and evict:
    four readers against one hitter over four keys and two LRU slots."""
    specs = [RunSpec.from_dict(dict(SPEC, app_args={"size": size}))
             for size in (1, 2, 3, 4)]
    cache = ResultCache(tmp_path / "cache")
    for spec in specs:
        cache.put(spec.key, {"key": spec.key, "status": "ok"})
    state = ServeState(tmp_path, workers=1, memory_cache=2)
    stop = threading.Event()
    errors = []

    def loop(ask):
        try:
            while not stop.is_set():
                for spec in specs:
                    record, text = ask(spec)
                    assert record["key"] == spec.key
                    assert json.loads(text)["key"] == spec.key
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    def read(spec):
        return state.scheduler.cached(spec.key)

    def hit(spec):
        sub = state.submit(spec)
        assert sub.source == "cache"
        return sub.record, sub.text

    threads = [threading.Thread(target=loop, args=(read,)) for _ in range(4)]
    threads.append(threading.Thread(target=loop, args=(hit,)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        stop.wait(2.0)
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
        sys.setswitchinterval(interval)
        state.scheduler.close()
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []


# -- restart resume -----------------------------------------------------------


def test_daemon_restart_resumes_pending_jobs(tmp_path):
    first = ServeService(tmp_path, workers=1, echo=None).start()
    try:
        scheduler = first.state.scheduler
        scheduler._dispatch = lambda job: None  # daemon "dies" mid-flight
        status, body = http(
            "POST", first.url + "/v1/runs",
            dict(SPEC, app_args={"size": 32}),
        )
        assert status == 202
    finally:
        first.close()

    second = ServeService(tmp_path, workers=1, echo=None).start()
    try:
        assert second.state.scheduler.stats["resumed"] == 1
        second.state.scheduler.wait(timeout_s=60)
        status, body = http("POST", second.url + "/v1/runs",
                            dict(SPEC, app_args={"size": 32}))
        assert status == 200 and body["source"] == "cache"
    finally:
        second.close()
