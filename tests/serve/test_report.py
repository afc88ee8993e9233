"""Tests for record->blame-report adaptation and the repro-serve CLI."""

import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

import repro
from repro.campaign import RunSpec, execute_run
from repro.serve import record_explainable, record_html, record_report
from repro.serve.cli import main

pytestmark = pytest.mark.serve


def lifecycle_record():
    spec = RunSpec(app="pingpong", network="ib", nodes=2,
                   app_args=(("size", 1024),))
    return execute_run(spec, lifecycle=True)


def plain_record():
    spec = RunSpec(app="pingpong", network="ib", nodes=2,
                   app_args=(("size", 1024),))
    return execute_run(spec)


def test_plain_record_is_not_explainable():
    record = plain_record()
    assert not record_explainable(record)
    assert record_report(record) is None
    assert record_html(record) is None


def test_lifecycle_record_builds_report():
    record = lifecycle_record()
    assert record_explainable(record)
    report = record_report(record)
    assert report["label"] == record["label"]
    assert report["network"] == "ib"
    assert report["n_nodes"] == 2
    assert report["elapsed_us"] == record["elapsed_us"]
    assert report["blame"]["components"]
    shares = [c["share"] for c in report["blame"]["components"].values()]
    assert all(0.0 <= s <= 1.0 for s in shares)


def test_lifecycle_record_renders_html():
    html = record_html(lifecycle_record())
    assert html is not None
    assert "<html" in html.lower()
    for component in record_report(lifecycle_record())["blame"]["components"]:
        assert component in html


def test_cli_print_status(tmp_path, capsys):
    code = main(["--root", str(tmp_path / "root"), "--print-status",
                 "--quiet", "--workers", "1"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["service"]["workers"] == 1
    assert set(payload["scheduler"]["jobs"].values()) == {0}
    assert payload["campaign_root"]["journal"]["records"] == 0


def _stat(path):
    """The fields after the command name in a ``/proc/<pid>/stat`` file
    (state, parent pid, ...), or ``None`` once the process is gone."""
    try:
        return path.read_text().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return None


def _children(pid):
    """Pids whose parent is ``pid``."""
    return [
        int(path.parent.name) for path in Path("/proc").glob("[0-9]*/stat")
        if (_stat(path) or [None, None])[1] == str(pid)
    ]


def _running(pid):
    """True unless ``pid`` is gone or a zombie waiting to be reaped."""
    fields = _stat(Path(f"/proc/{pid}/stat"))
    return fields is not None and fields[0] != "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                    reason="reads the daemon's worker pids from /proc")
def test_sigterm_shuts_the_worker_pool_down(tmp_path):
    # SIGTERM used to kill the daemon outright and leave its pool
    # workers running, reparented to init.  The log is a file, not a
    # pipe, which orphaned workers would hold open.
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    log_path = tmp_path / "serve.log"
    with open(log_path, "w") as log:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve.cli", "--root",
             str(tmp_path / "root"), "--port", "0", "--workers", "2"],
            stderr=log, env=env,
        )
    workers = []
    try:
        deadline = time.monotonic() + 60
        while len(workers) < 2:
            assert proc.poll() is None, log_path.read_text()
            assert time.monotonic() < deadline, "the pool never started"
            time.sleep(0.1)
            workers = _children(proc.pid)
        url = re.search(r"listening on (\S+)", log_path.read_text()).group(1)
        with urllib.request.urlopen(url + "/v1/status", timeout=60) as resp:
            assert resp.status == 200
        proc.send_signal(signal.SIGTERM)
        code = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    deadline = time.monotonic() + 10
    while any(_running(pid) for pid in workers) and time.monotonic() < deadline:
        time.sleep(0.1)
    survivors = [pid for pid in workers if _running(pid)]
    for pid in survivors:  # leave nothing behind when this fails
        os.kill(pid, signal.SIGKILL)
    err = log_path.read_text()
    assert code == 0, err
    assert "shutting down" in err
    assert not survivors
