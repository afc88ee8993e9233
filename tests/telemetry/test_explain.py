"""``repro-explain``: reports, the diff gate, and blame regressions."""

import json

import pytest

from repro.campaign import CampaignEngine, CampaignSpec, RunSpec
from repro.campaign.runner import execute_run
from repro.microbench.pingpong import pingpong_program
from repro.mpi import Machine
from repro.telemetry import Telemetry
from repro.telemetry.chrome import write_chrome_trace
from repro.telemetry.explain import build_html, build_report, main, waterfall
from repro.telemetry.lifecycle import MessageSpan

pytestmark = [pytest.mark.telemetry, pytest.mark.lifecycle]


def _traced_run(network, size, reps=3, seed=0):
    machine = Machine(
        network,
        2,
        seed=seed,
        telemetry=Telemetry(metrics=True, lifecycle=True, series=True),
    )
    result = machine.run(pingpong_program(size=size, repetitions=reps))
    return machine, result


# -- the paper-level regressions ---------------------------------------------


def test_registration_blames_4mb_but_not_1mb():
    """Fig. 5's mechanism, as attribution: at 4 MB the MVAPICH pin-down
    cache thrashes and registration earns a large critical-path share;
    at 1 MB the cache holds and the share is noise."""
    shares = {}
    for size in (1 << 20, 4 << 20):
        machine, _ = _traced_run("ib", size, reps=10)
        table = machine.blame()
        shares[size] = table["phases"].get("registration", {"share": 0.0})[
            "share"
        ]
    assert shares[1 << 20] < 0.05
    assert shares[4 << 20] > 0.2


def test_elan_matches_on_arrival_where_mvapich_cannot():
    """Elan-4's NIC-side tag match vs MVAPICH host-side matching, as a
    span annotation: at 0 bytes every pre-posted Elan recv is matched
    the moment the message arrives; IB recvs never are."""
    reports = {}
    for network in ("ib", "elan"):
        machine, result = _traced_run(network, 0)
        reports[network] = build_report(machine, result)
    assert reports["elan"]["matched_on_arrival_share"] == 1.0
    assert reports["ib"]["matched_on_arrival_share"] == 0.0


# -- report construction -----------------------------------------------------


def test_waterfall_buckets_by_kind_proto_size():
    a = MessageSpan(0, "send", 0, 1, 0, 256, "eager", 0.0)
    a.phase("wqe_post", 0.0, 1.0)
    a.finish(2.0)
    b = MessageSpan(1, "send", 0, 1, 0, 256, "eager", 2.0)
    b.phase("wqe_post", 2.0, 5.0)
    b.finish(6.0)
    c = MessageSpan(2, "recv", 1, 0, 0, 256, "eager", 0.0)
    c.phase("eager_copy", 1.0, 2.0)
    c.finish(2.0)
    rows = waterfall([a, b, c])
    assert [(r["kind"], r["proto"], r["size"]) for r in rows] == [
        ("recv", "eager", 256),
        ("send", "eager", 256),
    ]
    sends = rows[1]
    assert sends["count"] == 2
    assert sends["mean_total_us"] == pytest.approx(3.0)
    assert sends["phases"]["wqe_post"] == pytest.approx(2.0)


def test_build_report_and_html_are_self_contained():
    machine, result = _traced_run("ib", 65536)
    report = build_report(machine, result, label="unit")
    assert report["label"] == "unit"
    assert report["spans"] > 0
    assert report["critical_path_segments"] >= len(report["critical_path"])
    shares = sum(
        entry["share"] for entry in report["blame"]["components"].values()
    )
    assert shares == pytest.approx(1.0)
    assert report["series"]["channels"]
    json.dumps(report)  # JSON-serializable as a whole

    page = build_html(report)
    assert page.startswith("<!DOCTYPE html>")
    assert "Critical-path blame" in page
    assert "<svg" in page  # sparklines
    assert "http" not in page.split("</style>")[1]  # no external assets


# -- the CLI -----------------------------------------------------------------


def _cli_run(tmp_path, name, network, size=256, seed=0, html=False):
    out = tmp_path / f"{name}.json"
    argv = [
        "run",
        "--network",
        network,
        "--arg",
        f"size={size}",
        "--arg",
        "repetitions=3",
        "--seed",
        str(seed),
        "-o",
        str(out),
    ]
    if html:
        argv += ["--html", str(tmp_path / f"{name}.html")]
    assert main(argv) == 0
    return out


def test_cli_run_writes_report_and_html(tmp_path, capsys):
    out = _cli_run(tmp_path, "ib", "ib", html=True)
    report = json.loads(out.read_text())
    assert report["network"] == "ib" and report["spans"] > 0
    page = (tmp_path / "ib.html").read_text()
    assert "repro-explain" in page
    assert "blame:" in capsys.readouterr().out


def test_cli_diff_gates_on_blame_drift(tmp_path, capsys):
    ib = _cli_run(tmp_path, "ib", "ib")
    # Identical reports: no drift, exit 0.
    assert main(["diff", str(ib), str(ib)]) == 0
    assert "within threshold" in capsys.readouterr().out
    # Cross-technology blame differs wildly: exit 1 with drift markers.
    elan = _cli_run(tmp_path, "elan", "elan")
    assert main(["diff", str(ib), str(elan)]) == 1
    assert "<-- drift" in capsys.readouterr().out
    # A huge threshold tolerates anything.
    assert main(["diff", str(ib), str(elan), "--threshold", "1.0"]) == 0


def test_cli_rejects_non_report_files(tmp_path):
    bogus = tmp_path / "bogus.json"
    bogus.write_text(json.dumps(["not", "a report"]))
    assert main(["diff", str(bogus), str(bogus)]) == 2
    assert main(["diff", str(tmp_path / "missing.json"), str(bogus)]) == 2


def test_cli_run_rejects_non_finite_app_args(tmp_path, capsys):
    """``--arg size=inf`` fails at the boundary with the named error that
    campaigns and ``POST /v1/runs`` give (exit 2), not with an
    ``OverflowError`` from ``campaign.programs._build_pingpong``."""
    out = tmp_path / "inf.json"
    assert main(["run", "--arg", "size=inf", "-o", str(out)]) == 2
    assert "is not a finite number" in capsys.readouterr().err
    assert main(["run", "--arg", "size=nan", "-o", str(out)]) == 2
    assert not out.exists()


def test_cli_run_names_the_cause_of_a_crashed_rank(tmp_path, capsys):
    """A one-rank ping-pong crashes rank 0; besides the surfaced crash the
    CLI names the fault behind it, the ``error_cause`` that
    ``execute_run`` records for the same spec (exit 2)."""
    out = tmp_path / "one.json"
    assert main(["run", "--nodes", "1", "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert "process 'rank0' crashed" in err
    assert "(cause: ConfigurationError: ping-pong needs two ranks)" in err
    record = execute_run(RunSpec(app="pingpong", network="ib", nodes=1))
    assert f"(cause: {record['error_cause']})" in err
    assert not out.exists()


def test_cli_run_is_labelled_and_canonicalized_like_a_campaign_run(tmp_path):
    out = tmp_path / "r.json"
    argv = ["run", "--network", "elan", "--arg", "size=256.0",
            "--arg", "repetitions=2", "-o", str(out)]
    assert main(argv) == 0
    spec = RunSpec(
        app="pingpong",
        network="elan",
        nodes=2,
        app_args=(("size", 256), ("repetitions", 2)),
    )
    label = json.loads(out.read_text())["label"]
    assert label == spec.label()
    assert label == "pingpong(repetitions=2,size=256) elan 2n x1ppn seed=0"


def test_cli_same_seed_reports_are_byte_identical(tmp_path):
    a = _cli_run(tmp_path, "a", "ib", seed=3)
    b = _cli_run(tmp_path, "b", "ib", seed=3)
    assert a.read_bytes() == b.read_bytes()


# -- campaign integration ----------------------------------------------------

CAMPAIGN = CampaignSpec(
    name="explain-blame",
    base={"app": "pingpong", "nodes": 2, "app_args.repetitions": 2},
    grid={"network": ["ib", "elan"], "app_args.size": [1024, 65536]},
    repetitions=1,
    seed_base=0,
)


def test_campaign_blame_records_serial_equals_parallel(tmp_path):
    serial = CampaignEngine(
        root=tmp_path / "s", workers=1, lifecycle=True,
    ).run(CAMPAIGN)
    parallel = CampaignEngine(
        root=tmp_path / "p", workers=4, lifecycle=True,
    ).run(CAMPAIGN)

    def payload(result):
        return json.dumps(
            sorted(
                (r["key"], r["blame"], r["series"]) for r in result.records
            ),
            sort_keys=True,
        )

    assert payload(serial) == payload(parallel)
    for record in serial.records:
        assert record["blame"]["components"]
        assert record["series"]["channels"]


def test_campaign_without_blame_keeps_lean_records(tmp_path):
    result = CampaignEngine(root=tmp_path, workers=1).run(CAMPAIGN)
    for record in result.records:
        assert "blame" not in record and "series" not in record


# -- chrome-trace integration ------------------------------------------------


def test_chrome_trace_carries_lifecycle_and_series_events(tmp_path):
    machine = Machine(
        "ib",
        2,
        seed=0,
        telemetry=Telemetry(
            metrics=True, timeline=True, lifecycle=True, series=True,
            trace=True,
        ),
    )
    machine.run(pingpong_program(size=65536, repetitions=2))
    path = tmp_path / "trace.json"
    trace = write_chrome_trace(path, machine.sim, label="t")
    events = trace["traceEvents"]
    lifecycle = [
        e for e in events if str(e.get("cat", "")).startswith("lifecycle.")
    ]
    counters = [e for e in events if e.get("ph") == "C"]
    assert lifecycle and all(e["ph"] == "X" for e in lifecycle)
    assert counters
    assert "dropped" in trace["otherData"]

    # The summarize CLI digests the same file, histograms included.
    assert main(["summarize", str(path), "--top", "5", "--phase"]) == 0


def test_trace_summarize_top_and_phase_output(tmp_path, capsys):
    machine = Machine(
        "ib",
        2,
        seed=0,
        telemetry=Telemetry(metrics=True, lifecycle=True, series=True),
    )
    machine.run(pingpong_program(size=256, repetitions=2))
    path = tmp_path / "trace.json"
    write_chrome_trace(path, machine.sim, label="t")
    assert main(["summarize", str(path), "--top", "3", "--phase"]) == 0
    out = capsys.readouterr().out
    assert "slowest 3 spans:" in out
    assert "phase histogram:" in out
