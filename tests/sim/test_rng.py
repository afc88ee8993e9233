"""Unit tests for named RNG streams."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.sim import RngStreams


def test_same_seed_same_stream_values():
    a = RngStreams(42).stream("x").random(5)
    b = RngStreams(42).stream("x").random(5)
    assert list(a) == list(b)


def test_different_names_different_values():
    r = RngStreams(42)
    assert r.stream("a").random() != r.stream("b").random()


def test_different_seeds_different_values():
    a = RngStreams(1).stream("x").random()
    b = RngStreams(2).stream("x").random()
    assert a != b


def test_stream_is_cached():
    r = RngStreams(0)
    assert r.stream("s") is r.stream("s")


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        RngStreams(-1)


def test_names_listing():
    r = RngStreams(0)
    r.stream("beta")
    r.stream("alpha")
    assert r.names() == ["alpha", "beta"]


def test_jitter_zero_cv_exact():
    r = RngStreams(0)
    assert r.jitter("j", 100.0, 0.0) == 100.0
    assert r.jitter("j", 0.0, 0.5) == 0.0


def test_jitter_mean_approximately_right():
    r = RngStreams(7)
    draws = [r.jitter("j", 100.0, 0.1) for _ in range(2000)]
    mean = sum(draws) / len(draws)
    assert abs(mean - 100.0) < 2.0
    assert all(d > 0 for d in draws)


def test_jitter_validation():
    r = RngStreams(0)
    with pytest.raises(ValueError):
        r.jitter("j", -1.0, 0.1)
    with pytest.raises(ValueError):
        r.jitter("j", 1.0, -0.1)


def test_adding_stream_does_not_perturb_existing():
    """Stream independence: the calibration-stability property."""
    r1 = RngStreams(5)
    first = r1.stream("app").random()
    r2 = RngStreams(5)
    r2.stream("other")  # created first this time
    second = r2.stream("app").random()
    assert first == second


def test_first_gamma_draw_is_unchanged():
    # Values drawn before numpy's import moved into ``stream``: seed
    # derivation and the draws themselves must not move with it.
    assert RngStreams(7).stream("compute.r3").gamma(4.0, 0.5) == 0.9267370932307277
    assert RngStreams(7).jitter("compute.r3", 10.0, 0.1) == 8.845069794626957


def test_drawless_run_never_imports_numpy():
    # A 2-node ping-pong draws nothing, so neither ``import repro`` nor
    # the run may load numpy (set-up time and resident memory).
    script = (
        "import sys\n"
        "import repro\n"
        "from repro.mpi import Machine\n"
        "from repro.microbench import pingpong_program\n"
        "Machine('ib', 2, seed=0).run(pingpong_program(64, 2))\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
