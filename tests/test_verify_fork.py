"""`verify --check all` with one section in a forked child: the same bytes
as one process, and a child that fails, raises or dies is reported and
reaped.

The `forking` fixture sends every `all` report through the fork, whatever
its size and however many CPUs the host gives.  After each test no child
is left, which `os.waitpid(-1, os.WNOHANG)` shows by raising
ChildProcessError, and no object is left frozen out of the collector."""

import gc
import hashlib
import os
import signal
import threading
import time

import pytest

from adjcrys import affine_a, affine_c, cli
from adjcrys.cli import _verification_report, main
from test_golden_outputs import GOLDEN
from test_seeded_faults import _patch_content_counts_one_twice

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="the platform cannot fork")

ALL_REPORTS = sorted(k for k in GOLDEN if k.startswith("verify") and k.endswith("--check all"))


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert gc.get_freeze_count() == 0


@pytest.fixture
def forking(monkeypatch):
    """Every `all` report forks; the list counts the forks."""
    forks = []
    fork = os.fork

    def counted():
        forks.append(1)
        return fork()

    monkeypatch.setattr(cli, "FORK_MIN_ELEMENTS", 0)
    monkeypatch.setattr(cli, "_fork_available", lambda: True)
    monkeypatch.setattr(os, "fork", counted)
    return forks


def in_child(parent: int, action):
    """A stand-in for the forked section: `action()` in the child, and an
    AssertionError should it ever run in the parent."""
    def section(*args):
        if os.getpid() == parent:
            raise AssertionError("the forked section ran in the parent")
        return action()
    return section


@pytest.mark.parametrize("invocation", ALL_REPORTS)
def test_a_forked_report_prints_the_golden_bytes(invocation, forking, capsys):
    code = main(invocation.split())
    data = capsys.readouterr().out.encode("utf-8")
    want = GOLDEN[invocation]
    assert forking == [1]
    assert (code, len(data), hashlib.sha256(data).hexdigest()) == (
        want["exit"], want["bytes"], want["sha256"]
    )


def _plant_c1_eps0_off_by_one(monkeypatch):
    original = affine_c.KERNEL.eps
    monkeypatch.setattr(affine_c.KERNEL, "eps", lambda x, i, l: original(x, i, l) + (i == 0))


@pytest.mark.parametrize(("family", "plant", "label"), [
    ("a1", _patch_content_counts_one_twice, "alpha/weight-preserving"),
    ("c1", _plant_c1_eps0_off_by_one, "axioms/stats-closed-vs-iteration"),
])
def test_a_fault_in_the_forked_section_fails_alike_on_both_paths(
        family, plant, label, monkeypatch, capsys):
    plant(monkeypatch)
    argv = ["verify", "--family", family, "--rank", "2", "--level", "2"]
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_fork_available", lambda: False)
        alone = main(argv), capsys.readouterr().out
    with monkeypatch.context() as patch:
        patch.setattr(cli, "FORK_MIN_ELEMENTS", 0)
        patch.setattr(cli, "_fork_available", lambda: True)
        forked = main(argv), capsys.readouterr().out
    assert forked == alone
    assert alone[0] == 1
    assert f"FAIL  {label} " in alone[1]


@pytest.mark.parametrize(("family", "owner", "name"), [
    ("a1", affine_a, "alpha_checks"),
    ("c1", cli, "axiom_checks"),
])
def test_an_exception_in_the_forked_section_reaches_the_caller(
        family, owner, name, forking, monkeypatch):
    def fail():
        raise ZeroDivisionError(f"planted in the {family} child")

    monkeypatch.setattr(owner, name, in_child(os.getpid(), fail))
    with pytest.raises(ZeroDivisionError, match=f"^planted in the {family} child$"):
        _verification_report(family, 2, 2, "all")
    assert forking == [1]


def test_an_exception_in_the_parent_kills_and_reaps_the_child(forking, monkeypatch):
    monkeypatch.setattr(affine_a, "alpha_checks", in_child(os.getpid(), lambda: time.sleep(60)))

    def verify_theorems(*args):
        raise KeyError("planted in the parent")

    monkeypatch.setattr(affine_a, "verify_theorems", verify_theorems)
    start = time.monotonic()
    with pytest.raises(KeyError, match="planted in the parent"):
        _verification_report("a1", 2, 2, "all")
    assert time.monotonic() - start < 30  # the sleeping child was not waited for
    assert forking == [1]


def test_a_child_killed_before_its_result_is_an_error_with_exit_1(forking, monkeypatch, capsys):
    monkeypatch.setattr(affine_a, "alpha_checks",
                        in_child(os.getpid(), lambda: os.kill(os.getpid(), signal.SIGKILL)))
    assert main(["verify", "--family", "a1", "--rank", "2", "--level", "2"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "SIGKILL" in err
    assert "Traceback" not in err


def test_a_result_the_child_cannot_send_is_an_error_with_exit_1(forking, monkeypatch, capsys):
    """An exception that cannot be pickled leaves the child without a result."""
    def fail():
        raise ValueError(lambda: None)

    monkeypatch.setattr(affine_a, "alpha_checks", in_child(os.getpid(), fail))
    assert main(["verify", "--family", "a1", "--rank", "2", "--level", "2"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "exit status 1" in err


def test_a_fork_that_fails_runs_every_section_here(monkeypatch, capsys):
    def fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(cli, "FORK_MIN_ELEMENTS", 0)
    monkeypatch.setattr(cli, "_fork_available", lambda: True)
    monkeypatch.setattr(os, "fork", fork)
    invocation = "verify --family a1 --rank 2 --level 2 --check all"
    assert main(invocation.split()) == 0
    data = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(data).hexdigest() == GOLDEN[invocation]["sha256"]


def test_small_and_partial_reports_stay_in_one_process(monkeypatch, capsys):
    """Below FORK_MIN_ELEMENTS, or with any selector but `all`, nothing forks."""
    monkeypatch.setattr(cli, "_fork_available", lambda: True)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    assert cli.FORK_MIN_ELEMENTS > 400  # a1 n=3 l=3
    assert main(["verify", "--family", "a1", "--rank", "3", "--level", "3"]) == 0
    monkeypatch.setattr(cli, "FORK_MIN_ELEMENTS", 0)
    for check in ("axioms", "alpha", "boundary"):
        assert main(["verify", "--family", "a1", "--rank", "2", "--level", "2", "--check", check]) == 0
    capsys.readouterr()


def test_the_fork_needs_two_cpus_and_one_thread(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert cli._fork_available()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert not cli._fork_available()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    release = threading.Event()
    worker = threading.Thread(target=release.wait)
    worker.start()
    try:
        assert not cli._fork_available()
    finally:
        release.set()
        worker.join(timeout=10)
    assert not worker.is_alive()
    monkeypatch.delattr(os, "fork")
    assert not cli._fork_available()
