"""Crash-isolated task execution: one process per run.

``concurrent.futures.ProcessPoolExecutor`` cannot survive the faults this
repo injects on purpose: a worker that hard-exits poisons the whole pool
(``BrokenProcessPool``, with no record of *which* task died) and a hung
worker can never be killed.  :class:`IsolatedExecutor` therefore runs every
task in its own short-lived ``multiprocessing.Process`` connected by a
one-way pipe: a crash loses exactly one task, a hang is terminated at its
deadline, and both come back as structured :class:`IsolatedOutcome` records
instead of exceptions.

Retries with exponential backoff live here too, so the campaign layer sees
each task exactly once — as a final success or a final failure with the
attempt count attached.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from multiprocessing.connection import wait as _connection_wait
from pathlib import Path
from typing import Callable

from ..errors import ConfigError
from ..observe.events import EventKind

#: grace period between SIGTERM and SIGKILL for a timed-out worker
_TERM_GRACE_S = 1.0

#: how much of a dead worker's stderr / traceback tail to keep in the outcome
_DIAG_TAIL_CHARS = 600


def _tail(text: str, limit: int = _DIAG_TAIL_CHARS) -> str:
    """Whitespace-collapsed tail of a diagnostic blob, bounded in size."""
    collapsed = " ".join(text.split())
    return collapsed[-limit:] if len(collapsed) > limit else collapsed


@dataclass
class IsolatedOutcome:
    """Terminal outcome of one task (after all retries)."""

    status: str              # "ok" | "error" | "crash" | "timeout"
    value: object = None     # whatever the task function returned (ok only)
    detail: str = ""         # exception text / exit code / deadline note
    wall_time_s: float = 0.0  # wall time of the *final* attempt
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _child_main(conn, fn: Callable, task, attempt: int, stderr_path: str | None) -> None:
    """Child entry point: run the task, ship the outcome through the pipe.

    A fault that hard-exits or hangs simply never sends anything; the
    parent reads the empty pipe (or the expired deadline) as the verdict —
    plus whatever the child managed to write to its redirected stderr,
    which is the only forensic record a hard death leaves behind.
    """
    if stderr_path is not None:
        try:
            fd = os.open(stderr_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
            os.dup2(fd, 2)
            os.close(fd)
            sys.stderr = os.fdopen(2, "w", buffering=1, closefd=False)
        except OSError:
            pass  # diagnostics are best-effort; the task still runs
    start = time.perf_counter()
    try:
        value = fn(task, attempt)
    except BaseException as exc:  # noqa: BLE001 - the pipe is the report
        # ship the traceback tail so retry exhaustion reports *why*, not
        # just the exception class (satellite: RunFailure.cause diagnosis)
        trace = _tail(traceback.format_exc())
        detail = f"{type(exc).__name__}: {exc} [traceback: {trace}]"
        message = ("error", detail, time.perf_counter() - start)
    else:
        message = ("ok", value, time.perf_counter() - start)
    try:
        conn.send(message)
    except Exception:
        pass  # unpicklable value / closed pipe: parent records a crash
    finally:
        conn.close()


class _Running:
    """Book-keeping for one in-flight worker process."""

    __slots__ = ("proc", "conn", "index", "attempt", "started", "deadline", "stderr_path")

    def __init__(self, proc, conn, index, attempt, started, deadline, stderr_path):
        self.proc = proc
        self.conn = conn
        self.index = index
        self.attempt = attempt
        self.started = started
        self.deadline = deadline
        self.stderr_path = stderr_path

    def stderr_tail(self) -> str:
        """Whatever the worker wrote to stderr before dying (may be '')."""
        if self.stderr_path is None:
            return ""
        try:
            return _tail(Path(self.stderr_path).read_text(errors="replace"))
        except OSError:
            return ""

    def cleanup_stderr(self) -> None:
        if self.stderr_path is not None:
            Path(self.stderr_path).unlink(missing_ok=True)


class IsolatedExecutor:
    """Run tasks through ``fn(task, attempt)``, one process per attempt."""

    def __init__(
        self,
        fn: Callable,
        jobs: int = 1,
        timeout: float | None = None,
        retries: int = 0,
        backoff: float = 0.5,
        on_complete: Callable[[int, IsolatedOutcome], None] | None = None,
        observer=None,
    ):
        if jobs < 1:
            raise ConfigError("jobs must be at least 1")
        if retries < 0:
            raise ConfigError("retries cannot be negative")
        if timeout is not None and timeout <= 0:
            raise ConfigError("timeout must be positive")
        self.fn = fn
        self.jobs = jobs
        self.timeout = timeout
        self.retries = retries
        self.backoff = max(0.0, backoff)
        self.on_complete = on_complete
        #: optional repro.observe.Observer: receives WORKER_RETRY and
        #: WORKER_TIMEOUT events (parent-process side; never pickled)
        self.observer = observer
        self._ctx = mp.get_context()

    # ------------------------------------------------------------------
    def run(self, tasks: list) -> list[IsolatedOutcome]:
        """Execute all tasks; the result list is parallel to ``tasks``."""
        outcomes: list[IsolatedOutcome | None] = [None] * len(tasks)
        # (eligible_time, index, attempt): backoff is an eligibility time,
        # not a blocking sleep, so other tasks keep the slots busy meanwhile
        queue: list[tuple[float, int, int]] = [
            (0.0, index, 1) for index in range(len(tasks))
        ]
        running: dict[object, _Running] = {}
        try:
            while queue or running:
                now = time.perf_counter()
                self._launch_eligible(tasks, queue, running, now)
                wait_s = self._next_wait(queue, running, now)
                ready = _connection_wait(
                    [r.proc.sentinel for r in running.values()], timeout=wait_s
                )
                now = time.perf_counter()
                for sentinel in ready:
                    self._reap(running.pop(sentinel), queue, outcomes, now)
                for sentinel, entry in list(running.items()):
                    if entry.deadline is not None and now >= entry.deadline:
                        del running[sentinel]
                        self._kill(entry, queue, outcomes, now)
        finally:
            for entry in running.values():
                self._terminate(entry.proc)
                entry.conn.close()
                entry.cleanup_stderr()
        assert all(o is not None for o in outcomes)
        return outcomes  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def _launch_eligible(self, tasks, queue, running, now) -> None:
        queue.sort()
        while queue and len(running) < self.jobs and queue[0][0] <= now:
            _, index, attempt = queue.pop(0)
            recv, send = self._ctx.Pipe(duplex=False)
            fd, stderr_path = tempfile.mkstemp(prefix="repro-worker-", suffix=".stderr")
            os.close(fd)
            proc = self._ctx.Process(
                target=_child_main,
                args=(send, self.fn, tasks[index], attempt, stderr_path),
                daemon=True,
            )
            proc.start()
            send.close()  # the child owns the write end now
            deadline = None if self.timeout is None else now + self.timeout
            running[proc.sentinel] = _Running(
                proc, recv, index, attempt, now, deadline, stderr_path
            )

    def _next_wait(self, queue, running, now) -> float | None:
        """How long the sentinel wait may block without missing anything."""
        marks = [r.deadline for r in running.values() if r.deadline is not None]
        if queue and len(running) < self.jobs:
            marks.append(queue[0][0])  # a backoff'd task becomes eligible
        if not marks:
            return None if running else 0.0
        return max(0.0, min(marks) - now) + 0.01

    # ------------------------------------------------------------------
    def _reap(self, entry: _Running, queue, outcomes, now) -> None:
        """A worker exited on its own: read its report or call it a crash."""
        entry.proc.join()
        message = None
        try:
            if entry.conn.poll():
                message = entry.conn.recv()
        except (EOFError, OSError):
            message = None
        finally:
            entry.conn.close()
        if message is not None:
            status, value, wall = message
            if status == "ok":
                entry.cleanup_stderr()
                self._finish(
                    entry, outcomes,
                    IsolatedOutcome("ok", value=value, wall_time_s=wall, attempts=entry.attempt),
                )
                return
            outcome = IsolatedOutcome("error", detail=value, wall_time_s=wall, attempts=entry.attempt)
        else:
            # a hard death sends nothing through the pipe: the stderr tail
            # (abort message, interpreter fatal error, ...) is the diagnosis
            detail = f"worker died with exit code {entry.proc.exitcode}"
            stderr = entry.stderr_tail()
            if stderr:
                detail = f"{detail} [stderr: {stderr}]"
            outcome = IsolatedOutcome(
                "crash",
                detail=detail,
                wall_time_s=now - entry.started,
                attempts=entry.attempt,
            )
        entry.cleanup_stderr()
        self._retry_or_finish(entry, queue, outcomes, outcome, now)

    def _kill(self, entry: _Running, queue, outcomes, now) -> None:
        """A worker blew its deadline: terminate it and record a timeout."""
        self._terminate(entry.proc)
        entry.conn.close()
        detail = f"worker exceeded {self.timeout:.1f}s wall clock and was killed"
        stderr = entry.stderr_tail()
        if stderr:
            detail = f"{detail} [stderr: {stderr}]"
        entry.cleanup_stderr()
        outcome = IsolatedOutcome(
            "timeout",
            detail=detail,
            wall_time_s=now - entry.started,
            attempts=entry.attempt,
        )
        if self.observer is not None:
            self.observer.emit(
                EventKind.WORKER_TIMEOUT,
                task=entry.index, attempt=entry.attempt, deadline_s=self.timeout,
            )
        self._retry_or_finish(entry, queue, outcomes, outcome, now)

    def _terminate(self, proc) -> None:
        if proc.is_alive():
            proc.terminate()
            proc.join(_TERM_GRACE_S)
        if proc.is_alive():  # pragma: no cover - SIGTERM ignored
            proc.kill()
            proc.join()

    def _retry_or_finish(self, entry, queue, outcomes, outcome, now) -> None:
        if entry.attempt <= self.retries:
            delay = self.backoff * (2 ** (entry.attempt - 1))
            if self.observer is not None:
                self.observer.emit(
                    EventKind.WORKER_RETRY,
                    task=entry.index, attempt=entry.attempt,
                    status=outcome.status, delay_s=delay,
                )
            queue.append((now + delay, entry.index, entry.attempt + 1))
        else:
            self._finish(entry, outcomes, outcome)

    def _finish(self, entry, outcomes, outcome: IsolatedOutcome) -> None:
        outcomes[entry.index] = outcome
        if self.on_complete is not None:
            self.on_complete(entry.index, outcome)
