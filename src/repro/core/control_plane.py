"""Switch-CPU model: slow-path connection learning and insertion (§4.1, §5.2).

The switch's embedded x86 CPU drains learning-filter batches, runs the
cuckoo BFS to pick slots, and writes entries into ConnTable over PCI-E.
The paper measures ~200 K insertions/second as achievable; that rate, not
the data plane, is what creates *pending connections* and hence the whole
PCC problem.

The CPU is modelled as a single-server FIFO: entries complete at
``1/insertion_rate`` intervals, starting when the CPU is free.  Redirected
false-positive TCP SYNs are handled as separate jobs with a fixed software
delay (a few milliseconds, §4.2).

Unlike the original perfectly-reliable FIFO, this model can *fail* the way
a real slow path does (see ``repro.faults`` and docs/robustness.md):

* a **bounded backlog** (``max_backlog``) sheds excess jobs instead of
  queueing them forever;
* ConnTable writes are **acknowledged**: an injected PCI-E write fault
  (the ``write_fault`` hook) triggers bounded retry with linear backoff,
  and a job can exhaust its retries;
* the CPU can **crash** (in-flight and queued jobs lost) and **restart**
  (``on_restart``), and can **stall**, pushing every outstanding
  completion out by the stall window.

A job that leaves the CPU without installing — shed, lost or failed — is
reported through the one ``on_dropped`` hook with its reason.  The switch
parks the connection in one waiting set and re-offers it to the learning
filter, oldest first, once the CPU is up and has room again — after an
install completes, when the CPU restarts, or (a failed write) after a
doubling backoff — so a full backlog, a long outage or a long write-fault
window costs events per arrival, not per millisecond of outage.

All hooks default to disabled, in which case behaviour is bit-identical to
the reliable FIFO.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from ..asicsim.learning_filter import LearnBatch
from ..netsim.events import EventHandle, EventQueue
from ..netsim.simulator import PRIO_INTERNAL
from ..obs.metrics import LATENCY_BUCKETS_S, MetricRegistry, Scope

#: Callback invoked when the CPU finishes installing one connection:
#: ``(key, metadata)``.
InstallCallback = Callable[[bytes, Tuple], None]

#: Callback for a job that left the CPU without installing:
#: ``(key, metadata, reason)``.  The reason is ``"shed"`` (bounded backlog
#: full), ``"lost"`` (crashed, or submitted while down) or
#: ``"install_failed"`` (write retries exhausted).
DropCallback = Callable[[bytes, Tuple, str], None]


class _Job:
    """One accepted insertion job and its scheduled completion.

    The job is its own heap action (:meth:`fire`), so arming it allocates
    no closure.  ``handle`` closes a job -> handle -> action -> job loop
    while the completion is scheduled; whoever takes the job out of
    ``SwitchCpu._outstanding`` clears it, and the job is then freed by
    reference counting alone.
    """

    __slots__ = ("cpu", "key", "metadata", "attempts", "handle")

    def __init__(self, cpu: "SwitchCpu", key: bytes, metadata: Tuple) -> None:
        self.cpu = cpu
        self.key = key
        self.metadata = metadata
        self.attempts = 0
        self.handle: Optional[EventHandle] = None

    def fire(self) -> None:
        """The completion event: one call into the switch once the write
        is acknowledged (at once without a write-fault hook)."""
        cpu = self.cpu
        self.handle = None
        if cpu.write_fault is not None and cpu._write_failed(self):
            return
        del cpu._outstanding[self]
        cpu._m_installed.value += 1.0
        cpu.on_installed(self.key, self.metadata)


class SwitchCpu:
    """Single-core switch CPU processing ConnTable insertions in FIFO order.

    It counts into the ``metrics`` scope it is handed (a private registry
    of its own when built without one); those counters are the only store,
    and ``submitted``, ``completed``, ``shed`` … are read-only views of them.
    """

    def __init__(
        self,
        queue: EventQueue,
        insertion_rate_per_s: float,
        on_installed: InstallCallback,
        metrics: Scope = None,
        max_backlog: Optional[int] = None,
        retry_limit: int = 0,
        retry_backoff_s: float = 1e-4,
    ) -> None:
        if insertion_rate_per_s <= 0:
            raise ValueError("insertion rate must be positive")
        if max_backlog is not None and max_backlog <= 0:
            raise ValueError("max_backlog must be positive or None")
        self.queue = queue
        #: CPU seconds one ConnTable write takes.
        self.per_entry_s = 1.0 / insertion_rate_per_s
        self.on_installed = on_installed
        self.max_backlog = max_backlog
        self.retry_limit = retry_limit
        self.retry_backoff_s = retry_backoff_s
        # Failure-path hooks; all optional.  ``write_fault`` is consulted
        # once per install attempt (fault injectors set it); ``on_dropped``
        # tells the switch what left the slow path without installing.
        self.write_fault: Optional[Callable[[bytes], bool]] = None
        self.on_dropped: Optional[DropCallback] = None
        self.on_restart: Optional[Callable[[], None]] = None
        # -inf: the CPU has never been busy (the simulation clock may start
        # negative during warm-up replay).
        self._busy_until = float("-inf")
        self.down = False
        #: Accepted jobs not yet completed/failed, in submission order
        #: (a dict used as an ordered set).
        self._outstanding: Dict[_Job, None] = {}
        if metrics is None:
            metrics = MetricRegistry().scope("")
        self._m_submitted = metrics.counter(
            "jobs_submitted_total", "insertion jobs queued on the CPU"
        )
        self._m_installed = metrics.counter(
            "installs_total", "ConnTable installs completed"
        )
        self._m_batches = metrics.counter(
            "batches_total", "learning-filter batches accepted"
        )
        self._m_queue_delay = metrics.histogram(
            "batch_queueing_delay_s",
            buckets=LATENCY_BUCKETS_S,
            help="wait before the CPU starts a newly submitted batch",
        )
        self._m_shed = metrics.counter(
            "jobs_shed_total", "jobs dropped by the bounded-backlog policy"
        )
        self._m_lost = metrics.counter(
            "jobs_lost_total", "jobs lost to CPU crashes or downtime"
        )
        self._m_retries = metrics.counter(
            "install_retries_total", "ConnTable writes retried after a fault"
        )
        self._m_failures = metrics.counter(
            "install_failures_total", "jobs abandoned after exhausting retries"
        )
        self._m_crashes = metrics.counter("crashes_total", "CPU crash events")
        self._m_stalls = metrics.counter("stalls_total", "CPU stall windows")
        # Re-registering after a rebind re-points the callbacks at the
        # new CPU instance; counters are shared and keep accumulating.
        metrics.gauge("backlog", "entries submitted but not installed").set_function(
            lambda: float(self.backlog)
        )
        metrics.gauge(
            "queueing_delay_s", "time until a job submitted now would start"
        ).set_function(self.queueing_delay)

    submitted = property(lambda self: int(self._m_submitted.value))
    completed = property(lambda self: int(self._m_installed.value))
    batches = property(lambda self: int(self._m_batches.value))
    shed = property(lambda self: int(self._m_shed.value))
    lost = property(lambda self: int(self._m_lost.value))
    retries = property(lambda self: int(self._m_retries.value))
    install_failures = property(lambda self: int(self._m_failures.value))
    crashes = property(lambda self: int(self._m_crashes.value))
    stalls = property(lambda self: int(self._m_stalls.value))

    @property
    def backlog(self) -> int:
        """Jobs accepted but not yet installed (or abandoned)."""
        return len(self._outstanding)

    def queueing_delay(self) -> float:
        """Time until the CPU would start a job submitted now."""
        return max(0.0, self._busy_until - self.queue.now)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def submit_batch(self, batch: LearnBatch) -> None:
        """Enqueue a learning-filter batch; entries complete sequentially.

        While the CPU is down the whole batch is lost; with a bounded
        backlog the tail of the batch that does not fit is shed (each
        reported through ``on_dropped``).
        """
        if self.down:
            for event in batch.events:
                self._lose(event.key, event.metadata)
            return
        now = self.queue.now
        start = max(now, self._busy_until)
        self._m_batches.value += 1.0
        self._m_queue_delay.observe(max(0.0, start - now))
        per_entry_s = self.per_entry_s
        outstanding, limit = self._outstanding, self.max_backlog
        schedule, submitted = self.queue.schedule, self._m_submitted
        for event in batch.events:
            if limit is not None and len(outstanding) >= limit:
                self._shed(event.key, event.metadata)
                continue
            start += per_entry_s
            submitted.value += 1.0
            job = _Job(self, event.key, event.metadata)
            outstanding[job] = None
            job.handle = schedule(start, job.fire, PRIO_INTERNAL)
        self._busy_until = max(self._busy_until, start)

    def submit_one(self, key: bytes, metadata: Tuple, extra_delay_s: float = 0.0) -> None:
        """Enqueue a single out-of-band job (e.g. a redirected SYN fix)."""
        if self.down:
            self._lose(key, metadata)
            return
        if self.max_backlog is not None and len(self._outstanding) >= self.max_backlog:
            self._shed(key, metadata)
            return
        start = max(self.queue.now, self._busy_until) + extra_delay_s + self.per_entry_s
        self._m_submitted.value += 1.0
        job = _Job(self, key, metadata)
        self._outstanding[job] = None
        job.handle = self.queue.schedule(start, job.fire, PRIO_INTERNAL)
        self._busy_until = start

    def _shed(self, key: bytes, metadata: Tuple) -> None:
        self._m_shed.value += 1.0
        if self.on_dropped is not None:
            self.on_dropped(key, metadata, "shed")

    def _lose(self, key: bytes, metadata: Tuple) -> None:
        self._m_lost.value += 1.0
        if self.on_dropped is not None:
            self.on_dropped(key, metadata, "lost")

    # ------------------------------------------------------------------
    # Completion (with write acknowledgement and retry)
    # ------------------------------------------------------------------

    def _write_failed(self, job: _Job) -> bool:
        """Whether an attempt of ``job``'s write failed (the write-fault
        hook says so).  A failed write is retried after a linear backoff,
        or, with its retries spent, dropped."""
        job.attempts += 1
        if not self.write_fault(job.key):
            return False
        if job.attempts <= self.retry_limit:
            self._m_retries.value += 1.0
            delay = self.retry_backoff_s * job.attempts
            job.handle = self.queue.schedule_in(delay, job.fire, PRIO_INTERNAL)
            return True
        # Retries exhausted: the write never acknowledged.
        del self._outstanding[job]
        self._m_failures.value += 1.0
        if self.on_dropped is not None:
            self.on_dropped(job.key, job.metadata, "install_failed")
        return True

    # ------------------------------------------------------------------
    # Fault semantics: crash/restart and stall
    # ------------------------------------------------------------------

    def crash(self, restart_delay_s: float) -> int:
        """The CPU process dies; every queued and in-flight job is lost.

        Submissions are refused (lost) until the restart ``restart_delay_s``
        later.  Returns the number of jobs lost; each is reported through
        ``on_dropped`` in submission order, and ``on_restart`` fires when
        the CPU comes back (the switch re-offers waiting keys there).
        """
        if restart_delay_s < 0:
            raise ValueError("restart_delay_s must be non-negative")
        if self.down:
            return 0
        self.down = True
        self._m_crashes.value += 1.0
        lost = list(self._outstanding)
        self._outstanding.clear()
        self._busy_until = self.queue.now + restart_delay_s
        for job in lost:
            if job.handle is not None:
                job.handle.cancel()
                job.handle = None
            self._lose(job.key, job.metadata)

        def restart() -> None:
            self.down = False
            if self.on_restart is not None:
                self.on_restart()

        self.queue.schedule_in(restart_delay_s, restart, PRIO_INTERNAL)
        return len(lost)

    def stall(self, duration_s: float) -> None:
        """The CPU freezes for ``duration_s`` (GC pause, PCI-E contention):
        nothing is lost, but every outstanding completion slips by the
        window and newly submitted jobs queue behind it."""
        if duration_s < 0:
            raise ValueError("duration_s must be non-negative")
        if self.down or duration_s == 0.0:
            return
        self._m_stalls.value += 1.0
        self._busy_until = max(self._busy_until, self.queue.now) + duration_s
        for job in self._outstanding:
            handle = job.handle
            if handle is None or handle.cancelled:
                continue
            handle.cancel()
            job.handle = self.queue.schedule(
                handle.time + duration_s, job.fire, PRIO_INTERNAL
            )
