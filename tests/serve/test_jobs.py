"""Job lifecycle and queue contracts (no solver work involved)."""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import ReproError
from repro.serve import JobQueue, JobState, QueueFullError, UnknownJobError
from repro.serve import jobs as jobs_module


class TestLifecycle:
    def test_submit_pop_finish(self):
        queue = JobQueue(max_depth=4)
        job = queue.submit("sweep", "g1", {"x": 1})
        assert job.state == JobState.QUEUED
        assert job.id == "job-1"
        assert queue.depth == 1

        popped = queue.pop(timeout=0)
        assert popped is job
        assert job.state == JobState.RUNNING
        assert job.started_at is not None
        assert queue.depth == 1  # running still counts as in flight

        queue.finish(job, {"answer": 42})
        assert job.state == JobState.DONE
        assert job.result == {"answer": 42}
        assert job.finished_at is not None
        assert queue.depth == 0

    def test_fail_records_the_error(self):
        queue = JobQueue()
        job = queue.submit("mc", "g1", {})
        queue.pop(timeout=0)
        queue.fail(job, "boom")
        assert job.state == JobState.FAILED
        assert job.error == "boom"
        assert "error" in job.describe()

    def test_describe_hides_the_result_by_default(self):
        queue = JobQueue()
        job = queue.submit("sweep", "g1", {})
        queue.pop(timeout=0)
        queue.finish(job, {"big": [0.0] * 100})
        assert "result" not in job.describe()
        assert job.describe(include_result=True)["result"]["big"][0] == 0.0

    def test_get_unknown_job_raises(self):
        queue = JobQueue()
        with pytest.raises(UnknownJobError):
            queue.get("job-999")

    def test_pop_times_out_empty(self):
        queue = JobQueue()
        assert queue.pop(timeout=0.01) is None


class TestBackpressure:
    def test_submit_rejects_at_depth(self):
        queue = JobQueue(max_depth=2)
        queue.submit("sweep", "g1", {})
        queue.submit("sweep", "g1", {})
        with pytest.raises(QueueFullError):
            queue.submit("sweep", "g1", {})

    def test_running_jobs_count_toward_depth(self):
        queue = JobQueue(max_depth=1)
        job = queue.submit("sweep", "g1", {})
        queue.pop(timeout=0)  # running, deque empty
        with pytest.raises(QueueFullError):
            queue.submit("sweep", "g1", {})
        queue.finish(job, {})
        assert queue.submit("sweep", "g1", {}).state == JobState.QUEUED

    def test_closed_queue_rejects_submissions(self):
        queue = JobQueue()
        queue.close()
        with pytest.raises(ReproError):
            queue.submit("sweep", "g1", {})


class TestCancellation:
    def test_queued_job_cancels_immediately(self):
        queue = JobQueue()
        first = queue.submit("sweep", "g1", {})
        second = queue.submit("sweep", "g1", {})
        cancelled = queue.cancel(second.id)
        assert cancelled.state == JobState.CANCELLED
        assert queue.pop(timeout=0) is first
        assert queue.pop(timeout=0) is None  # second never dispatches

    def test_running_job_cancel_is_best_effort(self):
        queue = JobQueue()
        job = queue.submit("sweep", "g1", {})
        queue.pop(timeout=0)
        queue.cancel(job.id)
        assert job.state == JobState.RUNNING  # solver cannot be killed
        queue.finish(job, {"late": True})
        assert job.state == JobState.CANCELLED
        assert job.result is None  # dropped, not delivered

    def test_cancel_after_terminal_state_is_a_noop(self):
        queue = JobQueue()
        job = queue.submit("sweep", "g1", {})
        queue.pop(timeout=0)
        queue.finish(job, {"v": 1})
        assert queue.cancel(job.id).state == JobState.DONE
        assert job.result == {"v": 1}


class TestTimeouts:
    def test_expire_fails_overdue_running_jobs(self):
        queue = JobQueue()
        job = queue.submit("sweep", "g1", {}, timeout=5.0)
        queue.pop(timeout=0)
        assert queue.expire(now=job.started_at + 1.0) == []
        expired = queue.expire(now=job.started_at + 5.5)
        assert expired == [job]
        assert job.state == JobState.FAILED
        assert "timeout" in job.error

    def test_late_result_after_timeout_is_dropped(self):
        queue = JobQueue()
        job = queue.submit("sweep", "g1", {}, timeout=0.001)
        queue.pop(timeout=0)
        queue.expire(now=job.started_at + 1.0)
        queue.finish(job, {"late": True})  # worker eventually returns
        assert job.state == JobState.FAILED  # never flips back
        assert job.result is None

    def test_jobs_without_timeout_never_expire(self):
        queue = JobQueue()
        job = queue.submit("sweep", "g1", {})
        queue.pop(timeout=0)
        assert queue.expire(now=time.time() + 1e6) == []
        assert job.state == JobState.RUNNING


class TestCoalescingPops:
    def test_pop_compatible_skips_other_keys(self):
        queue = JobQueue()
        a1 = queue.submit("sweep", "g1", {}, coalesce_key=("a",))
        b = queue.submit("sweep", "g2", {}, coalesce_key=("b",))
        a2 = queue.submit("sweep", "g1", {}, coalesce_key=("a",))

        assert queue.pop(timeout=0) is a1
        assert queue.pop_compatible(("a",), timeout=0.01) is a2
        assert queue.pop_compatible(("a",), timeout=0.01) is None
        assert queue.pop(timeout=0) is b  # untouched by the window

    def test_pop_compatible_times_out_clean(self):
        queue = JobQueue()
        t0 = time.monotonic()
        assert queue.pop_compatible(("nope",), timeout=0.02) is None
        assert time.monotonic() - t0 < 1.0


class TestWait:
    """``JobQueue.wait`` wakes on the terminal transition itself.  The
    expiry tick is stretched far past the wake latency asserted, so
    only a notify can end the wait in time."""

    SLOW_TICK = 5.0

    def wait_across_thread(self, monkeypatch, queue, job, action):
        monkeypatch.setattr(jobs_module, "WAIT_TICK", self.SLOW_TICK)
        timer = threading.Timer(0.05, action)
        timer.start()
        try:
            t0 = time.monotonic()
            done = queue.wait(job.id, 30.0)
            elapsed = time.monotonic() - t0
        finally:
            timer.join(timeout=5)
        assert not timer.is_alive()
        assert elapsed < self.SLOW_TICK / 2
        return done

    def test_wakes_on_finish(self, monkeypatch):
        queue = JobQueue()
        job = queue.submit("sweep", "g1", {})
        queue.pop(timeout=0)
        done = self.wait_across_thread(
            monkeypatch, queue, job, lambda: queue.finish(job, {"v": 1})
        )
        assert done is job
        assert done.state == JobState.DONE

    def test_wakes_on_fail(self, monkeypatch):
        queue = JobQueue()
        job = queue.submit("mc", "g1", {})
        queue.pop(timeout=0)
        done = self.wait_across_thread(
            monkeypatch, queue, job, lambda: queue.fail(job, "boom")
        )
        assert done.state == JobState.FAILED

    def test_wakes_on_cancel_of_a_queued_job(self, monkeypatch):
        queue = JobQueue()
        job = queue.submit("sweep", "g1", {})
        done = self.wait_across_thread(
            monkeypatch, queue, job, lambda: queue.cancel(job.id)
        )
        assert done.state == JobState.CANCELLED

    def test_wakes_when_a_cancelled_running_job_finishes(self, monkeypatch):
        queue = JobQueue()
        job = queue.submit("sweep", "g1", {})
        queue.pop(timeout=0)
        queue.cancel(job.id)
        done = self.wait_across_thread(
            monkeypatch, queue, job, lambda: queue.finish(job, {"late": True})
        )
        assert done.state == JobState.CANCELLED

    def test_timeout_returns_the_non_terminal_job(self):
        queue = JobQueue()
        job = queue.submit("sweep", "g1", {})
        assert queue.wait(job.id, 0.02).state == JobState.QUEUED
        queue.pop(timeout=0)
        assert queue.wait(job.id, 0.02).state == JobState.RUNNING

    def test_terminal_job_returns_immediately(self):
        queue = JobQueue()
        job = queue.submit("sweep", "g1", {})
        queue.cancel(job.id)
        t0 = time.monotonic()
        assert queue.wait(job.id, 30.0).state == JobState.CANCELLED
        assert time.monotonic() - t0 < 1.0

    def test_unknown_job_raises(self):
        with pytest.raises(UnknownJobError):
            JobQueue().wait("job-999", 0.01)

    def test_waiting_expires_an_overdue_job(self):
        # Nothing else calls expire(): the wait itself must time the job
        # out, within a few ticks of its deadline.
        queue = JobQueue()
        job = queue.submit("sweep", "g1", {}, timeout=0.05)
        queue.pop(timeout=0)
        t0 = time.monotonic()
        done = queue.wait(job.id, 30.0)
        assert done.state == JobState.FAILED
        assert "timeout" in done.error
        assert time.monotonic() - t0 < 0.05 + 10 * jobs_module.WAIT_TICK


class TestOnTerminal:
    def test_runs_once_per_job_before_waiters_wake(self):
        seen = []
        queue = JobQueue(on_terminal=lambda job: seen.append((job.id, job.state)))
        done = queue.submit("sweep", "g1", {})
        failed = queue.submit("sweep", "g1", {})
        cancelled = queue.submit("sweep", "g1", {})
        expired = queue.submit("sweep", "g1", {}, timeout=0.001)
        queue.pop(timeout=0)
        queue.pop(timeout=0)
        queue.cancel(cancelled.id)
        queue.pop(timeout=0)
        queue.expire(now=expired.started_at + 1.0)
        queue.finish(expired, {"late": True})  # dropped: no second call
        queue.finish(done, {"v": 1})
        queue.fail(failed, "boom")
        assert seen == [
            (cancelled.id, JobState.CANCELLED),
            (expired.id, JobState.FAILED),
            (done.id, JobState.DONE),
            (failed.id, JobState.FAILED),
        ]
