"""Dead-letter parking vs. checkpointing must never deadlock.

Regression: ``DeadLetterQueue.append`` used to fire the durability
park hook while holding the queue lock; the hook takes the manager
lock.  Anything holding the manager lock while it iterates the queue
(which takes the queue lock) is then a classic ABBA deadlock once a
worker parks a letter at the same time.  The queue fires hooks after
releasing its lock (under a dedicated ordering lock), breaking the
cycle.
"""

import threading

from repro.grh.resilience import DeadLetter

from .harness import CrashWorld

ROUNDS = 200


class TestParkCheckpointConcurrency:
    def test_concurrent_park_and_checkpoint_terminate(self, tmp_path):
        world = CrashWorld(str(tmp_path))
        engine = world.boot()
        manager = engine.durability
        queue = engine.grh.resilience.dead_letters
        failed = []

        def parker():
            try:
                for n in range(ROUNDS):
                    queue.append(DeadLetter(kind="detection",
                                            error=f"e{n}", attempts=1))
            except BaseException as exc:  # pragma: no cover - diagnostics
                failed.append(exc)

        def checkpointer():
            try:
                for _ in range(ROUNDS):
                    manager.checkpoint()
            except BaseException as exc:  # pragma: no cover - diagnostics
                failed.append(exc)

        threads = [threading.Thread(target=parker, daemon=True),
                   threading.Thread(target=checkpointer, daemon=True)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(15)
        stuck = [thread.name for thread in threads if thread.is_alive()]
        assert not stuck, f"park/checkpoint deadlocked: {stuck}"
        assert not failed, failed
        # every parked letter was journaled, in seq order
        assert len(queue) == ROUNDS
        seqs = [letter.seq for letter in queue]
        assert seqs == sorted(seqs)

    def test_settle_fires_hooks_outside_queue_lock(self, tmp_path):
        """settle follows the same discipline — a plain settle, a
        replacement's park and an overflow drop alike: their hooks must
        be able to take the manager lock while a checkpoint holds it."""
        world = CrashWorld(str(tmp_path))
        engine = world.boot()
        manager = engine.durability
        queue = engine.grh.resilience.dead_letters
        queue.max_size = 40
        for n in range(50):
            queue.append(DeadLetter(kind="detection",
                                    error=f"e{n}", attempts=1))

        def churner():
            for n in range(ROUNDS):
                queue.append(DeadLetter(kind="detection",
                                        error=f"c{n}", attempts=1))
                if n % 3 == 0:
                    for letter in queue.pending(2):
                        queue.settle(letter, 0)
                if n % 5 == 0:
                    (letter,) = queue.pending(1)
                    queue.settle(letter, 0, DeadLetter(
                        kind="detection", error=f"r{n}",
                        attempts=letter.attempts + 1))

        def checkpointer():
            for _ in range(ROUNDS):
                manager.checkpoint()

        threads = [threading.Thread(target=churner, daemon=True),
                   threading.Thread(target=checkpointer, daemon=True)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(15)
        assert not any(thread.is_alive() for thread in threads), \
            "settle vs checkpoint deadlocked"
        # every change was journaled: the durable letters are the queue's
        assert list(manager.state.dead_letters) == \
            [letter.seq for letter in queue]
