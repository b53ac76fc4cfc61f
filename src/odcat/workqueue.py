"""One work queue for the suite's asynchronous consumers.

A fixed pool of daemon threads, started on demand, runs jobs in submission
order; submit, take, finish, drain and close all hold one lock. A keyed
queue treats each item as its own key: a key already queued is not queued
twice, a key submitted while its job runs runs exactly once more after it
(so no update is lost), and a key submitted by the worker running it is
ignored (that is the job's own write-back coming back through the event bus).
"""

from __future__ import annotations

import logging
import math
import threading
from collections import OrderedDict
from typing import Callable

logger = logging.getLogger(__name__)


class WorkQueue:
    def __init__(self, run: Callable[[object], None], name: str, workers: int = 1, keyed: bool = False,
                 capacity: float = math.inf, admission_wait: float = 0.0):
        """`run(item)` is the job; a submit to a full queue waits `admission_wait` seconds for room."""
        self._run = run
        self.name = name
        self._workers = workers
        self._keyed = keyed
        self._capacity = capacity
        self._admission_wait = admission_wait
        self._lock = threading.Lock()
        self._ready = threading.Condition(self._lock)  # idle workers wait for an item
        self._changed = threading.Condition(self._lock)  # drain() and submits waiting for room
        self._pending: OrderedDict = OrderedDict()  # key -> item
        self._running: dict = {}  # key -> id of the worker thread running it
        self._dirty: set = set()  # running keys submitted again
        self._threads: list[threading.Thread] = []
        self.closed = False

    def submit(self, item) -> bool:
        """Queue `item`; False if the queue is closed or stayed full."""
        key = item if self._keyed else object()
        with self._lock:
            if self.closed:
                return False
            owner = self._running.get(key)
            if owner not in (None, threading.get_ident()):
                self._dirty.add(key)  # run once more after the current run
            if owner is not None or key in self._pending:
                return True
            room = self._changed.wait_for(lambda: self.closed or len(self._pending) < self._capacity, self._admission_wait)
            if not room or self.closed:
                return False
            self._pending[key] = item
            idle = len(self._threads) - len(self._running)  # workers not inside a job
            if len(self._pending) > idle and len(self._threads) < self._workers:
                thread = threading.Thread(target=self._work, name=f"{self.name}-{len(self._threads)}", daemon=True)
                self._threads.append(thread)
                thread.start()
            self._ready.notify()
            return True

    def _work(self) -> None:
        while True:
            with self._lock:
                self._ready.wait_for(lambda: self._pending or self.closed)
                if not self._pending:
                    return
                key, item = self._pending.popitem(last=False)
                self._running[key] = threading.get_ident()
                if len(self._pending) == self._capacity - 1:
                    self._changed.notify_all()  # a submit may be waiting for room
            try:
                self._run(item)
            except Exception:
                logger.exception("%s: job failed on %r", self.name, item)
            finally:
                with self._lock:
                    del self._running[key]
                    if key in self._dirty:
                        self._dirty.remove(key)
                        self._pending[key] = item
                    elif not self._pending and not self._running:
                        self._changed.notify_all()

    def drain(self, timeout: float | None = None) -> bool:
        """Wait until nothing is queued or running; False on timeout."""
        with self._lock:
            return self._changed.wait_for(lambda: not self._pending and not self._running, timeout)

    def close(self) -> None:
        """Stop intake, run what was accepted, and join every worker."""
        with self._lock:
            self.closed = True
            self._ready.notify_all()
            self._changed.notify_all()
        for thread in self._threads:
            thread.join()
