"""Reference concurrent stacks and queues for the execution recorder.

Compare-and-swap is emulated with a per-reference lock, which preserves
the lock-free algorithms' structure (retry loops on CAS failure) while
staying portable.  The deliberately buggy stack re-installs a stale
snapshot of the top pointer after a randomized sleep, the classic lost
update: concurrent pushes vanish and concurrent pops can double-take a
node, both observable as unlinearizable recorded histories.
"""

from __future__ import annotations

import random
import threading
import time

EMPTY = object()  # returned by pop/dequeue on an empty structure


class AtomicRef:
    __slots__ = ("_value", "_lock")

    def __init__(self, value=None):
        self._value = value
        self._lock = threading.Lock()

    def get(self):
        with self._lock:
            return self._value

    def set(self, value) -> None:
        with self._lock:
            self._value = value

    def compare_and_set(self, expect, update) -> bool:
        with self._lock:
            if self._value is expect:
                self._value = update
                return True
            return False


class _Node:
    __slots__ = ("value", "next")

    def __init__(self, value, next=None):
        self.value = value
        self.next = next


class CoarseLockStack:
    def __init__(self):
        self._items: list = []
        self._lock = threading.Lock()

    def push(self, value) -> None:
        with self._lock:
            self._items.append(value)

    def pop(self):
        with self._lock:
            if not self._items:
                return EMPTY
            return self._items.pop()


class TreiberStack:
    """Classic lock-free stack: CAS the head to the new node / its successor."""

    def __init__(self):
        self._head = AtomicRef(None)

    def push(self, value) -> None:
        node = _Node(value)
        while True:
            top = self._head.get()
            node.next = top
            if self._head.compare_and_set(top, node):
                return

    def pop(self):
        while True:
            top = self._head.get()
            if top is None:
                return EMPTY
            if self._head.compare_and_set(top, top.next):
                return top.value


class BuggyTimeWindowStack(TreiberStack):
    """Treiber push, broken pop: sleeps up to 0.5 ms after reading the top, then
    blindly installs top.next without revalidating, losing any concurrent update."""

    def __init__(self, rng: random.Random):
        super().__init__()
        self._rng = rng

    def pop(self):
        top = self._head.get()
        if top is None:
            return EMPTY
        time.sleep(self._rng.random() * 0.0005)
        self._head.set(top.next)
        return top.value


class CoarseLockQueue:
    def __init__(self):
        self._items: list = []
        self._lock = threading.Lock()

    def enqueue(self, value) -> None:
        with self._lock:
            self._items.append(value)

    def dequeue(self):
        with self._lock:
            if not self._items:
                return EMPTY
            return self._items.pop(0)


class MichaelScottQueue:
    """Nonblocking two-pointer queue with helping on a lagging tail."""

    def __init__(self):
        dummy = _Node(None)
        dummy.next = AtomicRef(None)
        self._head = AtomicRef(dummy)
        self._tail = AtomicRef(dummy)

    def enqueue(self, value) -> None:
        node = _Node(value)
        node.next = AtomicRef(None)
        while True:
            tail = self._tail.get()
            nxt = tail.next.get()
            if tail is not self._tail.get():
                continue
            if nxt is not None:
                self._tail.compare_and_set(tail, nxt)  # help advance
                continue
            if tail.next.compare_and_set(None, node):
                self._tail.compare_and_set(tail, node)
                return

    def dequeue(self):
        while True:
            head = self._head.get()
            tail = self._tail.get()
            nxt = head.next.get()
            if head is not self._head.get():
                continue
            if head is tail:
                if nxt is None:
                    return EMPTY
                self._tail.compare_and_set(tail, nxt)
                continue
            value = nxt.value
            if self._head.compare_and_set(head, nxt):
                return value


REFERENCE_IMPLS = {
    "coarse-stack": (CoarseLockStack, "stack", False),
    "treiber-stack": (TreiberStack, "stack", False),
    "buggy-stack": (BuggyTimeWindowStack, "stack", True),
    "coarse-queue": (CoarseLockQueue, "queue", False),
    "ms-queue": (MichaelScottQueue, "queue", False),
}
