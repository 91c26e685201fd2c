"""Work in a forked child while this process does its own.

`alongside(child, parent)` runs one call in a child; `apart(first, second)`
runs two calls, each in a child, while this process only waits;
`ahead(fill, shapes)` has a child fill a sequence of arrays (blocks of
noise, a solver's rows) one ahead of their consumer.  All use one kind of
child.  It leaves by os._exit, never returning into the caller's stack.
An exception it raises comes back pickled through a pipe and is raised
again here with its class and message, after a stderr line naming the
child's exit status.  One `finally` closes this process's pipe ends, so a
child waiting on a read sees EOF and ends, and reaps it: a failure here
wins and leaves no child behind.  Without os.fork the work runs inline.
"""

from __future__ import annotations

import math
import mmap
import os
import pickle
import sys
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import AffineSpdeError

# from the child, one tag byte each: a slot is ready, or a pickle of the
# value returned or of the exception raised follows to the end of the pipe
_READY, _VALUE, _RAISED = b"r", b"v", b"x"
_FREE = b"f"  # to the child: the slot it waits for may be filled again


class _Child:
    """This process's side of a forked child: `up` reads its messages,
    `down` writes to it."""

    def __init__(self, pid: int, up, down):
        self.pid, self.up, self.down = pid, up, down
        self.status: int | None = None

    def receive(self):
        """The child's next message: None for a ready slot, else the value
        it returned.  A child that raised, or ended without a value, is
        reaped and its failure raised here."""
        tag = self.up.read(1)
        if tag == _READY:
            return None
        payload = self.up.read()
        status = self.reap()
        how = f"signal {-status}" if status < 0 else f"status {status}"
        if tag == _VALUE and status == 0:
            return pickle.loads(payload)
        if tag == _RAISED:
            print(f"forked writer ended with {how}", file=sys.stderr, flush=True)
            raise pickle.loads(payload)
        raise AffineSpdeError(f"forked writer ended with {how}")

    def release(self) -> None:
        try:
            self.down.write(_FREE)
        except BrokenPipeError:  # the child has ended: receive says how
            pass

    def reap(self) -> int:
        """Close this side's pipe ends and wait for the child: its exit
        code, negative for a signal."""
        self.up.close()
        self.down.close()
        if self.status is None:
            self.status = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        return self.status


@contextmanager
def _forked(body: Callable) -> Iterator[_Child]:
    """Run body(inbox, outbox) in a forked child, where inbox reads what
    this process sends and outbox writes to it; yield this side."""
    sys.stdout.flush()
    sys.stderr.flush()
    up_r, up_w = os.pipe()
    down_r, down_w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        for fd in (up_r, up_w, down_r, down_w):
            os.close(fd)
        raise
    if pid == 0:  # never return into the caller's stack: leave via _exit
        code = 1
        try:
            os.close(up_r)
            os.close(down_w)
            with open(down_r, "rb") as inbox, open(up_w, "wb") as outbox:
                try:
                    body(inbox, outbox)
                    code = 0
                except BaseException as exc:
                    outbox.write(_RAISED + pickle.dumps(exc))
        finally:
            os._exit(code)
    os.close(up_w)
    os.close(down_r)
    child = _Child(pid, open(up_r, "rb"), open(down_w, "wb", buffering=0))
    try:
        yield child
    finally:
        child.reap()


def alongside(child: Callable, parent: Callable):
    """Return (parent(), child()), running child() in a forked process
    while parent() runs in this one.  A child that ends without a value
    raises AffineSpdeError.  Without os.fork, parent() and then child()
    run inline."""
    if not hasattr(os, "fork"):
        return parent(), child()

    def body(_inbox, outbox):
        outbox.write(_VALUE + pickle.dumps(child()))

    with _forked(body) as proc:
        own = parent()
        return own, proc.receive()


def apart(first: Callable, second: Callable):
    """Return (first(), second()), each run in a forked child of its own
    while this process only waits.  first's value, or its failure, is read
    before second's, so a failure of first wins over one of second, as it
    does inline.  Without os.fork first() and then second() run inline."""
    return alongside(second, lambda: alongside(first, lambda: None)[1])


@contextmanager
def ahead(fill: Callable[[int, np.ndarray], None],
          shapes: Sequence[tuple[int, ...]]) -> Iterator[Iterator[np.ndarray]]:
    """Yield an iterator over one C-contiguous float array per shape, the
    i-th filled by fill(i, array), called in order of i: fill may draw
    noise, pull rows from a solver or produce a block any other way.  An
    array stays valid until the next is asked for.  With os.fork and two
    or more shapes, a forked child fills them in order into two slots of
    one shared anonymous mmap, so array i + 1 is produced while the caller
    works on array i; a slot is filled again only once the caller has
    moved past it.  Otherwise each array is filled inline, in one buffer,
    when it is asked for.  Leaving the block early stops the child.  A
    caller that is itself a forked child may nest one: a failure then
    prints one status line per process it passes through."""
    size = max(map(math.prod, shapes), default=0)

    def view(i):
        return slots[i % len(slots), :math.prod(shapes[i])].reshape(shapes[i])

    if not hasattr(os, "fork") or len(shapes) < 2:
        slots = np.empty((1, size))

        def inline():
            for i in range(len(shapes)):
                out = view(i)
                fill(i, out)
                yield out
        yield inline()
        return
    # unmapped when its last view goes, which the caller may hold
    slots = np.frombuffer(mmap.mmap(-1, 2 * 8 * size),
                          dtype=float).reshape(2, size)

    def body(inbox, outbox):
        for i in range(len(shapes)):
            if i >= 2 and not inbox.read(1):
                return  # the caller stopped early
            fill(i, view(i))
            outbox.write(_READY)
            outbox.flush()

    with _forked(body) as proc:
        def ready():
            for i in range(len(shapes)):
                proc.receive()
                yield view(i)
                if i + 2 < len(shapes):
                    proc.release()
        yield ready()
