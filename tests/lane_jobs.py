"""Module-level jobs for the tests of ``experiments._in_lanes``.

A spawned worker (not on Linux) imports a job function by its module and
name, so jobs live at module level, here; a forked one (Linux) also sees a
test's monkeypatches. Every lane claims jobs in job order, and which lane
claims which job is a race, so each job that ends or hangs first writes the
pid of the process that runs it to ``path``.
"""

import os
import time
from pathlib import Path

from bikecast.errors import TrainingError


def _note_pid(path):
    with open(path, "w") as fh:
        fh.write(str(os.getpid()))


def tagged(tag, seconds):
    """``(tag, pid)`` after ``seconds``."""
    time.sleep(seconds)
    return tag, os.getpid()


def once(path):
    """Create ``path``, which must not exist yet, and return this pid."""
    with open(path, "x") as fh:
        fh.write(str(os.getpid()))
    return os.getpid()


def fail(path, seconds=0.0, fails=True):
    """After ``seconds``, note this pid and, if ``fails``, raise a
    TrainingError that names the file of ``path``."""
    time.sleep(seconds)
    _note_pid(path)
    if fails:
        raise TrainingError(f"net {Path(path).name}: prnn diverged at epoch 3: loss nan")


def die(path):
    _note_pid(path)
    os._exit(1)


def hang(path):
    _note_pid(path)
    time.sleep(600)


def in_worker(action, path, parent):
    """``action(path)`` in a worker. In ``parent`` sleep a second instead, so
    that the worker claims the other job meanwhile."""
    if os.getpid() == parent:
        time.sleep(1.0)
    else:
        action(path)
