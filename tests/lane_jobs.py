"""Module-level jobs for the tests of ``experiments._in_lanes``.

A spawned worker imports a job function by its module and name, so it runs
the code in this file and never a test's monkeypatch. Each job that ends or
hangs first writes the pid of the process that runs it to ``path``.
"""

import os
import time

from bikecast.errors import TrainingError


def _note_pid(path):
    with open(path, "w") as fh:
        fh.write(str(os.getpid()))


def tagged(tag, seconds):
    """``(tag, pid)`` after ``seconds``."""
    time.sleep(seconds)
    return tag, os.getpid()


def fail(path):
    _note_pid(path)
    raise TrainingError("prnn diverged at epoch 3: loss nan")


def die(path):
    _note_pid(path)
    os._exit(1)


def hang(path):
    _note_pid(path)
    time.sleep(600)


def in_worker(action, path, parent):
    """``action(path)`` in a worker. In ``parent``, which takes back the last
    jobs, sleep a second instead, so that the worker has started the others."""
    if os.getpid() == parent:
        time.sleep(1.0)
    else:
        action(path)
