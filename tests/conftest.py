import functools
import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from speechacts.corpus import Conversation, LabelCatalog, Turn

# The command line as a shell runs it: the installed console script when one
# is on PATH, else the module. Either way PYTHONPATH is this checkout's src/,
# so an install of other code cannot stand in for the code under test.
ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")
SCRIPT = shutil.which("speechacts")
CLI = [SCRIPT] if SCRIPT else [sys.executable, "-m", "speechacts.cli"]


def cli_process(*args, env=None, **popen) -> subprocess.Popen:
    """The CLI started on args as a process; env adds to this process's
    environment, and the other keywords go to ``subprocess.Popen``."""
    return subprocess.Popen([*CLI, *map(str, args)],
                            env={**os.environ, **(env or {}), "PYTHONPATH": SRC}, **popen)


def run_cli(*args, input=b"", env=None) -> subprocess.CompletedProcess:
    """The CLI run on args to its end with input on stdin; stdout and stderr
    are bytes."""
    pipe = subprocess.PIPE
    with cli_process(*args, env=env, stdin=pipe, stdout=pipe, stderr=pipe) as proc:
        try:
            stdout, stderr = proc.communicate(input, timeout=120)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
    return subprocess.CompletedProcess(proc.args, proc.returncode, stdout, stderr)


CV_TIME = ROOT / "scripts" / "cv_time.py"


@functools.cache
def cv_time():
    """``scripts/cv_time.py`` as a module, loaded once; the ``sys.path``
    entries it puts first (the checkout's src and bench) are taken back."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "path", list(sys.path))
        spec = importlib.util.spec_from_file_location("cv_time", CV_TIME)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


@pytest.fixture
def catalog_ab():
    return LabelCatalog(labels=("a", "b"), excluded=frozenset({"setup"}))


def make_turn(cid, idx, speaker, ts, text, labels=()):
    return Turn(cid, idx, speaker, float(ts), text, frozenset(labels))


def make_conversation(cid, rows):
    """rows: list of (speaker, ts, text, labels) tuples."""
    turns = [make_turn(cid, i, s, ts, text, labels) for i, (s, ts, text, labels) in enumerate(rows)]
    return Conversation(cid, turns)


def record_line(cid, idx, speaker, ts, text, labels=(), **extra):
    rec = {
        "conversation_id": cid,
        "turn_index": idx,
        "speaker": speaker,
        "timestamp_s": ts,
        "text": text,
        "labels": list(labels),
    }
    rec.update(extra)
    return json.dumps(rec)


class ZeroEveryOtherWeight:
    """A generator whose interpolation weights are 0.0 at every even draw."""

    def __init__(self, seed, default_rng=np.random.default_rng):
        self.rng = default_rng(seed)

    def integers(self, *args):
        return self.rng.integers(*args)

    def random(self, size):
        r = self.rng.random(size)
        r[::2] = 0.0
        return r
