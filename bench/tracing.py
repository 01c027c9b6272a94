"""Spans around the public functions of the speechacts modules.

``install`` replaces every public function of ``corpus``, ``featurize``,
``balance``, ``classifier``, ``evaluate`` and ``serve`` with a wrapper,
wherever a speechacts module holds a reference to it, so calls made through
``from .x import f`` are traced too. The program's source is not touched.

Each call records a span: name, start, end, parent. Self time is the span's
duration minus the time its traced children took, computed as the call
returns. Hot leaf functions (``HOT``: called per token, per turn or per
optimizer step) are aggregated instead of stored one by one, which keeps a
traced run's memory small; their time still counts as child time of the
caller. Everything stays in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import re
import sys
import threading
import time
from pathlib import Path

MODULES = ("corpus", "featurize", "balance", "classifier", "evaluate", "serve")

HOT = {
    "featurize.tokenize", "featurize.shallow_from_history", "featurize.shallow_features",
    "featurize.vector_from_parts", "featurize.vectorize", "balance.nearest_neighbors",
    "balance.synthesize", "balance.derive_seed", "classifier.sigmoid",
    "classifier.loss_and_gradient", "classifier.predict_proba", "classifier.predict_labels",
    "evaluate.fisher_score", "serve.ServeEngine.handle_request",
}

_CID_RE = re.compile(r'"conversation_id"\s*:\s*"((?:[^"\\]|\\.)*)"')


def _rows_times_cols(args, kwargs, result):
    return int(result.shape[0] * result.shape[1])


def _synthetic_rows(args, kwargs, result):
    pos, neg = args[0], args[1]
    return len(result[0]) + len(result[1]) - len(pos) - len(neg)


def _records(args, kwargs, result):
    return sum(len(conv.turns) for conv in result)


def _history_len(args, kwargs, result):
    return len(args[0])


# per-call amount summed into the aggregate of the function
AMOUNTS = {
    "featurize.feature_matrix": _rows_times_cols,
    "balance.smote_balance": _synthetic_rows,
    "corpus.load_transcripts": _records,
    "corpus.parse_transcripts": _records,
    "featurize.shallow_from_history": _history_len,
    "classifier.model_to_document": lambda args, kwargs, result: len(result),
}


def _line_cid(args, kwargs, result):
    match = _CID_RE.search(args[1])
    return match.group(1) if match else None


# per-span attribute stored with the span (not aggregated)
ATTRS = {"serve.ServeEngine.handle_line": _line_cid}

# the only methods traced: the serve engine's entry points
METHODS = {"serve": {"ServeEngine": ("handle_line", "handle_request")}}


class Tracer:
    """In-memory spans and per-(phase, function) aggregates."""

    def __init__(self):
        self.origin_ns = time.perf_counter_ns()
        self.phase = "-"
        self.spans: list[tuple] = []
        # (phase, name) -> [calls, total_ns, self_ns, amount]
        self.aggregates: dict[tuple[str, str], list] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        hot = name in HOT
        amount_of = AMOUNTS.get(name)
        attr_of = ATTRS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1][1] if stack else 0
            span_id = parent if hot else next(tracer._ids)
            frame = [0, span_id]
            stack.append(frame)
            ok = False
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                amount = amount_of(args, kwargs, result) if ok and amount_of else 0
                attr = attr_of(args, kwargs, result) if ok and attr_of else None
                with tracer._lock:
                    agg = tracer.aggregates.setdefault((tracer.phase, name), [0, 0, 0, 0])
                    agg[0] += 1
                    agg[1] += duration
                    agg[2] += duration - frame[0]
                    agg[3] += amount
                    if not hot:
                        tracer.spans.append((span_id, parent, name, tracer.phase, start, end,
                                             threading.get_ident(), attr))
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around one of the benchmark's own phases; sets the phase."""
        self.phase = name
        frame = [0, next(self._ids)]
        self._stack().append(frame)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack().pop()
            self.spans.append((frame[1], 0, "phase." + name, name, start, end,
                               threading.get_ident(), None))
            self.phase = "-"

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span_id, parent, name, phase, start, end, thread, attr in self.spans:
                rec = {"id": span_id, "parent": parent, "name": name, "phase": phase,
                       "start_us": (start - self.origin_ns) / 1e3,
                       "end_us": (end - self.origin_ns) / 1e3, "thread": thread}
                if attr is not None:
                    rec["cid"] = attr
                out.write(json.dumps(rec) + "\n")
            for (phase, name), (calls, total, self_ns, amount) in sorted(self.aggregates.items()):
                out.write(json.dumps({"aggregate": name, "phase": phase, "calls": calls,
                                      "total_s": total / 1e9, "self_s": self_ns / 1e9,
                                      "amount": amount}) + "\n")


def _public_functions(module) -> dict[str, object]:
    found = {}
    for attr, value in vars(module).items():
        if attr.startswith("_") or isinstance(value, type):
            continue
        if callable(value) and getattr(value, "__module__", None) == module.__name__:
            found[attr] = value
    for cls, names in METHODS.get(module.__name__.rsplit(".", 1)[1], {}).items():
        for meth in names:
            found[f"{cls}.{meth}"] = getattr(getattr(module, cls), meth)
    return found


def install(tracer: Tracer) -> None:
    """Wrap the public functions of the traced modules."""
    modules = {name: importlib.import_module(f"speechacts.{name}") for name in MODULES}
    importlib.import_module("speechacts.cli")
    loaded = [m for key, m in sys.modules.items() if key.startswith("speechacts")]
    for short, module in modules.items():
        for qual, fn in _public_functions(module).items():
            traced = tracer.wrap(f"{short}.{qual}", fn)
            if "." in qual:
                cls, meth = qual.split(".")
                setattr(getattr(module, cls), meth, traced)
                continue
            for other in loaded:
                for attr, value in list(vars(other).items()):
                    if value is fn:
                        setattr(other, attr, traced)
