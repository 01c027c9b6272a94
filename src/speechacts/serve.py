"""Line-delimited classification service with per-conversation sessions.

One JSON request per line: {conversation_id, speaker, timestamp_s, text}.
One JSON response per line: {labels, probabilities, low_confidence}, byte
for byte the body of ``predict``'s record of the same turn, or {error} for
a malformed request or a turn whose scores are not finite (either leaves
the session table untouched).
Assistant lines extend the session's context but come back unclassified. A
request line longer than ``MAX_LINE_BYTES`` (1 MiB) gets one {error} reply;
the rest of it is read and dropped, never held whole, and the connection
stays open. Input is read a chunk at a time, and the replies to the lines
of one read go out in one write. Over TCP, at most ``MAX_CONNECTIONS``
connections are served at once, and one more gets one {error} line and is
closed; so is a connection silent for ``IDLE_TIMEOUT_S``, and one the client
drops ends without a word.

Sessions are keyed by conversation_id, of at most 256 characters (a longer
one is an {error}). Each is a constant-size
``ContextState``: running word-count sums and turn counts per speaker, and
the last timestamp, which is all the causal shallow features need. Batch prediction advances the same state, so the same request stream
reproduces its predictions exactly. The engine keeps at most
``MAX_SESSIONS`` of them in one table under one lock; a new conversation
past the cap drops the least recently used one, which starts again from an
empty context if it sends again.
"""

from __future__ import annotations

import contextlib
import socket
import socketserver
import struct
import threading
from collections import OrderedDict
from typing import IO

from .classifier import MultiLabelModel, label_positions, score_rows
from .corpus import PARTICIPANT, decode_record, encode_record, turn_fields
from .featurize import ContextState, tokenize, turn_row
from .reports import UNCLASSIFIED, AnswerText, answer_json


def _error(message: str) -> str:
    return encode_record({"error": message})


# longest request line read, newline excluded
MAX_LINE_BYTES = 1 << 20
_LINE_TOO_LONG = _error(f"request line longer than {MAX_LINE_BYTES} bytes")
_NOT_UTF8 = _error("request is not valid UTF-8")
_NOT_AN_OBJECT = _error("request is not an object")
_NOT_FINITE = _error("the turn's label probabilities are not finite numbers")
_UNCLASSIFIED = "{" + UNCLASSIFIED
# live conversations held: a two-speaker session, its id of at most 256
# characters included, takes 0.97 KiB (ASCII id) to 1.74 KiB (4-byte
# characters) by tracemalloc, so the table stays under 7 MiB at the cap
MAX_SESSIONS = 4096
# open TCP connections served, one handler thread each; one more is refused
MAX_CONNECTIONS = 64
_TOO_MANY_CONNECTIONS = _error("too many open connections; try again later")
IDLE_TIMEOUT_S = 300  # seconds a connection may wait on a read or write before it is closed


class ServeEngine:
    """Shared immutable model plus a bounded, least-recently-used table of
    per-conversation contexts."""

    def __init__(self, model: MultiLabelModel):
        self.model = model
        model.stacked  # stack the weights before the first request
        self._text = AnswerText(model.catalog.labels)
        self._sessions: OrderedDict[str, ContextState] = OrderedDict()
        self._lock = threading.Lock()

    def handle_request(self, request: dict) -> str:
        """The reply line to one decoded request. A request answered with an
        {error} leaves the session table as it was: its keys, their order
        and each context. So a participant turn is scored before its
        context takes it in, and scores that are not finite get an error.
        The reply is written from the turn's probability row by the
        labelling rule and the writer that ``predict`` records use."""
        try:
            cid, speaker, seconds, text = turn_fields(request)
        except ValueError as exc:
            return _error(str(exc))
        tokens = tokenize(text)
        wc = len(tokens)
        with self._lock:
            context = self._sessions.get(cid)
            new = context is None
            if new:
                context = ContextState(self.model.config.slen_scope)
            elif context.last_ts is not None and seconds < context.last_ts:
                return _error(f"timestamp_s {seconds} precedes the session's last turn")
            if speaker == PARTICIPANT:
                row = turn_row(tokens, context.features(speaker, seconds, wc),
                               self.model.vocabulary, self.model.scaling)
                (probs,) = score_rows(self.model, [row])
                chosen, low_confidence = label_positions(self.model, probs)
                try:
                    reply = answer_json(self._text, probs, chosen, low_confidence)
                except ValueError:  # a NaN or infinite probability, which JSON cannot hold
                    return _NOT_FINITE
            else:
                reply = _UNCLASSIFIED
            if new:
                if len(self._sessions) >= MAX_SESSIONS:
                    self._sessions.popitem(last=False)
                self._sessions[cid] = context
            else:
                self._sessions.move_to_end(cid)
            context.add(speaker, seconds, wc)
        return reply

    def handle_line(self, line: str) -> str:
        try:
            request = decode_record(line)
        except ValueError as exc:
            return _error(str(exc))
        if not isinstance(request, dict):
            return _NOT_AN_OBJECT
        return self.handle_request(request)


def serve_stream(engine: ServeEngine, rfile: IO[bytes], wfile: IO[bytes]) -> int:
    """Answer each request line of rfile on wfile until rfile ends; return
    the number of replies.

    Each non-blank line gets one ASCII reply line. rfile is read a chunk at
    a time, whatever one ``read1`` returns, and the replies to that chunk's
    lines go out in one write, flushed before the next read. A line that is
    not UTF-8 is answered with an error, and so is one longer than
    MAX_LINE_BYTES, of which no more than that is held: the rest of it is
    read and dropped. An empty read ends the stream, and a line it cut short
    is answered as if it had ended there; on a socket whose receive timeout
    expired, that read is empty too.
    """
    held = bytearray()  # the start of a line whose newline has not come yet
    dropping = False  # inside an over-long line, skipping to its newline
    replies: list[str] = []  # to the current chunk's lines

    def answer(piece: bytes, ended: bool) -> None:
        nonlocal dropping
        if dropping:
            dropping = not ended
        elif len(held) + len(piece) > MAX_LINE_BYTES:
            held.clear()
            dropping = not ended
            replies.append(_LINE_TOO_LONG)
        elif not ended:
            held.extend(piece)
        else:
            raw = held + piece if held else piece
            held.clear()
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError:
                replies.append(_NOT_UTF8)
            else:
                if line.strip():
                    replies.append(engine.handle_line(line))

    handled = 0
    while True:
        chunk = rfile.read1()
        *lines, rest = chunk.split(b"\n")
        for line in lines:
            answer(line, True)
        answer(rest, not chunk)
        if replies:
            wfile.write(("\n".join(replies) + "\n").encode("ascii"))
            wfile.flush()
            handled += len(replies)
            replies.clear()
        if not chunk:
            return handled


class _LineHandler(socketserver.StreamRequestHandler):
    # each read's replies are one small write; with Nagle on, a write waits
    # for the client's ACK of the previous one, which lock-steps the connection
    disable_nagle_algorithm = True

    def handle(self):
        with contextlib.suppress(OSError):  # timed out, reset or gone: the connection ends
            serve_stream(self.server.engine, self.rfile, self.wfile)  # type: ignore[attr-defined]


class ServeServer(socketserver.ThreadingTCPServer):
    """TCP server speaking the line protocol; one thread per connection, at
    most ``MAX_CONNECTIONS`` at once.

    A connection past the cap gets one {error} line and is closed; a slot
    frees when its handler thread ends. Connections share the engine, so
    sessions span connections; every session update serializes on the
    engine's one lock, in arrival order.
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address: tuple[str, int], engine: ServeEngine):
        super().__init__(address, _LineHandler)
        self.engine = engine
        self._slots = threading.BoundedSemaphore(MAX_CONNECTIONS)

    def process_request(self, request, client_address):
        if not self._slots.acquire(blocking=False):
            try:
                request.sendall((_TOO_MANY_CONNECTIONS + "\n").encode("utf-8"))
            except OSError:
                pass
            self.shutdown_request(request)
            return
        try:
            # kernel timeouts (settimeout would poll before each send and recv), read
            # at each accept: an expired read ends the stream, an expired write raises
            seconds, micros = divmod(round(IDLE_TIMEOUT_S * 1e6), 10**6)
            for option in (socket.SO_RCVTIMEO, socket.SO_SNDTIMEO):
                request.setsockopt(socket.SOL_SOCKET, option, struct.pack("@ll", seconds, micros))
            super().process_request(request, client_address)
        # Exception, not BaseException: a KeyboardInterrupt (SIGINT, or
        # SIGTERM under the CLI) can arrive in Thread.start after the thread
        # has started, and that thread frees the slot itself. A second
        # release raises ValueError, which socketserver logs and serves on,
        # so the interrupt would be lost. The interrupt stops the server, so
        # a slot it leaves held is not needed.
        except Exception:
            self._slots.release()  # no thread started to release it
            raise

    def process_request_thread(self, request, client_address):
        try:
            super().process_request_thread(request, client_address)
        finally:
            self._slots.release()
