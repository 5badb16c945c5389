"""Tracing for the benchmark's traced pass, recorded from outside the program.

Everything here wraps or calls *public* surfaces of ``repro`` -- process
instances' ``send``/``receive``/``next_activity`` methods, a vec
kernel's ``step``, the codec's ``set_codec_probe`` hook -- so the
program under test is unchanged.  Spans stay in memory in a
:class:`Spans` log and are written once, when the run ends.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Optional

clock = time.perf_counter
clock_ns = time.perf_counter_ns


class Spans:
    """In-memory span log: name, start, end, parent, plus attributes.

    Times are seconds since the log was created.  ``parent`` is the id
    of the span that caused this one (``None`` for a root).
    """

    def __init__(self) -> None:
        self.t0 = clock()
        self.items: list[dict] = []

    def begin(self, name: str, parent: Optional[int] = None, **attrs: Any) -> int:
        """Open a span now; returns its id."""
        return self.add(name, clock(), None, parent, **attrs)

    def end(self, sid: int) -> float:
        """Close span ``sid`` now; returns its duration in seconds."""
        item = self.items[sid]
        item["end"] = clock() - self.t0
        return item["end"] - item["start"]

    def add(
        self,
        name: str,
        start: float,
        end: Optional[float],
        parent: Optional[int] = None,
        **attrs: Any,
    ) -> int:
        """Record a span from ``clock()`` readings; returns its id."""
        sid = len(self.items)
        self.items.append(
            {
                "id": sid,
                "name": name,
                "start": start - self.t0,
                "end": None if end is None else end - self.t0,
                "parent": parent,
                **attrs,
            }
        )
        return sid

    def write(self, path: Path, **extra: Any) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.items, **extra}) + "\n")


class ProcessProbe:
    """Counts and times calls into process instances' public methods.

    An idle ``send`` returns no messages; an idle ``receive`` gets an
    empty inbox.  ``method_ns`` is the time spent inside the methods,
    which the engine's self time excludes.
    """

    def __init__(self) -> None:
        self.send_calls = 0
        self.send_idle = 0
        self.receive_calls = 0
        self.receive_idle = 0
        self.next_activity_calls = 0
        self.method_ns = 0

    def wrap(self, processes) -> None:
        """Shadow each instance's methods with counting wrappers; must
        run before the processes are handed to ``Engine(...)``."""
        for proc in processes:
            self._wrap_one(proc)

    def _wrap_one(self, proc) -> None:
        send, receive, next_activity = proc.send, proc.receive, proc.next_activity

        def traced_send(rnd):
            start = clock_ns()
            out = send(rnd)
            if not isinstance(out, (list, tuple)):
                out = list(out)  # run a generator body inside the window
            self.method_ns += clock_ns() - start
            self.send_calls += 1
            if not out:
                self.send_idle += 1
            return out

        def traced_receive(rnd, inbox):
            start = clock_ns()
            receive(rnd, inbox)
            self.method_ns += clock_ns() - start
            self.receive_calls += 1
            if not inbox:
                self.receive_idle += 1

        def traced_next_activity(rnd):
            start = clock_ns()
            wake = next_activity(rnd)
            self.method_ns += clock_ns() - start
            self.next_activity_calls += 1
            return wake

        proc.send = traced_send
        proc.receive = traced_receive
        proc.next_activity = traced_next_activity


class KernelProbe:
    """Counts and times ``Kernel.step`` calls of one vec kernel."""

    def __init__(self) -> None:
        self.steps = 0
        self.step_ns = 0

    def wrap(self, kernel) -> None:
        step = kernel.step

        def traced_step(*args, **kwargs):
            start = clock_ns()
            delivered = step(*args, **kwargs)
            self.step_ns += clock_ns() - start
            self.steps += 1
            return delivered

        kernel.step = traced_step


class CodecProbe:
    """Recorder for :func:`repro.net.codec.set_codec_probe`.

    The codec calls ``clock()`` around each encode/decode and hands the
    duration to ``sample(name, seconds)``; this keeps call counts and
    summed seconds per name.
    """

    enabled = True
    clock = staticmethod(clock)

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.seconds: dict[str, float] = {}

    def sample(self, name: str, seconds: float) -> None:
        self.calls[name] = self.calls.get(name, 0) + 1
        self.seconds[name] = self.seconds.get(name, 0.0) + seconds
