"""Parent side of ``launcher.py``: start a child, read its events, reap it.

Each child gets its own process group, so a terminal's SIGINT aimed at the
benchmark does not reach it and one ``killpg`` reaches everything it might
have started.  :meth:`Child.close` -- called on leaving the ``with`` block,
whatever happened inside -- sends SIGINT to the group, waits, and sends
SIGKILL if the group has not ended in time.  If the benchmark itself is
killed, the child sees end of file on its stdin and stops on its own.
"""

from __future__ import annotations

import json
import os
import queue
import signal
import subprocess
import sys
import threading
from pathlib import Path
from typing import List, Optional

HERE = Path(__file__).resolve().parent
PREFIX = "perfbench "


class Child:
    """One ``launcher.py`` process and the events it has written."""

    def __init__(self, args: List[str]):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py"), *args],
            cwd=HERE.parent, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, start_new_session=True)
        self._events: "queue.Queue[Optional[dict]]" = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        self.exit_event: Optional[dict] = None

    def _read(self) -> None:
        for line in self.proc.stdout:
            if line.startswith(PREFIX):
                self._events.put(json.loads(line[len(PREFIX):]))
        self._events.put(None)

    def wait_event(self, name: str, timeout: float = 120.0) -> dict:
        """Block until the child writes event ``name``; return its fields."""
        while True:
            try:
                event = self._events.get(timeout=timeout)
            except queue.Empty:
                raise TimeoutError(f"no {name!r} event in {timeout} s") from None
            if event is None:
                raise RuntimeError(f"child closed its output (exit status "
                                  f"{self.proc.poll()}) before {name!r}")
            if event["event"] == "exit":
                self.exit_event = event
            if event["event"] == name:
                return event

    def cpu_seconds(self) -> float:
        """The child's user plus system CPU seconds so far, all threads,
        read from ``/proc/<pid>/stat``."""
        stat = Path(f"/proc/{self.proc.pid}/stat").read_text()
        fields = stat.rsplit(")", 1)[1].split()     # fields 3 onwards
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def close(self, timeout: float = 30.0) -> Optional[dict]:
        """Stop the child's process group and reap it; return its exit event.

        SIGINT first (the server drains), then SIGKILL to the whole group if
        it has not exited within ``timeout`` seconds.
        """
        if self.proc.poll() is None:      # not reaped, so the group is ours
            try:
                os.killpg(self.proc.pid, signal.SIGINT)
            except ProcessLookupError:
                pass
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            # Not reaped yet, so the group id still belongs to this child.
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
        self._reader.join()
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except BrokenPipeError:
                pass
        while self.exit_event is None and not self._events.empty():
            event = self._events.get()
            if event is not None and event["event"] == "exit":
                self.exit_event = event
        return self.exit_event

    def __enter__(self) -> "Child":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
