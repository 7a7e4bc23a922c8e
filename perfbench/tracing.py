"""The traced run: spans, summed counters, a virtual-time ledger, a profile.

Everything here instruments the package from outside.  Wrappers are
installed on *classes* (and on the module attributes that call sites
look up), so they survive the kernel, MMU and bus being replaced by a
reboot, and they are removed again when the traced repetition ends.

* **Spans.**  Each wrapped call records one span -- name, host start,
  host end, parent span -- in flat in-memory arrays, written to disk at
  exit.  A layer's self time is its spans' durations minus the time
  their child spans cover.
* **Counters.**  The package's ``stat_*`` counters and ``BusStats`` live
  on objects a reboot replaces, so :class:`CounterBank` harvests them
  before every ``System.reboot`` and once more when a system is
  settled; ``DiskStats`` and ``ServiceStats`` survive reboots and are
  read at settle only.
* **Virtual-time ledger.**  ``Clock.consume``/``advance_to`` are wrapped
  and every advanced nanosecond is credited to the package of the
  innermost open span (``vt.<package>_s``); the accounts must add up to
  the virtual time of every clock the run created, exactly.
* **Profile.**  A sampling thread reads the main thread's innermost
  Python frame every millisecond and counts it against the
  ``repro.<package>`` that owns the code: each package's share of
  samples is its share of host self time.
"""

from __future__ import annotations

import json
import os
import sys
import threading
from array import array
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional

import repro

#: ``repro`` packages reported by ``host.share.<package>``.  The rest of
#: the package (top-level modules, packages these workloads barely
#: touch) is ``misc``; code outside the package -- the standard library,
#: this benchmark -- is ``other``.
PACKAGES = (
    "core", "disk", "faults", "fs", "hw", "isa", "kernel", "obs",
    "reliability", "server", "util", "workloads", "misc", "other",
)

#: Source directory of the ``repro`` package, with a trailing separator.
REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep

#: Packages owning a virtual-time account; ``other`` is time advanced
#: while no span is open.
VT_ACCOUNTS = ("server", "kernel", "fs", "core", "isa", "system", "faults", "other")

#: Wrapped public ``UFS`` entry points (the namespace and data API; the
#: internal helpers they call stay inside the ``fs.ufs`` span).
UFS_ENTRY_POINTS = (
    "mount", "unmount", "namei", "namei_parent", "create", "mkdir", "unlink",
    "rmdir", "rename", "symlink", "readlink", "link", "write", "read",
    "truncate", "stat", "readdir", "exists", "size_of", "flush_file",
    "flush_data", "flush_metadata", "fsync", "sync", "close_hook",
    "periodic_flush", "inode_exists", "inode_size", "write_by_ino", "statfs",
)


class Spans:
    """Flat span store plus running self-time and call tallies."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        #: Open spans: [index, name id, start, time covered by children].
        self.stack: List[list] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def enter(self, name_id: int) -> None:
        now = perf_counter()
        index = len(self.name)
        self.name.append(name_id)
        self.start.append(now)
        self.end.append(0.0)
        self.parent.append(self.stack[-1][0] if self.stack else -1)
        self.stack.append([index, name_id, now, 0.0])

    def exit(self) -> None:
        now = perf_counter()
        index, name_id, began, covered = self.stack.pop()
        self.end[index] = now
        duration = now - began
        name = self.names[name_id]
        self.self_s[name] += duration - covered
        self.total_s[name] += duration
        if self.stack:
            self.stack[-1][3] += duration

    def current(self) -> Optional[str]:
        """Name of the innermost open span, or None."""
        return self.names[self.stack[-1][1]] if self.stack else None

    def write(self, path: str) -> None:
        """Write the spans out: a JSON header, then the raw arrays."""
        with open(path, "wb") as out:
            header = {
                "names": self.names,
                "count": len(self.name),
                "arrays": ["name:i", "start:d", "end:d", "parent:i"],
            }
            out.write(json.dumps(header).encode() + b"\n")
            for column in (self.name, self.start, self.end, self.parent):
                column.tofile(out)


class CounterBank:
    """Counters summed across reboots and across systems.

    ``summed`` adds a harvest before every reboot to the final read at
    settle; ``end_read`` holds the final reads alone, which is what a
    reader of the live objects at the end of the run would see.
    """

    PER_BOOT = (
        "kernel.syscalls", "fs.ubc.hits", "fs.ubc.misses", "fs.ubc.evictions",
        "core.protection.windows", "hw.mmu.pte_toggles", "hw.bus.loads",
        "hw.bus.stores",
    )

    def __init__(self) -> None:
        self.summed: Dict[str, int] = defaultdict(int)
        self.end_read: Dict[str, int] = defaultdict(int)
        self.systems: list = []
        self.services: list = []
        self.retries = 0

    @staticmethod
    def read(system) -> Dict[str, int]:
        """The per-boot counters of one system, as they read now."""
        kernel, machine = system.kernel, system.machine
        out = dict.fromkeys(CounterBank.PER_BOOT, 0)
        if kernel is not None:
            out["kernel.syscalls"] = kernel.stat_syscalls
            if kernel.ubc is not None:
                out["fs.ubc.hits"] = kernel.ubc.stat_hits
                out["fs.ubc.misses"] = kernel.ubc.stat_misses
                out["fs.ubc.evictions"] = kernel.ubc.stat_evictions
        if system.rio is not None:
            out["core.protection.windows"] = system.rio.protection.stat_windows
        out["hw.mmu.pte_toggles"] = machine.mmu.stat_pte_toggles
        out["hw.bus.loads"] = machine.bus.stats.loads
        out["hw.bus.stores"] = machine.bus.stats.stores
        return out

    def before_reboot(self, system) -> None:
        for key, value in self.read(system).items():
            self.summed[key] += value

    def settle(self) -> Dict[str, int]:
        """Final reads of every tracked system and service; forget them.

        Returns each settled system's clock reading, keyed by clock id.
        """
        for system in self.systems:
            for key, value in self.read(system).items():
                self.summed[key] += value
                self.end_read[key] += value
            for disk in system.machine.disks.values():
                stats = disk.stats
                for key, value in (
                    ("disk.reads", stats.reads),
                    ("disk.writes", stats.writes),
                    ("disk.busy_ns", stats.busy_ns),
                    ("disk.sync_wait_ns", stats.sync_wait_ns),
                ):
                    self.summed[key] += value
                    self.end_read[key] += value
        for service in self.services:
            self.retries += service.stats.transparent_retries
        clocks = {id(system.clock): system.clock.now_ns for system in self.systems}
        self.systems.clear()
        self.services.clear()
        return clocks


class Tracer:
    """Installs the wrappers for one traced repetition and holds its data."""

    def __init__(self) -> None:
        self.spans = Spans()
        self.counters = CounterBank()
        self.sampler = Sampler(threading.get_ident())
        self.vt_ns: Dict[str, int] = defaultdict(int)
        #: Each traced clock's reading at creation, by clock id.
        self._clock_start: Dict[int, int] = {}
        self.clock_ns = 0
        self.reboot_vns = 0
        self.instructions = 0
        self.batches: List[int] = []
        self.backlogs: List[int] = []
        self._undo: List[Callable[[], None]] = []

    # -- installing wrappers --------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        original = owner.__dict__[attr]
        setattr(owner, attr, replacement)
        self._undo.append(lambda: setattr(owner, attr, original))

    def span(self, owner, attr: str, name: str, *, after=None, before=None) -> None:
        """Wrap ``owner.attr`` in a span named ``name``.

        ``before(args)`` runs inside the span before the call and
        ``after(args, result)`` after it returns.
        """
        original = owner.__dict__[attr]
        spans = self.spans
        name_id = spans.name_id(name)

        def wrapper(*args, **kwargs):
            spans.calls[name] += 1
            spans.enter(name_id)
            try:
                if before is not None:
                    before(args)
                result = original(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            finally:
                spans.exit()

        self._patch(owner, attr, wrapper)

    def span_context(self, owner, attr: str, name: str) -> None:
        """Span the enter and exit halves of a context-manager method."""
        original = owner.__dict__[attr]
        spans = self.spans
        name_id = spans.name_id(name)

        class Window:
            def __init__(self, manager) -> None:
                self.manager = manager

            def __enter__(self):
                spans.calls[name] += 1
                spans.enter(name_id)
                try:
                    return self.manager.__enter__()
                finally:
                    spans.exit()

            def __exit__(self, *exc):
                spans.enter(name_id)
                try:
                    return self.manager.__exit__(*exc)
                finally:
                    spans.exit()

        def wrapper(*args, **kwargs):
            return Window(original(*args, **kwargs))

        self._patch(owner, attr, wrapper)

    def install(self) -> None:
        import repro.fs.dissect as dissect
        import repro.system as system_module
        from repro.core.guard import RioGuard
        from repro.core.protection import ProtectionManager
        from repro.faults.injector import FaultInjector
        from repro.fs.ufs import UFS
        from repro.hw.clock import Clock
        from repro.isa.interpreter import Interpreter
        from repro.kernel.syscalls import VFS
        from repro.server.cluster import ClusterService
        from repro.server.journal import AckJournal
        from repro.server.scheduler import RequestScheduler
        from repro.server.service import FileService
        from repro.system import System

        bank = self.counters
        tracer = self

        # Systems and services are tracked from construction so their
        # counters can be harvested before reboots and at settle.
        def track_system(args, _result):
            bank.systems.append(args[0])

        self.span(System, "__init__", "system.build", after=track_system)

        reboot_from: Dict[int, int] = {}

        def harvest(args):
            bank.before_reboot(args[0])
            reboot_from[id(args[0])] = args[0].clock.now_ns

        def reboot_time(args, _result):
            tracer.reboot_vns += args[0].clock.now_ns - reboot_from.pop(id(args[0]))

        self.span(System, "reboot", "system.reboot", before=harvest, after=reboot_time)
        self.span(system_module, "fsck", "fs.fsck")
        self.span(system_module, "dump_and_recover_metadata", "core.warm_reboot")
        self.span(system_module, "restore_ubc", "core.warm_reboot")
        self.span(dissect, "dissect_image", "fs.dissect")
        self.span(RioGuard, "end_write", "core.guard.end_write")
        self.span_context(ProtectionManager, "registry_window", "core.protection.window")
        for attr in UFS_ENTRY_POINTS:
            self.span(UFS, attr, "fs.ufs")
        for attr, value in list(VFS.__dict__.items()):
            if callable(value) and not attr.startswith("_") and attr not in ("batch", "run_batch"):
                self.span(VFS, attr, "kernel.syscall")

        def count_steps(_args, result):
            tracer.instructions += result.steps

        self.span(Interpreter, "call", "isa.call", after=count_steps)
        self.span(FaultInjector, "inject", "faults.inject")
        self.span(AckJournal, "audit", "server.audit")

        def sample_backlog(args):
            tracer.backlogs.append(args[0].scheduler.backlog())

        self.span(FileService, "pump", "server.pump", before=sample_backlog)
        self.span(ClusterService, "pump", "server.front", before=sample_backlog)

        def track_service(args, _result):
            bank.services.append(args[0])

        self.span(FileService, "__init__", "server.service_init", after=track_service)

        original_next_batch = RequestScheduler.__dict__["next_batch"]
        spans = self.spans

        def next_batch(scheduler, *args, **kwargs):
            batch = original_next_batch(scheduler, *args, **kwargs)
            if batch and spans.current() == "server.pump":
                tracer.batches.append(len(batch))
            return batch

        self._patch(RequestScheduler, "next_batch", next_batch)
        self._install_clock(Clock)

    def _install_clock(self, Clock) -> None:
        """Credit every virtual-time advance to the innermost span's package."""
        vt_ns = self.vt_ns
        #: Per open consume/advance_to call: virtual ns its nested calls
        #: already credited, so each nanosecond is credited once.
        frames: List[list] = []
        spans = self.spans
        starts = self._clock_start

        def account(clock, before: int, frame: list) -> None:
            advanced = clock.now_ns - before
            own = advanced - frame[0]
            current = spans.current()
            vt_ns[current.split(".", 1)[0] if current else "other"] += own
            if frames:
                frames[-1][0] += advanced

        for attr in ("consume", "advance_to"):
            original = Clock.__dict__[attr]

            def wrapper(clock, t, _original=original):
                before = clock.now_ns
                frame = [0]
                frames.append(frame)
                try:
                    _original(clock, t)
                finally:
                    frames.pop()
                    account(clock, before, frame)

            self._patch(Clock, attr, wrapper)

        original_init = Clock.__dict__["__init__"]

        def init(clock, start_ns: int = 0):
            original_init(clock, start_ns)
            starts[id(clock)] = start_ns

        self._patch(Clock, "__init__", init)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- running ----------------------------------------------------------

    def settle(self) -> None:
        """Read and forget every system built so far (call between
        units of work that drop their systems, e.g. campaign trials)."""
        for clock_id, now in self.counters.settle().items():
            self.clock_ns += now - self._clock_start.pop(clock_id, 0)

    def __enter__(self) -> "Tracer":
        self.install()
        self.sampler.start()
        return self

    def __exit__(self, *_exc) -> None:
        self.sampler.stop()
        self.uninstall()
        self.settle()

    # -- results ------------------------------------------------------------

    def host_shares(self) -> Dict[str, float]:
        """Sampled host self time by ``repro.<package>``, as shares."""
        total = sum(self.sampler.counts.values()) or 1
        return {package: self.sampler.counts[package] / total for package in PACKAGES}


class Sampler:
    """Samples one thread's innermost Python frame at a fixed interval.

    A frame is charged to the ``repro`` package whose source file holds
    its code; time in built-ins is charged to the Python frame that
    called them.  Samples land only when the sampled thread yields the
    interpreter lock, so the effective rate is bounded by the switch
    interval; shares, not absolute times, are what it reports.
    """

    INTERVAL_S = 0.001

    def __init__(self, thread_id: int) -> None:
        self.thread_id = thread_id
        self.counts: Dict[str, int] = dict.fromkeys(PACKAGES, 0)
        self._packages: Dict[str, str] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="perfbench-sampler", daemon=True)

    def package_of(self, filename: str) -> str:
        package = self._packages.get(filename)
        if package is None:
            package = "other"
            if filename.startswith(REPRO_DIR):
                rest = filename[len(REPRO_DIR):]
                package = rest.split(os.sep, 1)[0] if os.sep in rest else "misc"
                if package not in self.counts:
                    package = "misc"
            self._packages[filename] = package
        return package

    def _run(self) -> None:
        while not self._stop.wait(self.INTERVAL_S):
            frame = sys._current_frames().get(self.thread_id)
            if frame is not None:
                self.counts[self.package_of(frame.f_code.co_filename)] += 1

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()
