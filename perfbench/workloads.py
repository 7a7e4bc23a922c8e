"""The three benchmark workloads, built from the package's public API.

Each workload is one *repetition* function ``fn(seed, fast_path)`` that
sets up a fresh system, runs a closed-loop timed phase on it and checks
the outcome.  A repetition is a pure function of its seed: every
repetition of one seed must produce the same digests and the same
virtual-time figures, and the runner checks that they do.

* ``serve-storm`` -- one ``FileService`` on ``rio_prot`` driven by
  ``LoadClient``s with the default write-heavy mix, through evenly
  spaced forced crashes (write path and recovery).
* ``cluster-readmostly`` -- a four-shard ``ClusterService`` whose
  clients write their files whole during set-up, then drive a
  read-mostly mix through one rolling crash per shard; each shard's
  working set is larger than its buffer cache (lookup, read and front
  end).
* ``fault-campaign`` -- a Table 1 mini-campaign: ``rio_prot`` x all
  thirteen fault types, one counted crash per cell, through the public
  ``run_crash_test``/``seed_for`` (interpreter and fault injection).
"""

from __future__ import annotations

import gc
import os
import random
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import repro.fs.dissect as dissect
from repro.faults.types import ALL_FAULT_TYPES
from repro.fs.ondisk import INODES_PER_BLOCK
from repro.hw.clock import Clock
from repro.reliability.campaign import CrashTestConfig, run_crash_test, system_spec_for
from repro.reliability.report import Table1, seed_for, table1_digest
from repro.reliability.traffic import ClusterTrafficConfig, rolling_crash_points
from repro.server import (
    ClusterConfig,
    ClusterService,
    FileService,
    LoadClient,
    LoadSpec,
    ServiceConfig,
    run_cluster_load,
    run_load,
)
from repro.server.loadgen import ClientStats, percentile
from repro.server.protocol import Request
from repro.system import System, build_system

# -- sizes --------------------------------------------------------------------


# Both traffic workloads keep one request in flight per client and put
# one request from every client in each batch, so a pump is one round of
# the clients and a request's latency is the round it rides in.  With
# deeper pipelines the median latency lands between the queueing modes
# and swings from seed to seed.
PIPELINE = 1


@dataclass(frozen=True)
class ServeSize:
    clients: int = 32
    programs: int = 30
    crashes: int = 6


#: cluster-readmostly: four in-process shards with 4 MB of machine memory
#: each, which sizes each shard's unified buffer cache (358 pages of
#: 8 KB) below its working set (64 clients x 4 files x 16 KB = 4 MB).
SHARDS = 4
SHARD_MEMORY_BYTES = 4 * 1024 * 1024
SHARD_FS_BLOCKS = 2048
FILES_PER_CLIENT = 4
FILE_BYTES = 16 * 1024


@dataclass(frozen=True)
class ClusterSize:
    clients: int = 256
    programs: int = 8


#: Operations a latent fault may ride before the trial is discarded (the
#: campaign default is 1500; a shorter budget keeps trial cost even, so
#: a run's trial mix does not swing its throughput).
OPS_AFTER_INJECTION = 150


@dataclass(frozen=True)
class CampaignSize:
    fault_types: tuple = ALL_FAULT_TYPES
    #: Counted crashes per cell, and attempts allowed per counted crash.
    crashes_per_cell: int = 1
    attempts_per_crash: int = 3


CAMPAIGN_SYSTEM = "rio_prot"


def readmostly_spec(size: ClusterSize) -> LoadSpec:
    """The timed cluster mix: ~60% reads, ~20% stat/readdir, ~10% writes,
    the rest namespace operations."""
    return LoadSpec(
        ops_per_client=size.programs,
        files_per_client=FILES_PER_CLIENT,
        max_file_bytes=FILE_BYTES,
        write_bytes=(512, 4096),
        pipeline=PIPELINE,
        mix=(
            ("read", 60),
            ("stat", 10),
            ("readdir", 10),
            ("write", 10),
            ("cycle", 3),
            ("mkdir", 3),
            ("rename", 4),
        ),
    )


class HostClock:
    """Host time of a timed phase, and the same time at reference speed.

    On a shared host the simulator's speed drifts by a quarter within
    seconds, so host figures alone spread widely from run to run.  The
    clock times a fixed pure-Python loop whenever ``tick`` finds that
    ``INTERVAL_S`` has passed, and until the next loop advances
    reference time by ``REFERENCE_S / loop time`` per host second: a
    reference second is a host second on a host that runs the loop in
    ``REFERENCE_S``.  Time spent in the loop counts in neither clock.
    """

    INTERVAL_S = 0.5
    LOOP = 100_000
    REFERENCE_S = 0.010

    def __init__(self) -> None:
        #: Host seconds each calibration loop took.
        self.loop_s: List[float] = []
        self._paused = 0.0
        self._host_mark = 0.0
        self._ref_mark = 0.0
        self._scale = 1.0
        self._due = 0.0
        self.calibrate()

    def now(self) -> Tuple[float, float]:
        """(host, reference) seconds, from an arbitrary origin."""
        host = perf_counter() - self._paused
        return host, self._ref_mark + (host - self._host_mark) * self._scale

    def calibrate(self) -> None:
        """Time the loop now and rescale reference time from here on."""
        self._host_mark, self._ref_mark = self.now()
        started = perf_counter()
        total = 0
        for i in range(self.LOOP):
            total += i * i % 7
        loop_s = perf_counter() - started
        self._paused += loop_s
        self._scale = self.REFERENCE_S / loop_s
        self._due = started + loop_s + self.INTERVAL_S
        self.loop_s.append(loop_s)

    def tick(self) -> None:
        if perf_counter() >= self._due:
            self.calibrate()


@dataclass
class Rep:
    """What one repetition measured and checked."""

    setup_s: List[float] = field(default_factory=list)
    #: Host and reference seconds of the timed phase (see HostClock).
    timed_s: float = 0.0
    ref_timed_s: float = 0.0
    #: Completed operations (acked requests, or finished trials).
    ops: int = 0
    attempted: int = 0
    #: Non-retryable failures plus lost acks (traffic), or trials that
    #: ended in a harness error (campaign).
    failed: int = 0
    host_latencies_s: List[float] = field(default_factory=list)
    ref_latencies_s: List[float] = field(default_factory=list)
    #: Calibration loop times (HostClock.loop_s).
    loop_s: List[float] = field(default_factory=list)
    #: Virtual-time figures; identical across repetitions of one seed.
    virtual: Dict[str, float] = field(default_factory=dict)
    #: Deterministic outcome digests (compared across repetitions,
    #: engines and traced/untraced runs).
    digests: Dict[str, str] = field(default_factory=dict)
    #: Correctness-check failures; a repetition with any is failed.
    problems: List[str] = field(default_factory=list)
    #: Informational figures that are not gated end-to-end metrics.
    info: Dict[str, float] = field(default_factory=dict)

    def record_recovery(self, total_ns: int, recoveries: int) -> None:
        """Record recovery (reboot plus audit) virtual time: the mean per
        recovery is the gated figure, the run's total is informational."""
        self.info["recoveries"] = recoveries
        self.info["v_recovery_total_s"] = total_ns / 1e9
        self.virtual["v_recovery_s"] = total_ns / max(1, recoveries) / 1e9


class TimedClient(LoadClient):
    """A ``LoadClient`` that stamps each request on a ``HostClock``.

    The stamp is taken at the request's first submission and closed
    when the client receives its acknowledgement, so retries across a
    crash count in the latency of the request they retry.  The load
    loop asks every client for work each round, which is where the
    clock gets its chance to recalibrate.
    """

    def __init__(self, client_id: int, seed: int, spec: LoadSpec, clock: HostClock) -> None:
        super().__init__(client_id, seed=seed, spec=spec)
        self.clock = clock
        self.first_sent: Dict[int, Tuple[float, float]] = {}
        self.host_latencies_s: List[float] = []
        self.ref_latencies_s: List[float] = []

    def next_request(self):
        self.clock.tick()
        request = super().next_request()
        if request is not None and request.req_id not in self.first_sent:
            self.first_sent[request.req_id] = self.clock.now()
        return request

    def on_response(self, response) -> None:
        acked, failed = self.stats.acked, self.stats.failed
        super().on_response(response)
        if self.stats.acked != acked:
            host, ref = self.first_sent.pop(response.req_id)
            now_host, now_ref = self.clock.now()
            self.host_latencies_s.append(now_host - host)
            self.ref_latencies_s.append(now_ref - ref)
        elif self.stats.failed != failed:
            self.first_sent.pop(response.req_id, None)


def run_timed(rep: Rep, clock: HostClock, drive, *args):
    """Run ``drive(*args)`` as the timed phase of ``rep``."""
    clock.calibrate()
    host, ref = clock.now()
    report = drive(*args)
    now_host, now_ref = clock.now()
    rep.timed_s = now_host - host
    rep.ref_timed_s = now_ref - ref
    rep.loop_s = clock.loop_s
    return report


def even_crash_points(clients: int, spec: LoadSpec, crashes: int) -> List[int]:
    """Crash points spaced evenly over the estimated executed-request
    stream (the estimate the shipped traffic campaign uses)."""
    total = clients * (spec.files_per_client + int(spec.ops_per_client * 1.4))
    step = max(1, total // (crashes + 1))
    return [step * (i + 1) for i in range(crashes)]


class CrashAt:
    """``before_execute`` hook forcing a crash at each executed count."""

    def __init__(self, system, points) -> None:
        self.system = system
        self.points = list(points)
        self.fired = 0

    def __call__(self, executed: int) -> None:
        if self.fired < len(self.points) and executed >= self.points[self.fired]:
            self.fired += 1
            self.system.machine.crash(f"bench storm crash {self.fired}", kind="forced")


def second_opinions(systems) -> list:
    """Collect an fsck/dissect verdict after every recovery of ``systems``.

    The reboot hook runs when fsck has just blessed the disk, the one
    point mid-run where the on-disk state claims consistency; the
    independent dissect verifier must agree with it.
    """
    verdicts: list = []

    def hook(system, report) -> None:
        if system.disk is not None and report.fsck is not None:
            verdicts.append(
                dissect.compare_verdicts(
                    fsck_unrecoverable=report.fsck.unrecoverable,
                    fsck_fix_count=report.fsck.fix_count,
                    report=dissect.dissect_image(dissect.snapshot(system.disk)),
                )
            )

    for system in systems:
        system.add_reboot_hook(hook)
    return verdicts


def check_recoveries(rep: Rep, recoveries: int, expected: int, verdicts: list) -> None:
    """Every scheduled crash was recovered from, and every recovery got
    a second opinion that agreed with fsck."""
    if recoveries != expected:
        rep.problems.append(f"{recoveries} recoveries, expected {expected}")
    if len(verdicts) != recoveries:
        rep.problems.append(f"{len(verdicts)} second opinions for {recoveries} recoveries")
    diverged = sum(1 for verdict in verdicts if not verdict.agreed)
    if diverged:
        rep.problems.append(f"{diverged} fsck/dissect divergences")


def _client_results(rep: Rep, clients: List[TimedClient], report) -> None:
    """Fold the load report and the clients' host stamps into ``rep``."""
    rep.ops = report.acked
    rep.attempted = report.acked + report.failed
    rep.failed += report.failed
    for client in clients:
        rep.host_latencies_s.extend(client.host_latencies_s)
        rep.ref_latencies_s.extend(client.ref_latencies_s)
    rep.virtual["v_ops_per_s"] = report.throughput_ops_per_vsec
    rep.virtual["v_op_p50_ms"] = report.latency_percentile(0.50) / 1e6
    rep.virtual["v_op_p99_ms"] = report.latency_percentile(0.99) / 1e6


# -- serve-storm --------------------------------------------------------------


def serve_storm(
    seed: int, fast_path: bool, size: ServeSize = ServeSize(), after_unit=None
) -> Rep:
    rep = Rep()
    spec = LoadSpec(ops_per_client=size.programs, pipeline=PIPELINE)
    start = perf_counter()
    system_spec = system_spec_for("rio_prot", fs_blocks=2048)
    system_spec = replace(
        system_spec, machine=replace(system_spec.machine, fast_path=fast_path)
    )
    system = build_system(system_spec)
    service = FileService(system, ServiceConfig(batch_size=size.clients))
    service.before_execute = CrashAt(
        system, even_crash_points(size.clients, spec, size.crashes)
    )
    verdicts = second_opinions([system])
    clock = HostClock()
    clients = [TimedClient(cid, seed, spec, clock) for cid in range(size.clients)]
    for client in clients:
        service.open_session(client.client_id)
    rep.setup_s.append(perf_counter() - start)

    report = run_timed(rep, clock, run_load, service, clients)

    _client_results(rep, clients, report)
    recoveries = service.stats.recoveries
    rep.record_recovery(service.stats.recovery_ns, recoveries)
    final = service.audit()
    lost = service.stats.lost_acks + len(final.lost)
    rep.failed += lost
    if lost:
        rep.problems.append(f"{lost} lost acks")
    if not final.ok:
        rep.problems.append("final journal audit failed")
    check_recoveries(rep, recoveries, size.crashes, verdicts)
    rep.digests["ack"] = report.ack_digest
    rep.digests["state"] = report.state_digest
    if after_unit is not None:
        after_unit()
    return rep


# -- cluster-readmostly -------------------------------------------------------


class FillClient:
    """Set-up client: opens each of its files and writes it whole, once.

    Speaks the client protocol ``run_cluster_load`` drives (one request
    in flight at a time), so set-up runs through the same front end as
    the timed phase.
    """

    def __init__(self, client_id: int, seed: int) -> None:
        self.client_id = client_id
        self.stats = ClientStats(client_id=client_id)
        self._seed = seed
        self._file = 0
        self._fd: Optional[int] = None
        self._next_req_id = 1
        self._pending: Optional[Request] = None
        self._outstanding: Optional[Request] = None

    def _plan(self) -> Optional[Request]:
        if self._file >= FILES_PER_CLIENT:
            return None
        if self._fd is None:
            op = dict(op="open", path=f"f{self._file}", create=True)
        else:
            key = (self._seed << 24) ^ (self.client_id << 8) ^ self._file
            data = random.Random(key).randbytes(FILE_BYTES)
            op = dict(op="write", fd=self._fd, offset=0, data=data)
        request = Request(client_id=self.client_id, req_id=self._next_req_id, **op)
        self._next_req_id += 1
        return request

    def next_request(self) -> Optional[Request]:
        if self._outstanding is not None:
            return None
        request = self._pending or self._plan()
        self._pending = None
        self._outstanding = request
        return request

    def on_response(self, response) -> None:
        request, self._outstanding = self._outstanding, None
        if request is None or response.req_id != request.req_id:
            return
        if response.ok:
            self.stats.acked += 1
            if request.op == "open":
                self._fd = response.value
            else:
                self._fd = None
                self._file += 1
        elif response.retryable:
            self.stats.retried += 1
            self._pending = request
        else:
            self.stats.failed += 1
            self._fd = None
            self._file += 1

    @property
    def done(self) -> bool:
        return self._outstanding is None and self._pending is None and (
            self._file >= FILES_PER_CLIENT
        )


def cluster_readmostly(
    seed: int, fast_path: bool, size: ClusterSize = ClusterSize(), after_unit=None
) -> Rep:
    rep = Rep()
    spec = readmostly_spec(size)
    start = perf_counter()
    cluster = ClusterService(
        ClusterConfig(
            shards=SHARDS,
            system="rio_prot",
            router_mode="dir",
            fs_blocks=SHARD_FS_BLOCKS,
            # Every shard is provisioned for the whole population (as the
            # shipped cluster campaign does): files plus rename spares.
            inode_blocks=max(
                8, -(-(size.clients * (FILES_PER_CLIENT + 4) + 16) // INODES_PER_BLOCK)
            ),
            memory_bytes=SHARD_MEMORY_BYTES,
            fast_path=fast_path,
            batch_size=size.clients,
        ),
        jobs=1,
    )
    try:
        filled = run_cluster_load(
            cluster, [FillClient(cid, seed) for cid in range(size.clients)]
        )
        if filled.failed:
            rep.problems.append(f"{filled.failed} failed fill requests")
        # One rolling crash per shard, scheduled on the timed phase's own
        # executed-request axis: offset past what set-up executed.
        executed = {snap["shard"]: snap["executed"] for snap in cluster.snapshots()}
        storm = ClusterTrafficConfig(
            shards=SHARDS,
            clients=size.clients,
            crashes_per_shard=1,
            load=spec,
        )
        for shard, points in rolling_crash_points(storm).items():
            host = cluster.hosts[shard].shard
            host.service.before_execute = CrashAt(
                host.system, [executed[shard] + point for point in points]
            )
        verdicts = second_opinions([host.shard.system for host in cluster.hosts])
        clock = HostClock()
        clients = [TimedClient(cid, seed, spec, clock) for cid in range(size.clients)]
        rep.setup_s.append(perf_counter() - start)

        report = run_timed(rep, clock, run_cluster_load, cluster, clients)

        _client_results(rep, clients, report)
        services = [host.shard.service for host in cluster.hosts]
        recoveries = sum(service.stats.recoveries for service in services)
        rep.record_recovery(sum(service.stats.recovery_ns for service in services), recoveries)
        lost = sum(snap["lost_acks"] for snap in report.shard_snapshots)
        audits = cluster.audits()
        lost += sum(len(audit["lost"]) for audit in audits)
        rep.failed += lost
        if lost:
            rep.problems.append(f"{lost} lost acks")
        if not all(audit["ok"] for audit in audits):
            rep.problems.append("shard journal audit failed")
        intents = cluster.audit_intents()
        if not intents.get("ok"):
            rep.problems.append(f"intent audit failed: {intents.get('violations')}")
        check_recoveries(rep, recoveries, SHARDS, verdicts)
        rep.digests["fill"] = filled.cluster_digest
        rep.digests["cluster"] = report.cluster_digest
    finally:
        cluster.close()
    if after_unit is not None:
        after_unit()
    return rep


# -- fault-campaign -----------------------------------------------------------


class _ClockWatch:
    """Collects the clocks machines create, to read trial virtual time.

    Installed around ``Clock.__init__`` for the campaign only: a trial
    builds its machine inside ``run_crash_test``, and the clock is the
    one public handle on its virtual time.
    """

    def __init__(self) -> None:
        self.clocks: List[Clock] = []
        self._original = None

    def __enter__(self) -> "_ClockWatch":
        original = self._original = Clock.__dict__["__init__"]
        watch = self

        def init(clock, *args, **kwargs):
            original(clock, *args, **kwargs)
            watch.clocks.append(clock)

        Clock.__init__ = init
        return self

    def __exit__(self, *_exc) -> None:
        Clock.__init__ = self._original

    def take(self) -> int:
        """Virtual ns on the clocks created since the last call."""
        total = sum(clock.now_ns for clock in self.clocks)
        self.clocks.clear()
        return total


class _RebootWatch:
    """Sums virtual time spent in ``System.reboot`` during a campaign."""

    def __init__(self) -> None:
        self.ns = 0
        self.count = 0
        self._original = None

    def __enter__(self) -> "_RebootWatch":
        original = self._original = System.__dict__["reboot"]
        watch = self

        def reboot(system, *args, **kwargs):
            before = system.clock.now_ns
            try:
                return original(system, *args, **kwargs)
            finally:
                watch.ns += system.clock.now_ns - before
                watch.count += 1

        System.reboot = reboot
        return self

    def __exit__(self, *_exc) -> None:
        System.reboot = self._original


class _EngineEnv:
    """Pins ``RIO_FAST_PATH``, which a machine reads when it is built."""

    def __init__(self, fast_path: bool) -> None:
        self.value = "1" if fast_path else "0"
        self.saved: Optional[str] = None

    def __enter__(self) -> None:
        self.saved = os.environ.get("RIO_FAST_PATH")
        os.environ["RIO_FAST_PATH"] = self.value

    def __exit__(self, *_exc) -> None:
        if self.saved is None:
            os.environ.pop("RIO_FAST_PATH", None)
        else:
            os.environ["RIO_FAST_PATH"] = self.saved


def fault_campaign(
    seed: int, fast_path: bool, size: CampaignSize = CampaignSize(), after_unit=None
) -> Rep:
    rep = Rep()
    base_seed = 1000 + 100_000 * seed
    with _EngineEnv(fast_path):
        table = Table1(crashes_per_cell=size.crashes_per_cell)
        trial_vns: List[int] = []
        clock = HostClock()
        with _ClockWatch() as clocks, _RebootWatch() as reboots:
            for fault_type in size.fault_types:
                cell = table.cell(CAMPAIGN_SYSTEM, fault_type)
                attempt = 0
                while (
                    cell.crashes < size.crashes_per_cell
                    and attempt < size.crashes_per_cell * size.attempts_per_crash
                ):
                    config = CrashTestConfig(
                        system=CAMPAIGN_SYSTEM,
                        fault_type=fault_type,
                        seed=seed_for(base_seed, CAMPAIGN_SYSTEM, fault_type, attempt),
                        max_ops_after_injection=OPS_AFTER_INJECTION,
                    )
                    # Every trial boots its own machine inside
                    # run_crash_test; one more build, timed on its own
                    # before each trial, samples set-up cost across the
                    # whole run.  Its clock is not a trial's.
                    # The garbage a trial or a build leaves (a whole
                    # machine) is collected before the next one, untimed,
                    # so peak memory and collector pauses do not depend
                    # on when the collector last ran on its own.
                    gc.collect()
                    start = perf_counter()
                    build_system(system_spec_for(CAMPAIGN_SYSTEM))
                    rep.setup_s.append(perf_counter() - start)
                    clocks.take()
                    gc.collect()
                    # A trial cannot tick the clock, so it is calibrated
                    # just before each one.
                    clock.calibrate()
                    host, ref = clock.now()
                    try:
                        result = run_crash_test(config)
                    except Exception as exc:  # a harness error fails the trial
                        rep.failed += 1
                        rep.problems.append(f"{fault_type.value}: {exc!r}")
                    else:
                        cell.record(result)
                    now_host, now_ref = clock.now()
                    rep.host_latencies_s.append(now_host - host)
                    rep.ref_latencies_s.append(now_ref - ref)
                    trial_vns.append(clocks.take())
                    if after_unit is not None:
                        after_unit()
                    attempt += 1
        rep.timed_s = sum(rep.host_latencies_s)
        rep.ref_timed_s = sum(rep.ref_latencies_s)
        rep.loop_s = clock.loop_s

    rep.ops = rep.attempted = len(trial_vns)
    crashes = table.total_crashes(CAMPAIGN_SYSTEM)
    corruptions = table.total_corruptions(CAMPAIGN_SYSTEM)
    divergences = table.total_divergences(CAMPAIGN_SYSTEM)
    if divergences:
        rep.problems.append(f"{divergences} fsck/dissect divergences")
    if crashes == 0:
        rep.problems.append("no counted crash")
    total_s = sum(trial_vns) / 1e9
    rep.virtual["v_ops_per_s"] = len(trial_vns) / total_s
    rep.virtual["v_op_p50_ms"] = percentile(trial_vns, 0.50) / 1e6
    rep.virtual["v_op_p99_ms"] = percentile(trial_vns, 0.99) / 1e6
    rep.record_recovery(reboots.ns, reboots.count)
    rep.info["counted_crashes"] = crashes
    rep.info["corrupt_frac"] = corruptions / crashes if crashes else 0.0
    rep.info["trap_saves"] = table.trap_saves(CAMPAIGN_SYSTEM)
    rep.digests["table1"] = table1_digest(table)
    return rep


#: name -> (repetition function, warm-up size).  The warm-up runs once,
#: untimed, before the first repetition, so imports and first-use caches
#: are in place when timing starts.
WORKLOADS: Dict[str, tuple] = {
    "serve-storm": (serve_storm, ServeSize(clients=4, programs=6, crashes=1)),
    "cluster-readmostly": (cluster_readmostly, ClusterSize(clients=16, programs=4)),
    "fault-campaign": (
        fault_campaign,
        CampaignSize(fault_types=ALL_FAULT_TYPES[:1], crashes_per_cell=1, attempts_per_crash=1),
    ),
}
