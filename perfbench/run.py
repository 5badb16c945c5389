"""The repository's benchmark: four workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload paper-crash --seed 0 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is a
separate traced run that reports the per-layer metrics, taken by
wrapping and timing calls into the public functions of each ``repro``
module from this directory (``probes.py``).  End-to-end times are
wall times scaled to a reference host speed by calibrations run between
the timed intervals (``pace.py``).  Every run is checked for
correctness.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``perfbench/README.md``
lists the metrics and which end-to-end number each layer should move.

Workloads (the seed derives every run's inputs and crash seed):

* ``paper-crash`` -- the paper's consensus / gossip / checkpointing
  back to back on the simulator under random crashes, closed loop.
* ``flood-dense`` -- flooding on the simulator: every send is busy.
* ``kernel-vec`` -- gossip and checkpointing on the numpy kernels.
* ``serve-open`` -- small recipes submitted to an in-process
  ``RunServer`` over TCP by one ``ServeClient``, open loop at
  ``SERVE_RATE`` runs per second.
"""

from __future__ import annotations

from pace import CALIBRATION_REF_S, Pace

#: setup_s counts from here: imports are part of the set-up, and each
#: ``SETUP.lap()`` ends one segment of it.
SETUP = Pace.started()

import argparse  # noqa: E402
import asyncio  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple, Optional  # noqa: E402

# Single-threaded numeric libraries: the 2-core machines this runs on
# give noisier timings when BLAS threads compete with the interpreter.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

clock = time.perf_counter


class Shape(NamedTuple):
    family: str
    n: int
    t: int
    crashes: str


class Workload(NamedTuple):
    backend: str  # "sim", "vec" or "serve"
    rotation: tuple  # Shapes, run back to back in this order


WORKLOADS = {
    "paper-crash": Workload(
        "sim",
        (
            Shape("consensus", 800, 80, "random"),
            Shape("gossip", 160, 16, "random"),
            Shape("checkpointing", 120, 12, "random"),
        ),
    ),
    "flood-dense": Workload("sim", (Shape("flooding", 600, 6, "random"),)),
    # Three well-separated run times per rotation, so the median falls
    # inside a cluster: with two, it sat in the gap between them.
    "kernel-vec": Workload(
        "vec",
        (
            Shape("gossip", 480, 48, "random"),
            Shape("checkpointing", 240, 24, "random"),
            Shape("checkpointing", 360, 36, "random"),
        ),
    ),
    "serve-open": Workload(
        "serve",
        (
            Shape("flooding", 8, 2, "early"),
            Shape("gossip", 12, 2, "random"),
            Shape("consensus", 24, 4, "random"),
        ),
    ),
}

#: Offered rate of ``serve-open`` in runs per second: an eighth of the
#: rate at which this recipe mix saturates one server on a 2-core
#: machine (15-17 runs/s), so runs rarely overlap.  Overlap amplifies a
#: slow host into queueing: between identical runs the median latency
#: spread by 24-57% at 7/s, 12-34% at 4/s and 8-22% at 2/s.
SERVE_RATE = 2.0

#: A gap between served requests shorter than this gets no calibration.
CALIBRATE_GAP_S = 0.05

#: Served runs re-executed on the simulator for ``check_parity`` after
#: the timed window: the first ``PARITY_SAMPLE`` requests of the run.
PARITY_SAMPLE = 12

#: Seconds to wait for in-flight served runs after the last request is
#: due; runs still pending then count as failed.
DRAIN_S = 60.0

#: Set-up samples per run: this process plus ``SETUP_PROBES`` fresh ones.
SETUP_PROBES = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_ms.p50": "ms",
    "latency_ms.p90": "ms",
    "runs_per_s": "1/s",
    "msgs_per_s": "msgs/s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "api.prepare_ms": "ms",
    "graphs.cold_build_ms": "ms",
    "engine.run_ms": "ms",
    "engine.self_ms": "ms",
    "engine.self_ns_per_msg": "ns/msg",
    "engine.rounds": "count",
    "process.send_calls": "count",
    "process.send_idle_ratio": "ratio",
    "process.receive_calls": "count",
    "process.receive_idle_ratio": "ratio",
    "process.next_activity_calls": "count",
    "process.self_ms": "ms",
    "vec.build_kernel_ms": "ms",
    "vec.kernel_steps": "count",
    "vec.kernel_step_ms": "ms",
    "vec.engine_self_ms": "ms",
    "properties.check_ms": "ms",
    "codec.encode_calls": "count",
    "codec.encode_ms": "ms",
    "codec.decode_ms": "ms",
    "transport.frames_delivered": "count",
    "transport.queue_hwm": "count",
    "runtime.rounds": "count",
    "runtime.round_ms.p50": "ms",
    "runtime.round_ms.p90": "ms",
    "serve.submit_ms": "ms",
    "serve.start_ms": "ms",
    "serve.result_ms": "ms",
    "serve.active_max": "count",
    "loadgen.lag_ms.max": "ms",
    "trace.overhead_ratio": "ratio",
}


# -- cells ---------------------------------------------------------------------


class Cell(NamedTuple):
    """One run: a recipe plus its execution arguments, named by ``cell_id``.

    The id is family/n/t/crash seed/digest of recipe and execution, so
    the same id always means the same run, traced or not.
    """

    index: int
    protocol: dict
    execution: dict
    cell_id: str


def make_cell(workload: str, seed: int, k: int) -> Cell:
    """The ``k``-th run of ``workload`` under workload seed ``seed``.

    Rotation ``r = k // len(rotation)`` gives every shape the crash seed
    ``seed * 1_000_000 + r``; consensus and flooding inputs are balanced
    alternating bits (phase ``r``), gossip rumors are distinct ints.
    """
    rotation = WORKLOADS[workload].rotation
    shape = rotation[k % len(rotation)]
    r = k // len(rotation)
    n, t = shape.n, shape.t
    if shape.family in ("consensus", "flooding"):
        protocol = {
            "name": shape.family,
            "inputs": [(pid + r) % 2 for pid in range(n)],
            "t": t,
        }
        if shape.family == "consensus":
            protocol["algorithm"] = "few"
    elif shape.family == "gossip":
        protocol = {"name": "gossip", "rumors": [n * r + pid for pid in range(n)], "t": t}
    else:
        protocol = {"name": "checkpointing", "n": n, "t": t}
    crash_seed = seed * 1_000_000 + r
    execution = {"crashes": shape.crashes, "seed": crash_seed}
    digest = hashlib.sha256(
        json.dumps([protocol, execution], sort_keys=True).encode()
    ).hexdigest()[:12]
    cell_id = f"{shape.family}/n{n}/t{t}/s{crash_seed}/{digest}"
    return Cell(k, protocol, execution, cell_id)


def check_cell(cell: Cell, result) -> None:
    """Raise unless ``result`` meets the family's ``repro.properties``
    predicate (which also requires ``completed``)."""
    from repro.properties import check_checkpointing, check_consensus, check_gossip

    name = cell.protocol["name"]
    if name in ("consensus", "flooding"):
        check_consensus(result, cell.protocol["inputs"])
    elif name == "gossip":
        check_gossip(result, cell.protocol["rumors"])
    else:
        check_checkpointing(result)


# -- statistics and output ---------------------------------------------------


def p90(values: list) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def median(values: list) -> float:
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tally:
    """Attempted/failed bookkeeping; failures are reported on stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def fail(self, cell: Cell, exc: BaseException) -> None:
        self.failed += 1
        print(
            f"FAILED {cell.cell_id}: {type(exc).__name__}: {exc}",
            file=sys.stderr,
        )


def emit(tally: Tally, values: dict, units: dict, notes: list) -> None:
    for line in notes:
        print(line)
    ratio = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"failed_ratio {ratio} ({tally.failed}/{tally.attempted} runs)")
    metrics = {}
    for name, unit in units.items():
        value = values.get(name, 0)
        print(f"{name} {value} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )


# -- set-up --------------------------------------------------------------------


def warm_cells(workload: str, seed: int) -> list:
    """One cell of each rotation shape: the first run of a shape in a
    process pays its cold graph builds and first-use costs."""
    return [make_cell(workload, seed, j) for j in range(len(WORKLOADS[workload].rotation))]


def setup_batch(workload: str, seed: int) -> None:
    """Imports and one checked warm-up run of every rotation shape."""
    from repro.api import run_recipe

    SETUP.lap()
    for cell in warm_cells(workload, seed):
        check_cell(cell, run_recipe(cell.protocol, backend=WORKLOADS[workload].backend, **cell.execution))
        SETUP.lap()


async def setup_serve(seed: int):
    """Imports, server start, client connect and one checked warm-up
    submission of every rotation shape; returns ``(server, client)``."""
    from repro.serve import RunServer, ServeClient

    server = RunServer(transport="tcp", workers=0)
    await server.start()
    port = await server.listen("127.0.0.1", 0)
    client = await ServeClient.connect("127.0.0.1", port)
    SETUP.lap()
    for cell in warm_cells("serve-open", seed):
        run_id = await client.submit(cell.protocol, cell.execution)
        check_cell(cell, await client.result(run_id))
        SETUP.lap()
    return server, client


async def close_serve(server, client) -> None:
    await client.close()
    await server.close()


def setup_samples(workload: str, seed: int, own: float) -> list:
    """``own`` plus the set-up time of ``SETUP_PROBES`` fresh processes,
    each measured from the first line of this file to ready, at the
    reference host speed."""
    samples = [own]
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-probe"],
            capture_output=True,
            text=True,
            timeout=120,
            cwd=ROOT,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def cold_build_ms(workload: str, seed: int, spans) -> float:
    """``prepare_recipe`` after ``clear_graph_cache()`` minus a warm
    ``prepare_recipe``, summed over the rotation's shapes."""
    from repro.api import prepare_recipe
    from repro.graphs import clear_graph_cache

    total = 0.0
    for cell in warm_cells(workload, seed):
        clear_graph_cache()
        sid = spans.begin("graphs.cold_prepare", cell=cell.cell_id)
        prepare_recipe(cell.protocol, **cell.execution)
        cold = spans.end(sid)
        sid = spans.begin("graphs.warm_prepare", cell=cell.cell_id)
        prepare_recipe(cell.protocol, **cell.execution)
        total += (cold - spans.end(sid)) * 1e3
    return total


# -- batch workloads (sim, vec) -----------------------------------------------


def measure_batch(workload: str, seed: int, seconds: float, setup_s: list) -> None:
    """Closed loop from one caller: ``run_recipe`` back to back."""
    from repro.api import run_recipe

    backend = WORKLOADS[workload].backend
    tally = Tally()
    pace = Pace()
    windows: list = []
    messages = 0
    pace.sample()
    start = clock()
    k = 0
    while k == 0 or clock() - start < seconds:
        cell = make_cell(workload, seed, k)
        k += 1
        tally.attempted += 1
        try:
            t0 = clock()
            result = run_recipe(cell.protocol, backend=backend, **cell.execution)
            t1 = clock()
            pace.sample()
            check_cell(cell, result)
        except Exception as exc:
            tally.fail(cell, exc)
            continue
        windows.append((t0, t1))
        messages += result.messages
    wall = [t1 - t0 for t0, t1 in windows]
    latencies = [(t1 - t0) * pace.scale(t0, t1) for t0, t1 in windows]
    busy = sum(latencies) or 1.0
    values = {
        "setup_s": median(setup_s),
        "latency_ms.p50": median(latencies) * 1e3,
        "latency_ms.p90": p90(latencies) * 1e3,
        "runs_per_s": len(latencies) / busy,
        "msgs_per_s": messages / busy,
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = [
        f"workload {workload} seed {seed} backend {backend}: closed loop, one caller",
        f"setup samples (s, reference speed) {setup_s}",
        f"latency samples {len(latencies)}, {len(latencies) // 10} beyond p90",
        f"wall clock: latency p50 {median(wall) * 1e3} ms, p90 {p90(wall) * 1e3} ms; "
        f"calibration median {median(pace.took) * 1e3} ms (reference {CALIBRATION_REF_S * 1e3} ms)",
    ]
    emit(tally, values, END_TO_END_UNITS, notes)


def trace_batch(workload: str, seed: int, seconds: float) -> None:
    """Per-layer numbers: each cell runs untraced (``run_recipe``) and
    traced (``prepare_recipe`` + wrapped processes or kernel + engine),
    in alternating order; both results must be ``check_parity``-equal.

    Counts cover the first rotation (deterministic in the seed);
    timings are per-run medians over every traced run.
    """
    from probes import KernelProbe, ProcessProbe, Spans
    from repro.api import prepare_recipe, run_recipe
    from repro.check import check_parity
    from repro.sim.engine import Engine
    from repro.sim.vec.engine import VecEngine, build_kernel

    backend = WORKLOADS[workload].backend
    width = len(WORKLOADS[workload].rotation)
    spans = Spans()
    tally = Tally()

    cold_ms = cold_build_ms(workload, seed, spans)
    samples: dict = {name: [] for name in PER_LAYER_UNITS}
    counts: Counter = Counter()
    per_cell: list = []
    plain_lat: list = []
    traced_lat: list = []

    def traced(cell: Cell):
        root = spans.begin("run", cell=cell.cell_id, backend=backend)
        sid = spans.begin("api.prepare_recipe", root)
        prep = prepare_recipe(cell.protocol, **cell.execution)
        samples["api.prepare_ms"].append(spans.end(sid) * 1e3)
        row: dict = {"cell": cell.cell_id}
        if backend == "sim":
            probe = ProcessProbe()
            probe.wrap(prep.processes)
            sid = spans.begin("engine.run", root)
            result = Engine(
                prep.processes,
                prep.adversary,
                byzantine=prep.byzantine,
                max_rounds=prep.max_rounds,
                fast_forward=prep.fast_forward,
            ).run()
            run_ms = spans.end(sid) * 1e3
            self_ms = run_ms - probe.method_ns / 1e6
            samples["engine.run_ms"].append(run_ms)
            samples["process.self_ms"].append(probe.method_ns / 1e6)
            samples["engine.self_ms"].append(self_ms)
            samples["engine.self_ns_per_msg"].append(self_ms * 1e6 / max(result.messages, 1))
            row.update(
                sends=probe.send_calls,
                idle_sends=probe.send_idle,
                receives=probe.receive_calls,
                idle_receives=probe.receive_idle,
                next_activity=probe.next_activity_calls,
                rounds=result.rounds,
            )
        else:
            sid = spans.begin("vec.build_kernel", root)
            kernel = build_kernel(prep.processes)
            samples["vec.build_kernel_ms"].append(spans.end(sid) * 1e3)
            if kernel is None:
                raise RuntimeError(f"{cell.cell_id}: no vec kernel for this recipe")
            probe = KernelProbe()
            probe.wrap(kernel)
            sid = spans.begin("vec.engine.run", root)
            result = VecEngine(
                prep.processes,
                prep.adversary,
                kernel,
                max_rounds=prep.max_rounds,
                fast_forward=prep.fast_forward,
            ).run()
            run_ms = spans.end(sid) * 1e3
            samples["vec.kernel_step_ms"].append(probe.step_ns / 1e6)
            samples["vec.engine_self_ms"].append(run_ms - probe.step_ns / 1e6)
            row.update(kernel_steps=probe.steps, rounds=result.rounds)
        traced_lat.append(spans.end(root))
        sid = spans.begin("properties.check", cell=cell.cell_id)
        check_cell(cell, result)
        samples["properties.check_ms"].append(spans.end(sid) * 1e3)
        return result, row

    def plain(cell: Cell):
        t0 = clock()
        result = run_recipe(cell.protocol, backend=backend, **cell.execution)
        plain_lat.append(clock() - t0)
        check_cell(cell, result)
        return result

    start = clock()
    k = 0
    while k < width or clock() - start < seconds:
        cell = make_cell(workload, seed, k)
        tally.attempted += 1
        try:
            if k % 2:
                result, row = traced(cell)
                twin = plain(cell)
            else:
                twin = plain(cell)
                result, row = traced(cell)
            check_parity(result, twin, "traced", "untraced")
        except Exception as exc:
            tally.fail(cell, exc)
            k += 1
            continue
        if k < width:
            per_cell.append(row)
            counts.update({key: v for key, v in row.items() if key != "cell"})
        k += 1

    values = {name: median(vals) for name, vals in samples.items() if vals}
    values["graphs.cold_build_ms"] = cold_ms
    if backend == "sim":
        values["engine.rounds"] = counts["rounds"]
        values["process.send_calls"] = counts["sends"]
        values["process.send_idle_ratio"] = counts["idle_sends"] / max(counts["sends"], 1)
        values["process.receive_calls"] = counts["receives"]
        values["process.receive_idle_ratio"] = counts["idle_receives"] / max(counts["receives"], 1)
        values["process.next_activity_calls"] = counts["next_activity"]
    else:
        values["vec.kernel_steps"] = counts["kernel_steps"]
    values["trace.overhead_ratio"] = median(traced_lat) / median(plain_lat) if plain_lat else 0.0
    path = OUT / f"{workload}-seed{seed}.trace.json"
    spans.write(path, workload=workload, seed=seed, counted_cells=per_cell)
    notes = [f"workload {workload} seed {seed} backend {backend}: traced pass"]
    notes += [f"count {json.dumps(row)}" for row in per_cell]
    notes.append(f"spans {len(spans.items)} written to {path.relative_to(ROOT)}")
    emit(tally, values, PER_LAYER_UNITS, notes)


# -- serve-open ------------------------------------------------------------------


async def collect_updates(queue) -> tuple[list, Optional[float]]:
    """Arrival times of a watched run's updates, and of its ``done``."""
    times: list = []
    while True:
        kind, _info = await queue.get()
        if kind == "update":
            times.append(clock())
        else:
            return times, clock() if kind == "done" else None


async def request(client, server, cell: Cell, due: float, watch: bool) -> dict:
    """Submit one cell and await its result; returns its timestamps."""
    rec: dict = {"cell": cell, "due": due, "sent": clock()}
    run_id = await client.submit(cell.protocol, cell.execution)
    rec["accepted"] = clock()
    rec["active"] = server.status()["active"]
    updates = None
    if watch:
        updates = asyncio.ensure_future(collect_updates(client.watch(run_id)))
    try:
        rec["result"] = await client.result(run_id)
        rec["result_at"] = clock()
        if updates is not None:
            rec["updates"], rec["done_at"] = await asyncio.wait_for(updates, DRAIN_S)
    finally:
        if updates is not None:
            updates.cancel()
    return rec


async def open_loop(client, server, seed: int, first: int, seconds: float, watch: bool, pace=None):
    """Submit cells ``first, first+1, ...`` each when due at
    ``SERVE_RATE``, without waiting for earlier ones; returns
    ``(records, failures, lags, start)``.

    With a ``pace``, calibrate before the first request, in each gap
    between requests in which no run is in flight and the next is due in
    more than ``CALIBRATE_GAP_S``, and after the last result.
    """
    if pace is not None:
        pace.sample()
    start = clock()
    tasks: list = []
    cells: list = []
    lags: list = []
    i = 0
    while i / SERVE_RATE < seconds:
        due = start + i / SERVE_RATE
        delay = due - clock()
        if pace is not None and delay > CALIBRATE_GAP_S:
            inflight = [task for task in tasks if not task.done()]
            if inflight:
                await asyncio.wait(inflight, timeout=delay - CALIBRATE_GAP_S)
            if due - clock() > CALIBRATE_GAP_S and all(task.done() for task in inflight):
                pace.sample()
            delay = due - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        lags.append(clock() - due)
        cell = make_cell("serve-open", seed, first + i)
        cells.append(cell)
        tasks.append(asyncio.ensure_future(request(client, server, cell, due, watch)))
        i += 1
    _, pending = await asyncio.wait(tasks, timeout=DRAIN_S)
    for task in pending:
        task.cancel()
    await asyncio.gather(*pending, return_exceptions=True)
    if pace is not None:
        pace.sample()
    records: list = []
    failures: list = []
    for cell, task in zip(cells, tasks):
        if task in pending:
            failures.append((cell, TimeoutError(f"no result {DRAIN_S}s after the window")))
        elif task.exception() is not None:
            failures.append((cell, task.exception()))
        else:
            records.append(task.result())
    return records, failures, lags, start


def check_served(records: list, failures: list, tally: Tally, check_ms: list) -> None:
    """Predicate on every served result; ``check_parity`` against the
    simulator for the first ``PARITY_SAMPLE`` requests."""
    from repro.api import run_recipe
    from repro.check import check_parity

    tally.attempted += len(records) + len(failures)
    for cell, exc in failures:
        tally.fail(cell, exc)
    for rec in records:
        cell = rec["cell"]
        try:
            t0 = clock()
            check_cell(cell, rec["result"])
            check_ms.append((clock() - t0) * 1e3)
            if cell.index - records[0]["cell"].index < PARITY_SAMPLE:
                direct = run_recipe(cell.protocol, backend="sim", **cell.execution)
                check_cell(cell, direct)
                check_parity(rec["result"], direct, "served", "sim")
        except Exception as exc:
            tally.fail(cell, exc)


def served_rates(records: list, start: float) -> tuple[float, float]:
    """Achieved runs/s and msgs/s from the first request's due time to
    the last result's arrival."""
    if not records:
        return 0.0, 0.0
    span = max(r["result_at"] for r in records) - start
    return len(records) / span, sum(r["result"].messages for r in records) / span


async def measure_serve(seed: int, seconds: float, server, client, setup_s: list) -> None:
    tally = Tally()
    pace = Pace()
    records, failures, lags, start = await open_loop(client, server, seed, 0, seconds, False, pace)
    await close_serve(server, client)
    check_served(records, failures, tally, [])
    wall = [r["result_at"] - r["due"] for r in records]
    latencies = [(r["result_at"] - r["due"]) * pace.scale(r["due"], r["result_at"]) for r in records]
    runs_per_s, msgs_per_s = served_rates(records, start)
    values = {
        "setup_s": median(setup_s),
        "latency_ms.p50": median(latencies) * 1e3,
        "latency_ms.p90": p90(latencies) * 1e3,
        "runs_per_s": runs_per_s,
        "msgs_per_s": msgs_per_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = [
        f"workload serve-open seed {seed}: open loop from one ServeClient, RunServer tcp workers=0",
        f"setup samples (s, reference speed) {setup_s}",
        f"offered_rate {SERVE_RATE} 1/s, achieved_rate {runs_per_s} 1/s, "
        f"loadgen.lag_ms.max {max(lags) * 1e3} ms",
        f"latency samples {len(latencies)}, {len(latencies) // 10} beyond p90 "
        f"(clock starts when a request is due)",
        f"wall clock: latency p50 {median(wall) * 1e3} ms, p90 {p90(wall) * 1e3} ms; "
        f"{len(pace.took)} calibrations, median {median(pace.took) * 1e3} ms "
        f"(reference {CALIBRATION_REF_S * 1e3} ms)",
    ]
    emit(tally, values, END_TO_END_UNITS, notes)


async def trace_serve(seed: int, seconds: float, server, client) -> None:
    """Per-layer numbers for ``serve-open``.

    First the first rotation runs alone, one at a time, for counts that
    repeat exactly (codec calls, frames routed, rounds).  Then half the
    window runs the open loop untraced and half traced (watching every
    run, codec probe installed); the traced half gives the timings.
    """
    from probes import CodecProbe, Spans
    from repro.net.codec import set_codec_probe

    spans = Spans()
    tally = Tally()
    width = len(WORKLOADS["serve-open"].rotation)

    cold_ms = cold_build_ms("serve-open", seed, spans)
    def delivered() -> int:
        return sum(row["delivered"] for row in server.hub.connection_stats())

    probe = CodecProbe()
    counts: Counter = Counter()
    per_cell: list = []
    alone: list = []
    set_codec_probe(probe)
    try:
        for j in range(width):
            cell = make_cell("serve-open", seed, j)
            frames, encodes = delivered(), probe.calls.get("codec.encode", 0)
            rec = await request(client, server, cell, clock(), True)
            alone.append(rec)
            row = {
                "cell": cell.cell_id,
                "encode_calls": probe.calls.get("codec.encode", 0) - encodes,
                "frames_delivered": delivered() - frames,
                "rounds": rec["result"].rounds,
            }
            per_cell.append(row)
            counts.update({key: v for key, v in row.items() if key != "cell"})
    finally:
        set_codec_probe(None)
    check_ms: list = []
    check_served(alone, [], tally, check_ms)

    half = seconds / 2
    plain, plain_failures, _, _ = await open_loop(client, server, seed, width, half, False)
    first = width + len(plain) + len(plain_failures)
    probe = CodecProbe()
    set_codec_probe(probe)
    try:
        records, failures, lags, start = await open_loop(client, server, seed, first, half, True)
    finally:
        set_codec_probe(None)
    queue_hwm = max(row["queue_hwm"] for row in server.hub.connection_stats())
    await close_serve(server, client)
    check_served(plain, plain_failures, tally, [])
    check_served(records, failures, tally, check_ms)

    submit, begin, finish, gaps = [], [], [], []
    for rec in records:
        root = spans.add("serve.request", rec["due"], rec["result_at"], cell=rec["cell"].cell_id)
        spans.add("serve.submit", rec["sent"], rec["accepted"], root)
        submit.append(rec["accepted"] - rec["sent"])
        updates, done_at = rec["updates"], rec["done_at"]
        if updates:
            spans.add("serve.start", rec["accepted"], updates[0], root)
            begin.append(updates[0] - rec["accepted"])
            gaps.extend(b - a for a, b in zip(updates, updates[1:]))
        if done_at is not None:
            spans.add("serve.run", updates[0] if updates else rec["accepted"], done_at, root)
            spans.add("serve.result", done_at, rec["result_at"], root)
            finish.append(rec["result_at"] - done_at)
    served = max(len(records), 1)
    traced_lat = [r["result_at"] - r["due"] for r in records]
    plain_lat = [r["result_at"] - r["due"] for r in plain]
    values = {
        "graphs.cold_build_ms": cold_ms,
        "properties.check_ms": median(check_ms),
        "codec.encode_calls": counts["encode_calls"],
        "codec.encode_ms": probe.seconds.get("codec.encode", 0.0) * 1e3 / served,
        "codec.decode_ms": probe.seconds.get("codec.decode", 0.0) * 1e3 / served,
        "transport.frames_delivered": counts["frames_delivered"],
        "transport.queue_hwm": queue_hwm,
        "runtime.rounds": counts["rounds"],
        "runtime.round_ms.p50": median(gaps) * 1e3,
        "runtime.round_ms.p90": p90(gaps) * 1e3,
        "serve.submit_ms": median(submit) * 1e3,
        "serve.start_ms": median(begin) * 1e3,
        "serve.result_ms": median(finish) * 1e3,
        "serve.active_max": max((r["active"] for r in records), default=0),
        "loadgen.lag_ms.max": max(lags) * 1e3,
        "trace.overhead_ratio": median(traced_lat) / median(plain_lat) if plain_lat else 0.0,
    }
    path = OUT / f"serve-open-seed{seed}.trace.json"
    spans.write(path, workload="serve-open", seed=seed, counted_cells=per_cell)
    runs_per_s, _ = served_rates(records, start)
    notes = [
        f"workload serve-open seed {seed}: traced pass",
        f"offered_rate {SERVE_RATE} 1/s, achieved_rate {runs_per_s} 1/s (traced half)",
    ]
    notes += [f"count {json.dumps(row)}" for row in per_cell]
    notes.append(f"spans {len(spans.items)} written to {path.relative_to(ROOT)}")
    emit(tally, values, PER_LAYER_UNITS, notes)


# -- entry point -------------------------------------------------------------------


async def serve_main(args) -> None:
    server, client = await setup_serve(args.seed)
    own = SETUP.total()
    if args.setup_probe:
        await close_serve(server, client)
        print(json.dumps({"setup_s": own}))
    elif args.trace:
        await trace_serve(args.seed, args.seconds, server, client)
    else:
        # The probes run before the window, while this server idles.
        setup_s = setup_samples("serve-open", args.seed, own)
        await measure_serve(args.seed, args.seconds, server, client, setup_s)


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if WORKLOADS[args.workload].backend == "serve":
        asyncio.run(serve_main(args))
        return 0
    setup_batch(args.workload, args.seed)
    own = SETUP.total()
    if args.setup_probe:
        print(json.dumps({"setup_s": own}))
    elif args.trace:
        trace_batch(args.workload, args.seed, args.seconds)
    else:
        setup_s = setup_samples(args.workload, args.seed, own)
        measure_batch(args.workload, args.seed, args.seconds, setup_s)
    return 0


if __name__ == "__main__":
    sys.exit(main())
