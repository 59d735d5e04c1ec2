"""The benchmark workloads.

Each workload is a closed loop with one caller: a *pass* makes the
workload's operations one after another, each waiting for the previous
reply, and every pass of a run repeats the same inputs.  All inputs derive
from the ``--seed`` argument through :func:`derive`; the library only ever
sees the generated specs and colors.

``BENCHMARK.json`` names two workloads, each a :class:`Composite` whose
pass makes one pass of each of its parts in turn:

* ``simulate`` — the sampling side:

  * ``run-large`` — three ``execute_run`` calls on the batch engine at
    n = 100 000 with a fixed budget: above the engine's numpy kernel
    threshold, so the pair-code kernel runs, and the O(n) per-run costs
    (input generation, engine set-up, energy, observers) show.
  * ``sweep-converge`` — a serial ``run_sweep`` to convergence at n = 64
    and 128 into a fresh result store: below the kernel threshold, so pool
    bursts, criterion checks, per-run fixed costs and store writes dominate.

* ``serve-solve`` — the store-reading and exact side:

  * ``service-replay`` — an in-process ``SweepService`` on a store filled
    during set-up, driven over HTTP on 127.0.0.1: store reads, HTTP/NDJSON
    framing and asyncio-executor dispatch, with little simulation.
  * ``exact-solve`` — two exact analyses: a tied input whose symmetry
    quotient folds the chain and is solved in rationals, and an untied input
    with a trivial stabilizer solved by the sparse float backend.

The parts also run alone under their own names, to look at one of them.

``scale="tiny"`` shrinks every size so the whole set runs in seconds (the
benchmark's own tests); the checks stay the same except for the exact
expected values, which are pinned per scale.

The library is imported inside the workloads, not at module import, so
the set-up time measured by the harness includes importing it.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import random
import shutil
import sys
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any

#: Per-request timeout of the service client, in seconds.
HTTP_TIMEOUT_S = 60.0


def derive(seed: int, tag: str) -> int:
    """A 63-bit child seed of ``seed`` for one named input."""
    digest = hashlib.sha256(f"perfbench:{seed}:{tag}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass
class Pass:
    """What one pass did, measured and raw (checked after the timed region)."""

    wall_s: float = 0.0
    #: Latency of every request the caller issued, in the order they were sent.
    latencies_s: list[float] = field(default_factory=list)
    #: Records (or analyses) delivered to the caller.
    records: int = 0
    #: Interactions simulated.
    interactions: int = 0
    #: Operations attempted, by id.
    ops: list[str] = field(default_factory=list)
    #: Failed operation id -> the first failure found for it.
    failures: dict[str, str] = field(default_factory=dict)
    #: Operation id -> output that every pass of the same seed must repeat.
    outputs: dict[str, Any] = field(default_factory=dict)
    #: Workload-specific raw material for :meth:`Workload.check`.
    raw: list[Any] = field(default_factory=list)
    #: Extra timings reported alongside the metrics.
    extra: dict[str, float] = field(default_factory=dict)

    def fail(self, op: str, message: str | None) -> None:
        """Count ``op`` as failed (once) when ``message`` is not None."""
        if message is not None:
            self.failures.setdefault(op, message)


class Workload:
    """Base class: inputs from a seed, a fixture, repeated passes, checks."""

    name = ""

    def __init__(self, seed: int, workdir: Path, scale: str = "full") -> None:
        self.seed = seed
        self.workdir = Path(workdir)
        self.tiny = scale == "tiny"
        self.tracer = None

    def setup(self) -> None:
        """Build the fixture and warm the process caches (timed as set-up)."""

    def run_pass(self, index: int) -> Pass:
        raise NotImplementedError

    def check(self, result: Pass) -> None:
        """Record a failure in ``result`` for every operation whose output is wrong."""

    def close(self) -> None:
        """Release the fixture (servers, temporary stores)."""

    def _scope(self, label: str) -> None:
        if self.tracer is not None:
            self.tracer.scope = label


def _circles_failure(record) -> str | None:
    """The output checks every sampled Circles record must pass."""
    if not record.protocol_name.startswith("circles"):
        return None
    if record.spec.criterion is None:
        if record.initial_energy is None or record.final_energy is None:
            return "circles record lacks energies"
        if record.final_energy > record.initial_energy:
            return (f"final energy {record.final_energy} exceeds initial "
                    f"energy {record.initial_energy}")
    if record.converged and record.majority is not None and not record.correct:
        return "converged on a unique-majority input but not correct"
    return None


class RunLarge(Workload):
    name = "run-large"

    def __init__(self, seed: int, workdir: Path, scale: str = "full") -> None:
        super().__init__(seed, workdir, scale)
        from repro.api.spec import RunSpec

        n, budget = (5_000, 20_000) if self.tiny else (100_000, 2_000_000)
        common = dict(
            n=n,
            engine="batch",
            max_steps=budget,
            seed=derive(seed, "run-large:run"),
            workload_seed=derive(seed, "run-large:input"),
        )
        self.specs = {
            "circles": RunSpec(protocol="circles", k=4, **common),
            "circles-output-consensus": RunSpec(
                protocol="circles", k=4, criterion="output-consensus", **common
            ),
            "tournament-plurality": RunSpec(protocol="tournament-plurality", k=3, **common),
        }

    def setup(self) -> None:
        from dataclasses import replace

        from repro.api.executor import execute_run

        # Small runs of the same protocols fill the compile and numpy-table
        # caches; n stays above the kernel threshold so that path warms too.
        for spec in self.specs.values():
            execute_run(replace(spec, n=4_096, max_steps=4_096))

    def _execute(self, spec):
        from repro.api.executor import execute_run

        return execute_run(spec)

    def run_pass(self, index: int) -> Pass:
        result = Pass()
        start = perf_counter()
        for label, spec in self.specs.items():
            self._scope(label)
            result.ops.append(label)
            began = perf_counter()
            try:
                record = self._execute(spec)
            except Exception as error:  # noqa: BLE001 - counted as a failed operation
                result.fail(label, f"{type(error).__name__}: {error}")
                record = None
            result.latencies_s.append(perf_counter() - began)
            result.raw.append((label, spec, record))
        result.wall_s = perf_counter() - start
        for label, spec, record in result.raw:
            if record is not None:
                result.records += 1
                result.interactions += record.steps
                result.outputs[label] = record.to_dict()
        return result

    def check(self, result: Pass) -> None:
        for label, spec, record in result.raw:
            if record is None:
                continue
            if record.spec != spec:
                result.fail(label, "record spec differs from the request")
            if not record.converged and record.steps != spec.max_steps:
                result.fail(label, f"{record.steps} steps, budget {spec.max_steps}")
            result.fail(label, _circles_failure(record))


class SweepConverge(Workload):
    name = "sweep-converge"

    def __init__(self, seed: int, workdir: Path, scale: str = "full") -> None:
        super().__init__(seed, workdir, scale)
        from repro.api.spec import SweepSpec

        self.sweep = SweepSpec(
            protocols=("circles", "tournament-plurality"),
            populations=(16,) if self.tiny else (64, 128),
            ks=(3,),
            engines=("batch",),
            trials=2 if self.tiny else 16,
            seed=derive(seed, "sweep-converge"),
            name="perfbench-sweep-converge",
        )
        self.specs = self.sweep.expand()

    def setup(self) -> None:
        from dataclasses import replace

        from repro.api.executor import run_sweep
        from repro.service.store import ResultStore

        warm = replace(self.sweep, populations=(16,), trials=2)
        with tempfile.TemporaryDirectory(dir=self.workdir) as directory:
            run_sweep(warm, store=ResultStore(directory))

    def run_pass(self, index: int) -> Pass:
        from repro.api.executor import run_sweep
        from repro.service.store import ResultStore

        result = Pass()
        directory = tempfile.mkdtemp(prefix=f"sweep-{index}-", dir=self.workdir)
        self._scope("sweep")
        # Every run of the sweep is one operation.
        result.ops = [f"run {i}" for i in range(len(self.specs))]
        start = perf_counter()
        try:
            store = ResultStore(directory)
            records = run_sweep(self.sweep, store=store).records
        except Exception as error:  # noqa: BLE001 - every run of the sweep failed
            records = []
            for op in result.ops:
                result.fail(op, f"sweep raised {type(error).__name__}: {error}")
        result.wall_s = perf_counter() - start
        result.latencies_s.append(result.wall_s)
        result.records = len(records)
        result.interactions = sum(record.steps for record in records)
        result.outputs = {op: record.to_dict() for op, record in zip(result.ops, records)}
        result.raw = [(directory, records)]
        return result

    def check(self, result: Pass) -> None:
        from repro.service.store import ResultStore

        directory, records = result.raw[0]
        for op in result.ops[len(records):]:
            result.fail(op, "missing from the sweep result")
        if records:
            store = ResultStore(directory)
            for op, spec, record in zip(result.ops, self.specs, records):
                if record.spec != spec:
                    result.fail(op, "record spec differs from the sweep's")
                if store.get(spec) != record:
                    result.fail(op, "the store does not hold the returned record")
                result.fail(op, _circles_failure(record))
        shutil.rmtree(directory, ignore_errors=True)


class ServiceReplay(Workload):
    name = "service-replay"

    #: Share of ``/run`` requests that name a spec not yet in the store.
    FRESH_SHARE = 0.05

    def __init__(self, seed: int, workdir: Path, scale: str = "full") -> None:
        super().__init__(seed, workdir, scale)
        from repro.api.spec import SweepSpec

        self.stored_sweep = SweepSpec(
            protocols=("circles",),
            populations=(32, 64),
            ks=(2, 3),
            engines=("batch",),
            trials=5 if self.tiny else 250,
            max_steps=256,
            seed=derive(seed, "service-replay:stored"),
            name="perfbench-service-replay",
        )
        self.stored_specs = self.stored_sweep.expand()
        self.requests = 20 if self.tiny else 1000
        plan = random.Random(derive(seed, "service-replay:plan"))
        fresh = set(plan.sample(range(self.requests), round(self.FRESH_SHARE * self.requests)))
        #: Per request: an index into ``stored_specs``, or None for a fresh spec.
        self.plan = [
            None if i in fresh else plan.randrange(len(self.stored_specs))
            for i in range(self.requests)
        ]
        self.server = None
        self._thread: threading.Thread | None = None

    def fresh_spec(self, pass_index: int, request: int):
        from repro.api.spec import RunSpec

        return RunSpec(
            protocol="circles",
            n=64,
            k=3,
            engine="batch",
            max_steps=1_024,
            seed=derive(self.seed, f"service-replay:fresh:{pass_index}:{request}"),
            workload_seed=derive(self.seed, f"service-replay:fresh-input:{request}"),
        )

    def setup(self) -> None:
        from repro.api.executor import run_sweep
        from repro.service.serve import SweepService, serve
        from repro.service.store import ResultStore

        # The request handler logs one line per request to stderr; the
        # formatting cost stays, the lines go nowhere.
        self._stderr = sys.stderr
        sys.stderr = open(os.devnull, "w", encoding="utf-8")
        self.store_dir = tempfile.mkdtemp(prefix="service-store-", dir=self.workdir)
        store = ResultStore(self.store_dir)
        records = run_sweep(self.stored_sweep, store=store).records
        # Compared with responses in their JSON form (tuples become lists).
        self.stored = {
            record.spec.sha(): json.loads(json.dumps(record.to_dict())) for record in records
        }
        workers = min(4, os.cpu_count() or 1)
        self.service = SweepService(store, workers=workers)
        self.server = serve(self.service, "127.0.0.1", 0)
        self.port = self.server.server_address[1]
        self._thread = threading.Thread(
            target=self.server.serve_forever, name="perfbench-service", daemon=True
        )
        self._thread.start()
        # One fresh and one stored request warm the executor and the handler.
        for spec in (self.fresh_spec(-1, 0), self.stored_specs[0]):
            status, body = self._post("/run", spec.to_json())
            if status != 200:
                raise RuntimeError(f"service warm-up failed with HTTP {status}: {body[:200]!r}")

    def _post(self, path: str, body: str) -> tuple[int, bytes]:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=HTTP_TIMEOUT_S)
        try:
            connection.request(
                "POST", path, body=body.encode(), headers={"Content-Type": "application/json"}
            )
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def run_pass(self, index: int) -> Pass:
        result = Pass()
        self._scope("service")
        requests = [
            (self.fresh_spec(index, i) if choice is None else self.stored_specs[choice],
             choice is None)
            for i, choice in enumerate(self.plan)
        ]
        bodies = [spec.to_json() for spec, _ in requests]
        sweep_body = self.stored_sweep.to_json()
        start = perf_counter()
        for number, ((spec, fresh), body) in enumerate(zip(requests, bodies)):
            began = perf_counter()
            response = self._request("/run", body)
            result.latencies_s.append(perf_counter() - began)
            result.raw.append((f"run {number}", spec, fresh, response))
        began = perf_counter()
        response = self._request("/sweep", sweep_body)
        sweep_s = perf_counter() - began
        result.wall_s = perf_counter() - start
        result.raw.append(("sweep", None, False, response))
        result.extra["sweep_stream_s"] = sweep_s
        result.extra["client_s"] = sum(result.latencies_s) + sweep_s
        for op, spec, fresh, (status, body) in result.raw:
            result.ops.append(op)
            if status == 200:
                result.records += body.count(b"\n")
            if not fresh:
                result.outputs[op] = body
        return result

    def _request(self, path: str, body: str) -> tuple[int | None, bytes]:
        """``_post``, with a transport error turned into a failed response."""
        try:
            return self._post(path, body)
        except (OSError, http.client.HTTPException) as error:
            return None, f"{type(error).__name__}: {error}".encode()

    def check(self, result: Pass) -> None:
        from repro.api.records import RunRecord

        for op, spec, fresh, (status, body) in result.raw:
            if status != 200:
                result.fail(op, f"HTTP {status}: {body[:200]!r}")
                continue
            try:
                envelopes = [json.loads(line) for line in body.splitlines() if line.strip()]
            except json.JSONDecodeError as error:
                result.fail(op, f"bad NDJSON: {error}")
                continue
            errors = [envelope["error"] for envelope in envelopes if "error" in envelope]
            if errors:
                result.fail(op, errors[0])
            elif spec is None:
                result.fail(op, self._sweep_failure(envelopes))
            else:
                result.fail(op, self._run_failure(spec, fresh, envelopes, RunRecord))

    def _run_failure(self, spec, fresh, envelopes, record_type) -> str | None:
        if len(envelopes) != 1:
            return f"{len(envelopes)} envelopes, expected 1"
        envelope = envelopes[0]
        record_dict = envelope["record"]
        record = record_type.from_dict(record_dict)
        if record.spec != spec:
            return "response is for another spec"
        if not fresh:
            if not envelope["cached"] or record_dict != self.stored[spec.sha()]:
                return "warm response differs from the stored record"
            return None
        if envelope["cached"]:
            return "a fresh spec was served from the cache"
        if self.service.store.get(spec) != record:
            return "the fresh record was not stored"
        return _circles_failure(record)

    def _sweep_failure(self, envelopes) -> str | None:
        if len(envelopes) != len(self.stored_specs):
            return f"{len(envelopes)} records, expected {len(self.stored_specs)}"
        for envelope, spec in zip(sorted(envelopes, key=lambda e: e["index"]), self.stored_specs):
            if not envelope["cached"] or envelope["record"] != self.stored[spec.sha()]:
                return f"streamed record {envelope['index']} differs from the store"
        return None

    def close(self) -> None:
        if self.server is not None:
            self.server.shutdown()
            self.server.server_close()
            self._thread.join(timeout=30)
            self.server = None
        if getattr(self, "store_dir", None):
            shutil.rmtree(self.store_dir, ignore_errors=True)
        if getattr(self, "_stderr", None) is not None:
            sys.stderr.close()
            sys.stderr, self._stderr = self._stderr, None


class ExactSolve(Workload):
    name = "exact-solve"

    def __init__(self, seed: int, workdir: Path, scale: str = "full") -> None:
        super().__init__(seed, workdir, scale)
        from repro.workloads.registry import DEFAULT_WORKLOADS

        if self.tiny:
            self.tied_k, self.tied = 2, (0, 0, 0, 1, 1, 1)
            #: Pinned by the repository's golden file for this case.
            self.tied_expected = "245/12"
            untied_n = 6
        else:
            self.tied_k, self.tied = 3, (0, 0, 1, 1, 2, 2)
            self.tied_expected = "335/14"
            untied_n = 9
        self.untied = tuple(
            DEFAULT_WORKLOADS.generate(
                "planted-majority", untied_n, 3, seed=derive(seed, "exact-solve:untied")
            )
        )

    def setup(self) -> None:
        from repro import CirclesProtocol
        from repro.exact import ExactMarkovEngine
        from repro.simulation.convergence import StableCircles

        # Warms the compile and symmetry caches for both protocols' state sets.
        for k in sorted({self.tied_k, 3}):
            engine = ExactMarkovEngine.from_colors(CirclesProtocol(k), list(range(k)) * 2)
            engine.run(0, criterion=StableCircles())

    def _analyses(self):
        from repro import CirclesProtocol
        from repro.exact.solve import practical_max_transient

        return (
            ("tied-rational", CirclesProtocol(self.tied_k), self.tied,
             {"arithmetic": "exact"}),
            ("untied-float", CirclesProtocol(3), self.untied,
             {"max_transient": practical_max_transient()}),
        )

    def run_pass(self, index: int) -> Pass:
        from repro.exact import ExactMarkovEngine
        from repro.simulation.convergence import StableCircles

        result = Pass()
        analyses = self._analyses()
        start = perf_counter()
        for label, protocol, colors, options in analyses:
            self._scope(label)
            result.ops.append(label)
            began = perf_counter()
            try:
                engine = ExactMarkovEngine.from_colors(protocol, colors, **options)
                engine.run(0, criterion=StableCircles())
                outcome = engine.distribution_result
            except Exception as error:  # noqa: BLE001 - counted as a failed operation
                result.fail(label, f"{type(error).__name__}: {error}")
                outcome = None
            result.latencies_s.append(perf_counter() - began)
            result.raw.append((label, outcome))
        result.wall_s = perf_counter() - start
        for label, outcome in result.raw:
            if outcome is not None:
                result.records += 1
                result.outputs[label] = outcome.to_dict()
        return result

    def check(self, result: Pass) -> None:
        for label, outcome in result.raw:
            if outcome is None:
                continue
            if label == "tied-rational":
                if outcome.expected_interactions_exact != self.tied_expected:
                    result.fail(label, f"expected interactions "
                                f"{outcome.expected_interactions_exact}, want {self.tied_expected}")
            elif outcome.correctness_probability != 1.0:
                result.fail(label, f"correctness probability "
                            f"{outcome.correctness_probability}, want 1")


class Composite(Workload):
    """Several workloads as one: a pass makes one pass of each part in turn.

    Operation ids are prefixed with the part's name; the pass time is the
    sum of the parts' timed regions.
    """

    parts: tuple[type[Workload], ...] = ()

    def __init__(self, seed: int, workdir: Path, scale: str = "full") -> None:
        super().__init__(seed, workdir, scale)
        self.members = [part(seed, workdir, scale) for part in self.parts]

    def setup(self) -> None:
        for member in self.members:
            member.setup()

    def run_pass(self, index: int) -> Pass:
        result = Pass()
        for member in self.members:
            member.tracer = self.tracer
            part = member.run_pass(index)
            result.wall_s += part.wall_s
            result.latencies_s += part.latencies_s
            result.records += part.records
            result.interactions += part.interactions
            result.ops += [f"{member.name} {op}" for op in part.ops]
            result.outputs.update(
                (f"{member.name} {op}", output) for op, output in part.outputs.items()
            )
            result.extra.update(part.extra)
            result.raw.append((member, part))
        return result

    def check(self, result: Pass) -> None:
        for member, part in result.raw:
            member.check(part)
            for op, message in part.failures.items():
                result.fail(f"{member.name} {op}", message)

    def close(self) -> None:
        for member in reversed(self.members):
            member.close()


class Simulate(Composite):
    name = "simulate"
    parts = (RunLarge, SweepConverge)


class ServeSolve(Composite):
    name = "serve-solve"
    parts = (ServiceReplay, ExactSolve)


#: The workloads ``BENCHMARK.json`` names, in its order.
BENCHMARK_WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (Simulate, ServeSolve)
}
#: Every workload the harness runs: the benchmark's and their parts.
WORKLOADS: dict[str, type[Workload]] = {
    **BENCHMARK_WORKLOADS,
    **{cls.name: cls for cls in (RunLarge, SweepConverge, ServiceReplay, ExactSolve)},
}
