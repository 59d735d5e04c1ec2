"""Record pins: the executor reproduces records written by an earlier commit.

The identity tests in ``test_replicate_groups.py`` compare the executor with
the engine-level run API on the *same* source tree, so a change that moves
both in step (a reordered draw, a renumbered state) passes them.  Stored
results, though, are keyed by spec and trusted across commits: a warm store
entry is only right while the same spec still produces the same record.
This module pins ``RunRecord.to_dict()`` for a fixed spec set in
``tests/golden/records/records.json`` and checks that :func:`execute_run`
and :func:`execute_replicate_group` reproduce every entry exactly.

The spec set covers every registry protocol for k ∈ {2, 3}; populations
n = 5 (sequential stepping), 16, 17, 64, 128 (pool bursts) and 4096 (the
pair-code kernel); the default, ``output-consensus`` and ``silent``
criteria; ``compiled`` None/False and the batch/vector engines in rotation;
tied and untied workloads; singles and one replicate group of three per
protocol point.  Kernel cases skip without numpy.

A deliberate change to what a spec produces must regenerate the file (and
say why in the change log)::

    PYTHONPATH=src python tests/api/test_record_pins.py
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.api.executor import execute_replicate_group, execute_run
from repro.api.spec import RunSpec
from repro.protocols.registry import DEFAULT_REGISTRY, get_protocol
from repro.simulation.batch_engine import NUMPY_BURST_THRESHOLD

PIN_FILE = Path(__file__).resolve().parent.parent / "golden" / "records" / "records.json"

#: ``(n, workload, budget)`` per population: budgets are capped so the pin
#: set stays cheap, but long enough for most untied runs to converge.
_POPULATIONS = (
    (5, "planted-majority", 2_000),
    (16, "exact-tie", 3_000),
    (17, "near-tie", 3_000),
    (64, "planted-majority", 12_000),
    (128, "uniform", 20_000),
    (4_096, "zipf", 12_000),
)
_CRITERIA = (None, "output-consensus", "silent")


def _points() -> list[tuple[str, int]]:
    points = []
    for name in DEFAULT_REGISTRY.names():
        for k in (2, 3):
            try:
                get_protocol(name, k)
            except ValueError:
                continue
            points.append((name, k))
    return points


def pinned_cases() -> list[tuple[str, list[RunSpec]]]:
    """``(case id, specs)``: one spec per single, three per replicate group."""
    cases = []
    for name, k in _points():
        index = 0
        for n, workload, budget in _POPULATIONS:
            for criterion in _CRITERIA:
                spec = RunSpec(
                    protocol=name,
                    n=n,
                    k=k,
                    workload=workload,
                    engine=("batch", "vector")[index % 2],
                    compiled=None if n >= NUMPY_BURST_THRESHOLD or index % 4 < 2 else False,
                    criterion=criterion,
                    max_steps=budget,
                    seed=31 + index,
                    workload_seed=7,
                )
                cases.append((f"{name}-k{k}-n{n}-{criterion or 'default'}-{index}", [spec]))
                index += 1
        group = RunSpec(
            protocol=name, n=64, k=k, max_steps=12_000, seed=901, workload_seed=7
        )
        cases.append(
            (
                f"{name}-k{k}-n64-group",
                [group, replace(group, seed=902), replace(group, seed=903)],
            )
        )
    return cases


def _execute(specs: list[RunSpec]) -> list[dict]:
    records = [execute_run(specs[0])] if len(specs) == 1 else execute_replicate_group(specs)
    # A JSON round trip, so the comparison sees exactly what the file holds.
    return json.loads(json.dumps([record.to_dict() for record in records]))


def _load_pins() -> dict[str, list[dict]]:
    return json.loads(PIN_FILE.read_text())


_CASES = pinned_cases()


def test_pin_file_covers_the_spec_set():
    """The pinned case ids are exactly the current spec set's."""
    assert sorted(_load_pins()) == sorted(case_id for case_id, _ in _CASES), (
        "record pins are out of sync with the spec set; regenerate with: "
        "PYTHONPATH=src python tests/api/test_record_pins.py"
    )


@pytest.fixture(scope="module")
def pins() -> dict[str, list[dict]]:
    return _load_pins()


@pytest.mark.parametrize("kernel", [False, True], ids=["pool", "kernel"])
@pytest.mark.parametrize("name,k", _points())
def test_records_match_their_pins(name, k, kernel, pins):
    """Every case of one protocol point reproduces its pinned records.

    Kernel-path cases (n ≥ ``NUMPY_BURST_THRESHOLD``) need numpy: without
    it the batch engine samples the same chain on another path, so its
    records legitimately differ.
    """
    if kernel:
        pytest.importorskip("numpy")
    prefix = f"{name}-k{k}-"
    cases = [
        (case_id, specs)
        for case_id, specs in _CASES
        if case_id.startswith(prefix) and (specs[0].n >= NUMPY_BURST_THRESHOLD) == kernel
    ]
    assert cases
    for case_id, specs in cases:
        assert _execute(specs) == pins[case_id], case_id


def _write_pins() -> None:
    # One case per line, so a drift shows up as a readable line diff.
    lines = [
        f"{json.dumps(case_id)}: {json.dumps(_execute(specs), sort_keys=True)}"
        for case_id, specs in _CASES
    ]
    PIN_FILE.parent.mkdir(parents=True, exist_ok=True)
    PIN_FILE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(lines)} cases to {PIN_FILE}")


if __name__ == "__main__":
    _write_pins()
