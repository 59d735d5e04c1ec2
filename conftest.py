"""Repository-level pytest configuration.

Ensures ``src/`` is importable even when the package has not been pip-installed
(useful on offline machines where editable installs are unavailable); an
installed ``repro`` package, if present, still takes precedence only if it is
the same source tree thanks to the editable install pointing here.

Markers
-------

* ``bench`` — automatically applied to everything under ``benchmarks/``
  (the pytest-benchmark experiment regenerations, which dominate the suite's
  runtime).  Skip them for a fast signal with ``pytest -m "not bench"``; run
  only them with ``pytest -m bench benchmarks/``.
* ``perf`` — wall-clock performance comparisons with timing assertions.
  These are skipped unless ``--perf`` is passed, so an otherwise-loaded
  machine cannot flake the default suite: ``pytest --perf benchmarks/``.

Fixtures
--------

* ``reference_record`` — ``spec -> RunRecord`` through ``run_circles`` /
  ``run_protocol`` directly, the independent reference the executor's spec
  pipeline is checked against.
"""

import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent
_SRC = _ROOT / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


def pytest_addoption(parser):
    parser.addoption(
        "--perf",
        action="store_true",
        default=False,
        help="run wall-clock performance comparison tests (marker: perf)",
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "bench: pytest-benchmark experiment regeneration (deselect with -m 'not bench')",
    )
    config.addinivalue_line(
        "markers",
        "perf: wall-clock performance comparison; skipped unless --perf is given",
    )


def pytest_collection_modifyitems(config, items):
    benchmarks_dir = _ROOT / "benchmarks"
    skip_perf = pytest.mark.skip(reason="performance comparison; run with --perf")
    run_perf = config.getoption("--perf")
    for item in items:
        if Path(str(item.fspath)).is_relative_to(benchmarks_dir):
            item.add_marker(pytest.mark.bench)
        if not run_perf and "perf" in item.keywords:
            item.add_marker(skip_perf)


def _reference_record(spec):
    """Execute a ``"protocol"``-runner spec through the public run API.

    Written out here rather than borrowed from :mod:`repro.api.executor`, so
    identity tests compare the executor's pipeline with an independent
    resolution of the same spec.  Covers the specs the lockstep path
    takes: no scheduler, no observers.
    """
    from repro.api.executor import build_criterion, resolve_workload
    from repro.api.records import RunRecord
    from repro.protocols.registry import get_protocol
    from repro.simulation.runner import run_circles, run_protocol

    assert spec.runner == "protocol" and spec.scheduler is None and not spec.observers
    colors = resolve_workload(spec)
    common = dict(
        max_steps=spec.max_steps, seed=spec.seed, engine=spec.engine, compiled=spec.compiled
    )
    if spec.protocol == "circles" and spec.criterion is None:
        result = run_circles(
            colors, num_colors=spec.k, variant=spec.protocol_params.get("variant"), **common
        )
    else:
        protocol = get_protocol(spec.protocol, spec.k, **dict(spec.protocol_params))
        criterion = build_criterion(spec.criterion) if spec.criterion is not None else None
        result = run_protocol(protocol, colors, criterion=criterion, **common)
    return RunRecord.from_result(spec, result)


@pytest.fixture(scope="session")
def reference_record():
    """``spec -> RunRecord`` via ``run_circles`` / ``run_protocol``."""
    return _reference_record
