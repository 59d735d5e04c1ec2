"""The repository benchmark: workloads, harness, tracing and comparison.

Entry point: ``python3 perfbench/run.py --help``.
"""
