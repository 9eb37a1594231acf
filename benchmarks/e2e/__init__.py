"""End-to-end and per-layer benchmark through the live campaign daemon.

See ``README.md`` in this directory; ``benchmarks/perf`` remains the
kernel micro-ledger.
"""
