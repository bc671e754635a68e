"""The budget benchmark: absolute end-to-end numbers and a per-layer trace.

See ``README.md`` in this directory and ``BENCHMARK.json`` at the repo root.
"""
