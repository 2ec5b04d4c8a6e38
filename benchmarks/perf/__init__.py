"""The repo's performance benchmark (see README.md and /BENCHMARK.json).

Self-contained: nothing under ``src/`` knows about this package.  Layers
are measured from outside, by timing calls into their public functions.
"""
