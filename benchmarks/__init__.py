"""Benchmark of the stirperm command line; see run.py."""
