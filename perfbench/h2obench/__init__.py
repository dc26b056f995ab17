"""Benchmark internals for perfbench/run.py."""
