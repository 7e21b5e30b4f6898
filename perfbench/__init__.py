"""Benchmark harness for sentattn; `run.py` is the command."""
