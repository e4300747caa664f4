"""Benchmark harness for nlpflow; see run.py for the command line."""
