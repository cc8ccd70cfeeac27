"""Benchmark of the shiftrules command-line paths; see README.md."""
