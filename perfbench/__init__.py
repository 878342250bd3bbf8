"""A benchmark of the spanner reproduction: see README.md and run.py."""
