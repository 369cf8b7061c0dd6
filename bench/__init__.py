"""The simulator's benchmark: ``python -m bench run|compare`` (see README.md)."""
