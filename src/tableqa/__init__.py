"""Question answering over CSV tables via LLM-generated plans in a
closed, loop-free table query language."""

__version__ = "0.1.0"
