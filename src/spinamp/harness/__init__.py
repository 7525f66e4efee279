"""Experiment registry, configuration, serialization, and the full-space oracle."""
