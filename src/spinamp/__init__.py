"""Desk-scale simulation of a single-photon triggered first-order quantum
phase transition in an all-to-all coupled qubit amplifier."""

__version__ = "0.1.0"
