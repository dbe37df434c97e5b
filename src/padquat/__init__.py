"""Bi-periodic Padovan/Perrin sequences and their quaternions over Z_p,
with an exhaustive zero-divisor verification harness."""

__version__ = "0.1.0"
