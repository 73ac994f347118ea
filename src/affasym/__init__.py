"""Affine differential-geometric invariants of surfaces in 3-space, the
direction equation of their affine asymptotic lines, its singular points,
and the conormal-surface correspondence.

Importing the package loads no submodule; import the ones you use
(``from affasym import bde, surface``)."""

__version__ = "1.0.0"
