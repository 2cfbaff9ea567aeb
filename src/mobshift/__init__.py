"""Finite-truncation certification toolkit for the unitary representation
families of the disc-automorphism cover group and the homogeneous weighted
shift operators attached to them.

The package is imported by module (``from mobshift.repn import Realization``);
it re-exports nothing."""

__version__ = "0.1.0"
