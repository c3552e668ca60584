"""Certified construction of the nine-fold structures inside the E8 lattice."""
