"""Exact-arithmetic toolkit for parafermion coset algebras: truncated
q-series characters, lattice Fock-space mode computations, string functions
by two independent routes, simple-module label arithmetic and the
identification of the coset and minimal-series W-algebra module families."""
