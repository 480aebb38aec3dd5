"""fermap: fermion-to-qubit Hamiltonian transpilation and locality analysis."""

from .pauli import (
    DENSE_CAP_DEFAULT,
    DenseCapError,
    DimensionError,
    PauliString,
    QubitOperator,
)

__all__ = [
    "DENSE_CAP_DEFAULT",
    "DenseCapError",
    "DimensionError",
    "PauliString",
    "QubitOperator",
]

__version__ = "0.1.0"
