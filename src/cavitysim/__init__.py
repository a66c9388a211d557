"""Truncated-Fock-space simulator for geometric phase gates on bosonic logical qubits."""
