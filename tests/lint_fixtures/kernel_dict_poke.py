"""Fixture: direct kernel-dict pokes the ``kernel-registry`` rule flags.

Callers must resolve kernels through ``get_kernel(name)`` — dict
subscripts skip the registry's validation.
"""

from repro.smvp import kernels
from repro.smvp.kernels import KERNEL_REGISTRY


def registry_poke(matrix):
    kernel = KERNEL_REGISTRY["bsr3x3"]
    return kernel.prepare(matrix)


def attribute_poke(matrix):
    return kernels.KERNEL_REGISTRY["python-csr"].prepare(matrix)


def sanctioned_lookup(name):
    """The registry API is the clean path — no finding here."""
    return kernels.get_kernel(name)
