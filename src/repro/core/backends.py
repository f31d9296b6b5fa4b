"""The registered index backends.

A leaf module so that the method modules can validate ``backend=``
without importing :mod:`repro.core.api`, which imports them.
"""

__all__ = ["BACKENDS"]

#: ``python`` probes the :class:`~repro.index.inverted.InvertedIndex`;
#: ``hybrid`` gives the flat framework methods the array index
#: (:class:`~repro.index.storage.HybridInvertedIndex`) and its kernel.
BACKENDS = ("python", "hybrid")
