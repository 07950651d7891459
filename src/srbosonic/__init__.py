"""Noise-assisted threshold detection on lossy bosonic channels.

Layers, bottom up: ``threshold`` (binary Gaussian threshold channels and
their information measures), ``schemes`` (the physical transmission
schemes and their forbidden-interval solvers), ``qubit`` (the encoded
qubit channel: fidelity and entanglement), ``fock`` (truncated
number-basis numerics for Gaussian states), ``private_rate`` (Holevo
leakage and the private-rate probe), ``cli`` (the ``srbosonic`` command).

Every name in a layer's ``__all__`` (and in ``errors``) is re-exported
here; ``srbosonic.private_rate`` is therefore the function, not the module.
"""

from . import errors, fock, private_rate, qubit, rootfind, schemes, threshold

__version__ = "0.1.0"

__all__ = ["__version__"]
for _module in (errors, threshold, rootfind, schemes, qubit, fock, private_rate):
    globals().update((name, getattr(_module, name)) for name in _module.__all__)
    __all__ += _module.__all__
del _module
