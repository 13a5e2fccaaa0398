"""Two dephasing qubits under random telegraph noise.

Analytic coherence factors, exact-jump Monte Carlo, the pixel-mask
kernel-sum channel with both local-to-global transition strategies, the
down-conversion spatial-correlation model, and coincidence/visibility
measurement including the correlated-pixel calibration.

The package root holds only ``__version__``; import the layer modules
(``ltgsim.analytic``, ``ltgsim.rtn``, ``ltgsim.slm``, ``ltgsim.optics``,
``ltgsim.measurement``, ``ltgsim.cli``) directly.
"""

__version__ = "0.1.0"
