"""Multi-objective hardware-aware neural architecture search.

Searches a cell-based CNN space with one Gaussian-process surrogate per
objective (classification error, energy, inference time), proposes candidates
by expected hypervolume improvement, and takes measurements from pluggable
evaluators (a deterministic synthetic model, or external hardware via a file
protocol with power-trace post-processing).  The API lives in the submodules:
import from ``hwnas.optimize``, ``hwnas.gp`` and the rest, not from the package.
"""

__version__ = "0.1.0"
