"""Deterministic simulator for federated self-supervised learning under
heterogeneous low-bitwidth training, plus diagnostics that check the
quantization-error, convergence, and representability behavior of the
scheme empirically.

Subpackages/modules:

- quantkit: codebooks and stochastic (de)quantization primitives
- datagen: synthetic heterogeneous client datasets and covariances
- sslcore: the spectral SSL objective, gradients, optima, representability
- client: low-bitwidth local training loop
- server: de-quantize / aggregate / re-quantize round logic
- analysis: variance probes, Moreau-envelope surrogate, bound evaluation
- config / experiment / cli: experiment orchestration
"""

__version__ = "0.1.0"

# The only rounding-kernel backend: fedq._kernels is numpy code.
kernel_backend = "numpy"

__all__ = ["kernel_backend", "__version__"]
