"""Spiking neural network compiler and simulator.

Describe a network as a ModelGraph, compile it (encoder sampling, gain/bias
solving, regularized least-squares decoders, weight folding) to a reference
or fixed-point backend, and step it in fixed dt increments with online PES
learning.  Two closed-loop benchmark tasks (a target-seeking rover and an
adaptive arm controller) plus a dense-net spiking conversion exercise the
pipeline end to end.

The names below are imported from their submodules on first use (PEP 562),
so importing the package loads no numerical library: the command line sets
its BLAS thread count before numpy starts.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {name: module for module, names in (
    ("build", "FIXED_POINT REFERENCE CompiledModel activity_matrix compile_graph "
              "fold_weights lower sample_encoders sample_eval_points solve_decoders"),
    ("engine", "Simulator adapt_signal pes_update"),
    ("graph", "ConnectionSpec Ensemble ExplicitTuning ModelGraph NodeSpec PESConfig "
              "ProbeSpec"),
    ("neurons", "NeuronParams QuantizationSpec lif_rate neuron_step quantize_weights "
                "relu_rate solve_gain_bias"),
) for name in names.split()}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
