"""wsganlab — a desk-scale lab for weakly supervised GANs.

Numpy only: a tiny reverse-mode autodiff engine, programmatic weak
supervision (label matrices, majority vote, Dawid-Skene, weighted-softmax
label models), an InfoGAN-style generative model whose latent code is aligned
with labeling-function output, evaluation metrics, numerical checks for the
accompanying error bounds, and an experiment harness with a CLI.  Import
each name from its module; the root holds `__version__` and the modules only.
"""

__version__ = "0.1.0"

from . import autodiff, data, harness, labelmodel, metrics, nn, theory, wsgan
