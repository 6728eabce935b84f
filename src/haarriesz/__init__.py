"""Desk-scale workbench for dyadic Haar projections, Riesz transforms,
multiscale operator decompositions and their interpolatory estimates.

``import haarriesz`` imports neither numpy nor a layer module: every name
is imported from the module that defines it, e.g. ``haarriesz.haar``."""

__version__ = "0.1.0"
