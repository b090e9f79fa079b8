"""Numerical laboratory for assignment maps in open quantum system dynamics.

Constructs linear, zero-discord, product, and broadcasting assignments,
certifies their linearity/consistency/positivity trade-offs, maps
compatibility domains, and tests complete positivity of the induced
dynamical maps.

Import each layer from its own module; the package namespace is empty.
"""
