"""Admittance-controlled prosthetic ankle simulation and gait-stability
analysis: signal utilities, lookup-table engine, controllers, a closed-loop
plant with compliant ground, divergence exponents, margins of stability,
and quasi-stiffness profiles.

The package root exports nothing: import each name from the module that
defines it, so that a process loads only the modules it uses."""

__version__ = "0.1.0"
