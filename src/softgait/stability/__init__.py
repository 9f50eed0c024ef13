"""Gait-stability analysis: delay embedding, divergence exponents,
margins of stability, and the statistics used to compare controllers.

Import each name from its module (`balance`, `embedding`, `lyapunov`,
`stats`); `AXES` alone is also importable from here."""

from .balance import AXES
