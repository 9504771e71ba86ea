"""Optional engine backends (see :mod:`repro.core.backend`).

Modules here may depend on extras (``repro[perf]`` for numpy); nothing
in the core import path imports them eagerly — the backend registry
resolves them lazily when selected.
"""
