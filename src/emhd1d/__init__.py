"""Pseudospectral laboratory for 1D nonlocal electron-MHD models."""

__version__ = "0.1.0"
