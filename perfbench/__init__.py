"""Layered host-time benchmark of the LaPerm reproduction (see README.md)."""
