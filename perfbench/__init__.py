"""Repository benchmark package (see README.md)."""
