"""Wall-clock benchmark of the reproduction (see README.md)."""
