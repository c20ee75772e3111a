"""Bottom-layer package for the suppressed-edge fixture."""
