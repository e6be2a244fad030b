"""Two-clock benchmark of the BaGuaLu reproduction (see bench/README.md)."""
