"""Internet-scale measurement harness (paper Section 5)."""
