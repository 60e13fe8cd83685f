"""Small shared utilities used across the repro packages."""
