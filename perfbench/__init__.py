"""End-to-end benchmark with a per-layer ledger; entry point ``run.py``."""
