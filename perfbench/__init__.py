"""End-to-end order-exchange benchmark for the B2B hub (see README.md)."""
