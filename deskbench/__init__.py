"""Desk benchmark for the dcq package; see README.md in this directory."""
