"""Matchings, deficiency bounds and charging-scheme verification for 1-planar graphs."""
