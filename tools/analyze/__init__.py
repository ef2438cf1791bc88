"""bfce semantic invariant analyzer (`python3 tools/analyze`).

Rule families: RNG provenance, lock discipline, counter-addressed draw
discipline, suppression hygiene and determinism.  See docs/TOOLING.md for
the catalogue.
"""
