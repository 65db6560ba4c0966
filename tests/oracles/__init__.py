"""Test oracles: straight-line implementations that product code is
checked against, kept out of ``src/`` because nothing ships them."""

from tests.oracles.reference_sim import ReferenceSimulator

__all__ = ["ReferenceSimulator"]
