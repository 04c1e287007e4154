"""p-adic measure toolkit for coefficient families on unitary groups.

The package provides exact CM field arithmetic, capped-precision p-adic
numbers, locally constant coset functions, and the coefficient-level
operations built on them: expansions, cusp re-indexing, moments against
polynomial multipliers, and weight congruence checks.

``import eismeasure`` loads no submodule: each name is imported from its
module (``from eismeasure.fields import FieldData``), so
``eismeasure.automorphy`` loads only ``errors`` and numpy.
"""
