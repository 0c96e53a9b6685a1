"""Finite-instance verification that products and coproducts merge into
biproducts whenever a weakly unital tensor distributes over both.

The construction runs inside concrete categories (boolean relations,
matrices over a semiring, ordered integers, componentwise products) and
certifies every intermediate isomorphism as it is built.

The modules are the Python API: import from the modules themselves
(biprod.kernel, biprod.construction, biprod.instances, ...), not from
the package.
"""

__version__ = "0.1.0"
