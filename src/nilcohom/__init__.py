"""nilcohom: exact invariant Dolbeault cohomology of nilpotent Lie
algebras, with toroidal-group classification of foliation leaves.

The package is organised in layers:

* :mod:`nilcohom.exact` -- exact scalar fields, sparse differentials
  and dense linear algebra, integer lattice algorithms, certified real
  enclosures.
* :mod:`nilcohom.formats` -- the readers of every input: JSON files,
  declared numbers and their text forms, generator documents, and the
  scanner the text grammars share.
* :mod:`nilcohom.liealg` -- structure-equation parsing, Chevalley-
  Eilenberg cohomology, rational structures and lattices.
* :mod:`nilcohom.cxstruct` -- complex structures, integrability, the
  bigraded invariant complex and Hodge tables, hypothesis checking.
* :mod:`nilcohom.specseq` -- spectral sequences of finite complexes
  with a monomial (weight) filtration, by column reduction.
* :mod:`nilcohom.toroidal` -- period matrices, the Remmert-Morimoto
  splitting, the theta/wild Diophantine dichotomy, leaf analysis.
* :mod:`nilcohom.catalog` / :mod:`nilcohom.cli` -- built-in algebra
  catalog and command-line front end.

Everything in the mathematical core is exact: no floating point enters
any verdict.  All values are immutable and all operations are pure, so
the library is safe for concurrent use without locks.
"""

__version__ = "0.1.0"
