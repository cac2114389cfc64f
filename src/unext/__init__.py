"""Non-asymptotic upper bounds on quantum communication rates from state extendibility.

Subpackages:
  linalg              dense Hermitian linear algebra, real inputs kept real
  states              named bipartite states, channels, fidelity
  extendibility       k-extendibility feasibility checker and certificates
  hypothesis_testing  exact Neyman-Pearson engine and commuting-state divergences
  bounds              converse rate bounds assembled from the pieces above
  cli                 command-line front end
"""

__version__ = "0.1.0"
