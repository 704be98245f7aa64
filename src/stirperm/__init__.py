"""stirperm: exact enumeration of pattern-avoiding Stirling permutations.

The package cross-validates three computation paths for the joint
plateau/descent/ascent statistics of pattern-restricted Stirling
permutations: exhaustive enumeration, closed-form counting formulas, and
truncated-series solutions of the defining functional equations.  The
bijections to ternary trees, ordered trees and favorite-child trees are
executable with inverses and statistic transport.
"""

__version__ = "0.1.0"
