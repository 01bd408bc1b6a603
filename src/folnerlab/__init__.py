"""folnerlab: growth, shells, and ergodic averages on doubling graphs and groups.

The package measures how ball volumes grow in unit-edge graphs and finitely
generated groups, estimates the constants that control that growth (doubling
and shell comparison), verifies the polynomial sphere-decay bound those
constants imply, and traces the resulting Folner and ball-averaging
behavior.  Everything that can be exact is exact: volumes are integers,
ratios are fractions, and floats appear only in fits and logarithms.
"""

__version__ = "0.1.0"
