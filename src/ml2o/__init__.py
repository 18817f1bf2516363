"""Meta-adaptive training for coordinate-wise learned optimizers.

The package trains a small recurrent update rule on synthetic tasks, either
plainly or through a nested one-step-adaptation objective, adapts it for a
few steps at test time, and compares both against direct-transfer and
from-scratch baselines on out-of-distribution tasks.

Import from the submodules (`ml2o.harness`, `ml2o.train`, `ml2o.unroll`,
...); the package itself holds only the version.
"""

__version__ = "0.1.0"
