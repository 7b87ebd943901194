"""Clipped and stabilized proximal SGD under heavy-tailed gradient noise.

Library layout:

- problems: composite objectives, domains, prox steps
- noise: noise models, alpha-stable sampling, gradient oracles
- clipping: the clipping operator and its error-bound verifiers
- schedules: stepsize and clipping-threshold schedules per regime
- algorithms: the optimization loops (single and batched trials)
- hardness: lower-bound instance families and codebooks
- harness: experiment configs, deterministic execution, persistence
- cli: the htclip command line front end
"""

from . import algorithms, clipping, hardness, harness, noise, problems, schedules
from ._version import __version__
from .algorithms import *  # noqa: F401,F403
from .clipping import *  # noqa: F401,F403
from .hardness import *  # noqa: F401,F403
from .harness import *  # noqa: F401,F403
from .noise import *  # noqa: F401,F403
from .problems import *  # noqa: F401,F403
from .schedules import *  # noqa: F401,F403

# each public name is listed once, in its module's __all__
__all__ = ["__version__"] + [
    name
    for module in (problems, noise, clipping, schedules, algorithms, hardness, harness)
    for name in module.__all__
]
