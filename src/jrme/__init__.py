"""Joint knowledge-graph / text-mention relation embeddings.

Three trainable variants share one vector space: a translation-based
triple scorer (kre), a bag-of-words mention scorer (tme), and their
joint combination (jrme), all trained with margin-ranking SGD over
corrupt relations and evaluated by ranking the true relation.

The package root names only the epoch kernel backend; callers import
everything else from its submodules (`jrme.cli`, `jrme.training`, ...).
"""

from .kernels import BACKEND

__version__ = "0.1.0"

__all__ = ["BACKEND"]
