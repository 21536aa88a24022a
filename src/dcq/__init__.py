"""Dynamic class queue embedding learning, desk scale.

Classification-based representation learning where the negative class
weights live in a FIFO queue of feedforward-generated vectors from an
EMA-shadowed copy of the extractor, plus a full-FC CosFace baseline, a
deterministic synthetic long-tailed dataset, and an evaluation bench.
"""

__version__ = "0.1.0"

# `import dcq` binds its modules; deskbench reads them as `dcq.<module>`
from . import baseline, class_queue, evalbench, model, numerics, rng, synthdata, trainer  # noqa: F401
