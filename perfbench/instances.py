"""Problem documents the benchmark generates from its seed.

The program only ever sees these as parsed JSON documents, exactly as
``cis`` would read them from a file.  The family is the two-controller,
binary, three-stage one that ``tests/instances.py`` calls
``filter_instance``: kernels are sampled uniformly and row-normalized,
costs are uniform in [0, 1], and member ``k`` uses the ``k``-th of its
five sharing patterns.  Here the random stream is keyed by ``(seed, k)``.
"""

import numpy as np

#: The members the workloads use -> protocol document, numbered as in
#: ``filter_instance``.
PROTOCOLS = {
    0: {"preset": "delayed", "params": {"delays": [1, 1]}},
    3: {"preset": "control"},
    4: {"preset": "no_sharing", "params": {"window": 1}},
}


def _rows(rng, shape):
    a = rng.uniform(size=shape)
    return a / a.sum(axis=-1, keepdims=True)


def filter_family_doc(seed: int, k: int, horizon: int = 3) -> dict:
    """Member ``k`` of the filter family as a problem document."""
    rng = np.random.default_rng([seed, k])
    initial = _rows(rng, (2,))
    transitions = [_rows(rng, (2, 4, 2)) for _ in range(horizon - 1)]
    obs_kernels = [[_rows(rng, (2, 2)) for _ in range(horizon)] for _ in range(2)]
    costs = [rng.uniform(size=(2, 4)) for _ in range(horizon)]
    return {
        "n": 2,
        "T": horizon,
        "mode": "finite",
        "discount": None,
        "state": {"cardinality": 2},
        "obs": [{"cardinality": 2}, {"cardinality": 2}],
        "actions": [{"cardinality": 2}, {"cardinality": 2}],
        "initial_dist": initial.tolist(),
        "transition": {"kernel": [p.tolist() for p in transitions]},
        "obs_kernels": [[o.tolist() for o in per_i] for per_i in obs_kernels],
        "cost": [c.tolist() for c in costs],
        "protocol": PROTOCOLS[k],
    }
