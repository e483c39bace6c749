"""Regenerate every problem file under problems/.

The seeded instances are dumped from the shared builders in
tests/instances.py; the hand-designed ones are written in the friendlier
preset form.  Run from the repository root:

    python3 scripts/make_fixtures.py
"""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
# the package of this checkout, not an installed one, and its test builders
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

import instances  # noqa: E402

from cisolver import serialize  # noqa: E402


def delayed_sharing_2x2():
    return {
        "n": 2,
        "T": 2,
        "mode": "finite",
        "discount": None,
        "state": {"cardinality": 2},
        "obs": [{"cardinality": 2}, {"cardinality": 2}],
        "actions": [{"cardinality": 2}, {"cardinality": 2}],
        "initial_dist": [0.6, 0.4],
        "transition": {"kernel": [[
            [[0.9, 0.1], [0.6, 0.4], [0.7, 0.3], [0.4, 0.6]],
            [[0.2, 0.8], [0.5, 0.5], [0.3, 0.7], [0.8, 0.2]],
        ]]},
        "obs_kernels": [
            [[[0.8, 0.2], [0.3, 0.7]], [[0.8, 0.2], [0.3, 0.7]]],
            [[[0.9, 0.1], [0.4, 0.6]], [[0.9, 0.1], [0.4, 0.6]]],
        ],
        "cost": [
            [[0.0, 0.4, 0.6, 1.0], [1.0, 0.5, 0.3, 0.0]],
            [[0.2, 0.7, 0.5, 0.9], [0.8, 0.1, 0.6, 0.0]],
        ],
        "protocol": {"preset": "delayed", "params": {"delays": [1, 1]}},
    }


def bad_kernel_row():
    doc = delayed_sharing_2x2()
    doc["transition"]["kernel"][0][0][2] = [0.5, 0.4]  # (t=1, x=0, u=2)
    return doc


def overlap_protocol():
    """Stage-2 memory keeps the observation that the stage-1 message sent."""
    return {
        "n": 1,
        "T": 2,
        "mode": "finite",
        "discount": None,
        "state": {"cardinality": 2},
        "obs": [{"cardinality": 2}],
        "actions": [{"cardinality": 2}],
        "initial_dist": [0.5, 0.5],
        "transition": {"kernel": [[
            [[0.8, 0.2], [0.3, 0.7]],
            [[0.6, 0.4], [0.1, 0.9]],
        ]]},
        "obs_kernels": [[[[0.9, 0.1], [0.2, 0.8]],
                         [[0.9, 0.1], [0.2, 0.8]]]],
        "cost": [[[0.0, 1.0], [1.0, 0.0]],
                 [[0.0, 1.0], [1.0, 0.0]]],
        "protocol": {"explicit": {
            "memory_slots": [[[], [["obs", 1]]]],
            "message_slots": [[[["obs", 1]]]],
            "message_maps": [[[[[1, 1], [2, 2]]]]],
            "memory_updates": [[[[[0, 0], [1, 1]]]]],
        }},
    }


def static_team():
    return {
        "n": 2,
        "T": 1,
        "mode": "finite",
        "discount": None,
        "state": {"cardinality": 2},
        "obs": [{"cardinality": 2}, {"cardinality": 2}],
        "actions": [{"cardinality": 2}, {"cardinality": 2}],
        "initial_dist": [0.6, 0.4],
        "transition": {"kernel": []},
        "obs_kernels": [[[[0.9, 0.1], [0.2, 0.8]]],
                        [[[0.7, 0.3], [0.4, 0.6]]]],
        "cost": [[[0.0, 1.0, 1.0, 0.5], [0.5, 1.0, 1.0, 0.0]]],
        "protocol": {"preset": "delayed", "params": {"s": 1}},
        "initial_common_obs": {
            "cardinality": 2,
            "kernel": [[0.8, 0.2], [0.3, 0.7]],
        },
    }


def discounted_constant(beta):
    return {
        "n": 2,
        "mode": "discounted",
        "discount": beta,
        "state": {"cardinality": 2},
        "obs": [{"cardinality": 2}, {"cardinality": 2}],
        "actions": [{"cardinality": 2}, {"cardinality": 2}],
        "initial_dist": [0.5, 0.5],
        "transition": {"kernel": [[
            [[0.5, 0.5], [0.5, 0.5], [0.5, 0.5], [0.5, 0.5]],
            [[0.5, 0.5], [0.5, 0.5], [0.5, 0.5], [0.5, 0.5]],
        ]]},
        "obs_kernels": [[[[0.8, 0.2], [0.2, 0.8]]],
                        [[[0.8, 0.2], [0.2, 0.8]]]],
        "cost": [[[1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0]]],
        "protocol": {"preset": "no_sharing", "params": {"window": 0}},
    }


def main():
    out = ROOT / "problems"
    out.mkdir(exist_ok=True)
    docs = {
        "delayed_sharing_2x2.json": delayed_sharing_2x2(),
        "bad_kernel_row.json": bad_kernel_row(),
        "overlap_protocol.json": overlap_protocol(),
        "static_team.json": static_team(),
        "discounted_constant_beta05.json": discounted_constant(0.5),
        "discounted_constant_beta09.json": discounted_constant(0.9),
        "discounted_chain.json": serialize.problem_to_dict(
            instances.discounted_chain(0.9)),
        "acceptance_seed1.json": serialize.problem_to_dict(
            instances.random_delayed_instance(1)),
        "periodic_4stage.json": serialize.problem_to_dict(
            instances.periodic_instance()),
    }
    for name, doc in docs.items():
        path = out / name
        path.write_text(serialize.dumps(doc), encoding="utf-8")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
