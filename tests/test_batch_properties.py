"""Property tests of the packed-batch scorer input (Hypothesis: MacIver et
al., JOSS 2019): packing keeps every instance in place, and an instance's
logits do not depend on the batch it is scored in."""
from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dxrank.backends import BACKENDS
from dxrank.backends.base import EncodedInstance, pack_instances
from dxrank.backends.boxes import VolumeConfig

C, D = 12, 4
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

visits = st.lists(st.lists(st.integers(0, C - 1), min_size=1, max_size=5, unique=True),
                  min_size=1, max_size=6)
targets = st.lists(st.booleans(), min_size=C, max_size=C)
batches = st.lists(st.tuples(visits, targets), min_size=1, max_size=8)


def _encode(instance) -> EncodedInstance:
    visit_codes, target = instance
    return EncodedInstance(
        visit_idx=tuple(np.array(v, dtype=np.intp) for v in visit_codes),
        target=np.array(target, dtype=float))


def _params(kind: str) -> dict:
    """Seeded parameters with a wider spread than the initializers', so
    attention and gates are far from uniform."""
    rng = np.random.default_rng(5)
    flat = BACKENDS[kind].init([f"C{i}" for i in range(C)], D, rng)
    return {k: v + rng.normal(0.0, 0.5, size=v.shape) for k, v in flat.items()}


FLAT = {kind: _params(kind) for kind in BACKENDS}


@PROPERTY
@given(batch=batches)
def test_pack_instances_keeps_order_and_offsets(batch):
    packed = pack_instances([_encode(inst) for inst in batch])
    visit_ends = np.append(packed.visit_starts[1:], len(packed.codes))
    unpacked = [packed.codes[lo:hi].tolist()
                for lo, hi in zip(packed.visit_starts, visit_ends)]
    instance_ends = np.append(packed.instance_starts[1:], len(unpacked))
    assert [unpacked[lo:hi] for lo, hi in zip(packed.instance_starts, instance_ends)] \
        == [visit_codes for visit_codes, _ in batch]
    assert packed.targets.tolist() == [[float(t) for t in target] for _, target in batch]


@PROPERTY
@given(batch=batches, kind=st.sampled_from(sorted(BACKENDS)))
def test_instance_logits_do_not_depend_on_the_batch(batch, kind):
    """Bit-identical for box, whose kernels are row-wise; within 1e-12 for
    retain, whose matmuls may round differently with the row count."""
    encoded = [_encode(inst) for inst in batch]

    def scores(instances):
        logits, _ = BACKENDS[kind].forward(FLAT[kind], pack_instances(instances),
                                           VolumeConfig())
        return logits

    together, reversed_ = scores(encoded), scores(encoded[::-1])[::-1]
    for i, enc in enumerate(encoded):
        alone = scores([enc])[0]
        for got in (together[i], reversed_[i]):
            if kind == "box":
                assert np.array_equal(got, alone), i
            else:
                assert np.max(np.abs(got - alone)) <= 1e-12 * np.max(np.abs(alone)), i
