"""Inside the fusion stack: residual blocks built around a gated scan.

Each layer normalizes, mixes a short causal window per channel, runs a
gated state-space sublayer, and projects back, with residual connections
around every step. Zero weights therefore make the whole stack an exact
identity, which is the anchor for testing deeper configurations.
"""

import dataclasses

import numpy as np

from statefuse import (
    DiscreteSsmBank,
    FusedQuerySequence,
    query_mamba_stack,
    seeded_stack,
    zero_stack,
)
from statefuse.fusion import gs4_layer  # unchecked: it takes a finite float64 (N, E) array


def main():
    rng = np.random.default_rng(1)
    n_frames, k, d = 6, 3, 8
    e = k * d
    data = rng.uniform(-1.0, 1.0, size=(n_frames, e))
    seq = FusedQuerySequence(data, tuple(range(n_frames)), k, d)

    out = query_mamba_stack(seq, zero_stack(e, n_layers=6))
    print(f"zero-weight stack identity: {np.array_equal(out.data, seq.data)}")

    out = query_mamba_stack(seq, seeded_stack(e, seed=4, n_layers=6))
    drift = np.max(np.abs(out.data - seq.data))
    print(f"seeded stack changes the sequence: max |delta| {drift:.4f}")

    again = query_mamba_stack(seq, seeded_stack(e, seed=4, n_layers=6))
    print(f"rebuilt stack reproduces it bit for bit: {np.array_equal(out.data, again.data)}")

    # the gating nonlinearity in isolation: with unit projections and a
    # feed-through scan, a single unit computes gelu(x) squared
    bank = DiscreteSsmBank(np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)), np.ones(1))
    one = np.ones((1, 1))
    params = dataclasses.replace(
        zero_stack(1, n_layers=1).layers[0], bank=bank, w_u=one, w_v=one, w_o=one
    )
    y = gs4_layer(np.array([[1.0]]), params)
    print(f"gated unit at x=1: {y[0, 0]:.15f} (gelu(1)^2)")


if __name__ == "__main__":
    main()
