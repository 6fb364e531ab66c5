"""Two routes to the same sequence: scan vs kernel convolution.

A stable diagonal state-space system can be scanned through its step
recurrence (the library scan works in chunks of rows) or materialized into
an impulse-response kernel and convolved with the input.
Both views are exact up to rounding, and the convolution also has an FFT
fast path. This script builds one system, a width-1 channel bank, and
walks the three routes.
"""

import numpy as np

from statefuse import (
    DiscreteSsmBank,
    apply_convolution,
    discretize_zoh,
    materialize_kernel,
    scan_bank,
)


def main():
    rng = np.random.default_rng(0)
    m = 16
    a = -rng.uniform(0.1, 4.0, size=(1, m))
    b = rng.uniform(-1.0, 1.0, size=(1, m))
    c = rng.uniform(-1.0, 1.0, size=(1, m))
    a_bar, b_bar = discretize_zoh(a, b, delta=0.05)
    bank = DiscreteSsmBank(a_bar, b_bar, c, [0.1])
    print(f"state_dim={m}, |a_bar| in [{a_bar.min():.4f}, {a_bar.max():.4f}]")

    def scan(x):
        return scan_bank(bank, x[:, None])[:, 0]

    n = 256
    x = rng.uniform(-1.0, 1.0, size=n)

    y_scan = scan(x)
    taps = materialize_kernel(bank, n)[0]
    y_direct = apply_convolution(taps, bank.d_bar[0], x, mode="direct")
    y_fft = apply_convolution(taps, bank.d_bar[0], x, mode="fft")

    scale = np.max(np.abs(y_scan))
    print(f"scan vs direct conv: max rel err {np.max(np.abs(y_scan - y_direct)) / scale:.3e}")
    print(f"direct vs fft conv:  max rel err {np.max(np.abs(y_direct - y_fft)) / scale:.3e}")

    # linearity: the response to a weighted sum is the weighted sum of responses
    x2 = rng.uniform(-1.0, 1.0, size=n)
    lhs = scan(2.0 * x - 3.0 * x2)
    rhs = 2.0 * scan(x) - 3.0 * scan(x2)
    print(f"superposition:       max abs err {np.max(np.abs(lhs - rhs)):.3e}")

    # the kernel itself decays geometrically, which is why truncation works
    print("first 8 kernel taps:", np.array2string(taps[:8], precision=4))


if __name__ == "__main__":
    main()
