"""Two routes to the same sequence: scan vs kernel convolution.

A stable diagonal state-space system can be scanned through its step
recurrence (the library scan works in chunks of rows) or materialized into
an impulse-response kernel and convolved with the input.
Both views are exact up to rounding, and the convolution also has an FFT
fast path. This script builds one system and walks the three routes.
"""

import numpy as np

from statefuse import (
    ContinuousSsm,
    apply_convolution,
    discretize_zoh,
    materialize_kernel,
    scan_recurrent,
)


def main():
    rng = np.random.default_rng(0)
    m = 16
    sys_c = ContinuousSsm(
        a_diag=-rng.uniform(0.1, 4.0, size=m),
        b_in=rng.uniform(-1.0, 1.0, size=m),
        c_out=rng.uniform(-1.0, 1.0, size=m),
        d_feed=0.1,
    )
    sys_d = discretize_zoh(sys_c, delta=0.05)
    print(f"state_dim={m}, |a_bar| in [{sys_d.a_bar.min():.4f}, {sys_d.a_bar.max():.4f}]")

    n = 256
    x = rng.uniform(-1.0, 1.0, size=n)

    y_scan = scan_recurrent(sys_d, x)
    kernel = materialize_kernel(sys_d, n)
    y_direct = apply_convolution(kernel, x, mode="direct")
    y_fft = apply_convolution(kernel, x, mode="fft")

    scale = np.max(np.abs(y_scan))
    print(f"scan vs direct conv: max rel err {np.max(np.abs(y_scan - y_direct)) / scale:.3e}")
    print(f"direct vs fft conv:  max rel err {np.max(np.abs(y_direct - y_fft)) / scale:.3e}")

    # linearity: the response to a weighted sum is the weighted sum of responses
    x2 = rng.uniform(-1.0, 1.0, size=n)
    lhs = scan_recurrent(sys_d, 2.0 * x - 3.0 * x2)
    rhs = 2.0 * scan_recurrent(sys_d, x) - 3.0 * scan_recurrent(sys_d, x2)
    print(f"superposition:       max abs err {np.max(np.abs(lhs - rhs)):.3e}")

    # the kernel itself decays geometrically, which is why truncation works
    taps = materialize_kernel(sys_d, 8).taps
    print("first 8 kernel taps:", np.array2string(taps, precision=4))


if __name__ == "__main__":
    main()
