import warnings

import numpy as np
from hypothesis import settings

from steerability import steering

# Property tests run without a deadline, since timings vary on a shared machine, and
# without the example database, so a run depends on its code alone; each test sets
# only its max_examples.
settings.register_profile("steerability", deadline=None, database=None)
settings.load_profile("steerability")

# The hypothesis plugin imports this module when it reports a failing example, and the
# import warns through mypy_extensions; with the "error" warning filter that warning
# would replace the falsifying example with an INTERNALERROR. Importing it here once,
# with the warning ignored, leaves the plugin a cached module.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

# Hermitian with unit trace, but LAPACK's eigensolve does not converge on it.
UNCONVERGED = np.zeros((4, 4), dtype=complex)
UNCONVERGED[0, 3], UNCONVERGED[3, 0], UNCONVERGED[1, 2], UNCONVERGED[2, 1] = 1e250j, -1e250j, 1j, -1j
UNCONVERGED[2, 3] = UNCONVERGED[3, 2] = UNCONVERGED[3, 3] = 1.0


def random_settings(rng, count, n=None):
    """count valid settings drawn one at a time from rng, as {n: (draw positions, setting stack)}.

    Each draw takes its n (rng.integers(2, 4) unless n is given), a (3, 3) normal
    whose sign-fixed QR gives an orthonormal v, then an (n, 3) normal scaled to unit u."""
    draws = {2: [], 3: []}
    for j in range(count):
        size = int(rng.integers(2, 4)) if n is None else n
        draws[size].append((j, rng.standard_normal((3, 3)), rng.standard_normal((size, 3))))
    return {size: _stacked(*map(np.array, zip(*group))) for size, group in draws.items() if group}


def _stacked(positions, g, u):
    q, r = np.linalg.qr(g)
    v = np.swapaxes(q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[:, None, :], -2, -1)
    u = u / np.linalg.norm(u, axis=-1, keepdims=True)
    return positions, steering.MeasurementSetting(u=u, v=v[:, : u.shape[1]])
