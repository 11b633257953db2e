import numpy as np

from steerability import steering


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
