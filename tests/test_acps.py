import numpy as np

from cyclesynth import acps


class TestGainBias:
    def test_swap_chain(self):
        P = np.array([[0.0, 1.0], [1.0, 0.0]])
        g = np.array([1.0, 3.0])
        gb = acps.acps_gain_bias(P, g)
        np.testing.assert_allclose(gb.J, [2.0, 2.0], atol=1e-12)
        np.testing.assert_allclose(gb.h, [-0.5, 0.5], atol=1e-12)

    def test_defining_equations(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            n = int(rng.integers(2, 10))
            P = rng.random((n, n))
            P = P / P.sum(axis=1, keepdims=True)
            g = rng.random(n) * 5 + 0.1
            gb = acps.acps_gain_bias(P, g)
            # J = P J and J + h = g + P h
            np.testing.assert_allclose(P @ gb.J, gb.J, atol=1e-8)
            np.testing.assert_allclose(gb.J + gb.h, g + P @ gb.h, atol=1e-8)

    def test_multichain_gains_differ(self):
        P = np.array([
            [1.0, 0.0],
            [0.0, 1.0],
        ])
        g = np.array([1.0, 4.0])
        gb = acps.acps_gain_bias(P, g)
        np.testing.assert_allclose(gb.J, [1.0, 4.0], atol=1e-12)
