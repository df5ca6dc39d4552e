"""Bench node bounds are (base, exponent) pairs, compared with node counts exactly."""

from pvckit.bench import _at_most_power


def test_at_most_power_is_exact():
    for base in range(5):
        for exponent in range(12):
            power = base ** exponent
            for nodes in {0, 1, 2, power - 1, power, power + 1, 2 * power}:
                if nodes >= 0:
                    assert _at_most_power(nodes, base, exponent) is (nodes <= power)

