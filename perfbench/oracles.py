"""Closed forms the benchmark checks cfoptics' outputs against.

Written against the physics, not against the package: detector amplitudes
of the nested layout come from its final-state formulas, chained networks
from 2x2 coupler products with a scalar inner-chain transfer, and mutual
information from a direct sum over the joint table.  Nothing here imports
cfoptics.
"""

import math

HALF_PI = math.pi / 2

# Element counts of the networks cfoptics builds, from the layouts it
# documents: nested = 4 couplers, 4 leg checkpoints, 1 discard, plus Bob's
# blocker for b = 0.
NESTED_ELEMENTS = {0: 10, 1: 9}

# Output documents print 12 significant digits, so a printed value may sit
# up to half a unit of its 12th digit away from the exact one.
_PRINT_REL = 5e-12


def printed_close(printed, exact, tol=1e-12):
    """True when a value printed with 12 significant digits equals ``exact``
    to ``tol`` plus the rounding of its last printed digit."""
    return abs(printed - exact) <= tol + _PRINT_REL * abs(exact)


def nested_final(theta1, theta2, bit):
    """Detector amplitudes (D1, D2) of the nested layout.

    Open arm (b = 1): ``(c1 c2, i c1 s2)``; blocked arm (b = 0):
    ``(c1 c2 - s1 s2 / 2, i (c1 s2 + s1 c2 / 2))``.
    """
    c1, s1 = math.cos(theta1), math.sin(theta1)
    c2, s2 = math.cos(theta2), math.sin(theta2)
    if bit == 1:
        return complex(c1 * c2, 0.0), complex(0.0, c1 * s2)
    return complex(c1 * c2 - 0.5 * s1 * s2, 0.0), complex(0.0, c1 * s2 + 0.5 * s1 * c2)


def nested_channel(theta1, theta2):
    """Rows (p_d1, p_d2, p_none) for b = 0 and b = 1."""
    rows = []
    for bit in (0, 1):
        d1, d2 = nested_final(theta1, theta2, bit)
        p1, p2 = abs(d1) ** 2, abs(d2) ** 2
        rows.append((p1, p2, max(0.0, 1.0 - p1 - p2)))
    return rows


def success(rows):
    """(p00, p11): D2 decodes as 0, D1 as 1."""
    return rows[0][1], rows[1][0]


def mutual_information_uniform(rows):
    """I(B; outcome) in bits at P(b = 0) = 1/2, summed over the joint table."""
    marginal = [0.5 * (rows[0][y] + rows[1][y]) for y in range(3)]
    info = 0.0
    for bit in (0, 1):
        for y in range(3):
            joint = 0.5 * rows[bit][y]
            if joint > 0.0:
                info += joint * math.log2(joint / (0.5 * marginal[y]))
    return info


def balanced_theta2(theta1):
    """Balance condition ``cos(theta2)^2 = 4c^2 / (s^2 - 4cs + 8c^2)``; the
    negative root balances the channel once tan(theta1) > 2."""
    c, s = math.cos(theta1), math.sin(theta1)
    theta2 = math.acos(math.sqrt(4.0 * c * c / (s * s - 4.0 * c * s + 8.0 * c * c)))
    return -theta2 if s > 2.0 * c else theta2


def bisection_evaluations(tol=1e-10):
    """Channel evaluations of a bisection on [0, pi/2] down to width ``tol``:
    the two bracket ends, then one per halving."""
    return 2 + math.ceil(math.log2(HALF_PI / tol))


def chain_detectors(outer, inner, bit):
    """(p_d1, p_d2) of the chained network at its default angles.

    Each inner chain acts on the lower outer arm as a scalar transfer:
    ``cos((M+1) beta)`` with the arm open, ``cos(beta)^(M+1)`` with a
    blocker emptying the far arm after each of the first M couplers.
    """
    alpha = math.pi / (2 * (outer + 1))
    beta = math.pi / (2 * (inner + 1))
    transfer = math.cos((inner + 1) * beta) if bit == 1 else math.cos(beta) ** (inner + 1)
    c, s = math.cos(alpha), math.sin(alpha)
    upper, lower = 1.0 + 0j, 0j
    for _ in range(outer):
        upper, lower = c * upper + 1j * s * lower, 1j * s * upper + c * lower
        lower *= transfer
    upper, lower = c * upper + 1j * s * lower, 1j * s * upper + c * lower
    return abs(upper) ** 2, abs(lower) ** 2


def chain_elements(outer, inner, bit):
    """Elements of the chained network: per outer cycle a coupler, a
    checkpoint, ``inner`` blockable loops (coupler, two checkpoints, Bob's
    blocker for b = 0), a closing coupler, a checkpoint and a discard; then
    the final coupler."""
    return outer * (5 + inner * (3 if bit == 1 else 4)) + 1
