"""Independent references the tests check ``lfqkd`` against.

``reference_rate`` writes the paper's key rate again in scalar ``math``
(``log2``, ``expm1``), in the paper's order of terms and with no code from
``lfqkd``. ``binomial_upper_bound`` is an exact binomial tail.
"""

import math

#: One-sided tail beyond 3 sigma of a normal variable, about 0.135%.
THREE_SIGMA_TAIL = 0.5 * math.erfc(3.0 / math.sqrt(2.0))


def _h2(x):
    return 0.0 if x in (0.0, 1.0) else -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def reference_rate(family, eta, e_d, mu=0.5, eta_c=0.01):
    """Raw key rate -Q_s*H2(e_d) + P1*Y1*(1 - H2(min(delta_1/Y1, 1/2))).

    ``eta`` is the readout probability eta_m for the memory families.
    """
    if family in ("single-photon", "single-photon-memory"):
        q_s, p_1 = eta, 1.0
    elif family == "coherent":
        q_s, p_1 = -math.expm1(-eta * mu), mu * math.exp(-mu)
    else:
        trigger = -math.expm1(-eta_c * mu)
        q_s, p_1 = eta, eta_c * mu * math.exp(-mu) / trigger if trigger else math.exp(-mu)
    y_1 = eta
    if y_1 == 0.0:
        return -q_s * _h2(e_d)
    delta_1 = e_d * y_1 + 0.5 * (1.0 - y_1)
    return p_1 * y_1 * (1.0 - _h2(min(delta_1 / y_1, 0.5))) - q_s * _h2(e_d)


def binomial_upper_bound(n, p, level=THREE_SIGMA_TAIL):
    """Fewest errors k with P(Binomial(n, p) > k) <= ``level``, summed exactly."""
    if p == 0.0:
        return 0
    log_p, log_q = math.log(p), math.log1p(-p)
    cdf = 0.0
    for k in range(n + 1):
        cdf += math.exp(
            math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
            + k * log_p + (n - k) * log_q
        )
        if 1.0 - cdf <= level:
            return k
    return n
