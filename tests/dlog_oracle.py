"""The discrete-log table as it was built before ``functions._dlog_table``
found its generator by walking the powers: the smallest primitive root from
a test over the prime factors of the group order, then its powers."""


def oracle_primitive_root(p: int, j: int) -> int:
    """Smallest generator of the units mod p^j (p an odd prime)."""
    pj = p ** j
    order = (p - 1) * p ** (j - 1)
    fac = oracle_prime_factors(order)
    for g in range(2, pj):
        if g % p == 0:
            continue
        if all(pow(g, order // q, pj) != 1 for q in fac):
            return g
    raise ValueError("no primitive root found")


def oracle_prime_factors(m: int) -> list[int]:
    out, d = [], 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


def oracle_dlog_table(p: int, j: int) -> tuple[int, dict[int, int], int]:
    g = oracle_primitive_root(p, j)
    pj = p ** j
    order = (p - 1) * p ** (j - 1)
    table, cur = {}, 1
    for e in range(order):
        table[cur] = e
        cur = cur * g % pj
    return g, table, order
