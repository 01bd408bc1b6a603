"""The telescoping step of the sphere-decay lemma, replayed on a profile:
the reference that the decay pipeline's tests check measured shell
constants against.

With b_i = c_{n - 2^i, n}, the chain of inequalities b_i >= (1 + alpha) b_(i-1)
over the dyadic widths turns a shell constant alpha into the polynomial
sphere decay mu(S(x, n)) <= C n^(-delta) mu(B(x, n)), delta = log2(1 + alpha).
"""

from dataclasses import dataclass
from fractions import Fraction

from folnerlab.space import VolumeProfile


@dataclass(frozen=True)
class RecursionAudit:
    """Replay of the dyadic telescoping that converts alpha into sphere decay.

    With b_i = c_{n - 2^i, n} the chain asserts, for i = 1 .. floor(log2 n):

        b_i >= (1 + alpha) * b_(i-1)

    and then  mu(B(x,n)) >= b_top >= (1+alpha)^top * b_0  with
    (1+alpha)^top >= n^log2(1+alpha) / (1+alpha).  `violations` lists the
    indices i whose step inequality fails (empty on any space whose measured
    alpha really is a lower shell bound at all dyadic widths).
    `final_bound_ok` is the exact end-to-end inequality
    mu(S(x,n)) * (1+alpha)^top <= mu(B(x,n)), with mu(S(x,n)) = b_0.
    """

    n: int
    alpha: Fraction
    b: tuple[int, ...]
    violations: tuple[int, ...]
    chain_ok: bool
    final_bound_ok: bool

    @property
    def passed(self) -> bool:
        return not self.violations and self.chain_ok and self.final_bound_ok


def lemma_recursion_audit(
    profile: VolumeProfile, n: int, alpha: Fraction
) -> RecursionAudit:
    """Recompute the telescoping chain at radius n with a given alpha, exactly."""
    if n < 1 or n > profile.depth:
        raise ValueError(f"radius n={n} outside profile depth {profile.depth}")
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    top = n.bit_length() - 1  # floor(log2 n)
    b = tuple(profile.ball[n] - profile.ball[n - 2**i] for i in range(top + 1))
    one_plus = Fraction(1) + alpha
    violations = tuple(
        i for i in range(1, top + 1) if Fraction(b[i]) < one_plus * b[i - 1]
    )
    chain_ok = profile.ball[n] >= b[top] and Fraction(b[top]) >= one_plus**top * b[0]
    # The end-to-end bound the chain delivers, checked on the data itself.
    final_bound_ok = one_plus**top * b[0] <= profile.ball[n]
    if violations:
        chain_ok = False
    return RecursionAudit(
        n=n,
        alpha=Fraction(alpha),
        b=b,
        violations=violations,
        chain_ok=chain_ok,
        final_bound_ok=final_bound_ok,
    )
