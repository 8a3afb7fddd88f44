"""Key material for the BFV scheme: secret, public, and Galois keys.

Galois (rotation) keys are key-switching keys with base-``Adcmp`` digit
decomposition: one pair of polynomials per digit.  The decomposition base
is the ``Adcmp`` parameter HE-PTune tunes (Table II); larger bases mean
fewer digits (cheaper HE_Rotate) but more additive noise per rotation
(Table III).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .polynomial import RnsPolynomial


@dataclass
class SecretKey:
    """Ternary secret polynomial, kept in both domains."""

    coeffs: np.ndarray  # signed small coefficients, shape (n,)
    eval_poly: RnsPolynomial  # evaluation-domain residues


@dataclass
class PublicKey:
    """Encryption key pair (p0, p1) = (-(a s + e), a), evaluation domain."""

    p0: RnsPolynomial
    p1: RnsPolynomial


@dataclass
class KeySwitchKey:
    """Key switching key from a foreign secret s' to the canonical s.

    ``pairs[i]`` encrypts ``Adcmp**i * s'`` under s:
    ``(-(a_i s + e_i) + Adcmp**i s', a_i)``.
    """

    pairs: list[tuple[RnsPolynomial, RnsPolynomial]]
    base_bits: int
    _stacks: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, repr=False, compare=False
    )

    def stacks(self, depth: int) -> tuple[np.ndarray, np.ndarray]:
        """Cached ``(body, a)`` digit stacks of shape ``(k, depth, n)``.

        The key-switch inner loop multiplies every ciphertext digit
        against these same pairs on every rotation; stacking them once
        per key (instead of per rotation) keeps the hot path free of
        repeated small-array copies.  Keys restored from the wire arrive
        with these stacks already set, as views of the same block as the
        pairs, so the server holds each key once.
        """
        if self._stacks is None or self._stacks[0].shape[1] < depth:
            body = np.stack([body.data for body, _ in self.pairs], axis=1)
            a = np.stack([a.data for _, a in self.pairs], axis=1)
            self._stacks = (body, a)
        body, a = self._stacks
        return body[:, :depth], a[:, :depth]


@dataclass
class GaloisKeys:
    """Key-switching keys per Galois element, for HE_Rotate."""

    keys: dict[int, KeySwitchKey] = field(default_factory=dict)

    def key_for(self, galois_elt: int) -> KeySwitchKey:
        try:
            return self.keys[galois_elt]
        except KeyError:
            raise KeyError(
                f"no Galois key for element {galois_elt}; generate it with "
                "BfvScheme.generate_galois_keys"
            ) from None

    def __contains__(self, galois_elt: int) -> bool:
        return galois_elt in self.keys
