"""Short-lived signed credential tokens.

Tokens are JWT-shaped (claims + MAC) but signed with a keyed BLAKE2 MAC
instead of asymmetric crypto — sufficient inside the simulation to make
forgery and tampering *detectable*, which is the property the zero-trust
layer needs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Optional

from repro.sim.ids import IdSequencer, ambient_ids


class TokenError(Exception):
    """Raised for malformed, expired, or unverifiable tokens."""


def _mac(secret: bytes, claims: str) -> str:
    return hashlib.blake2b(claims.encode("utf-8"), key=secret,
                           digest_size=16).hexdigest()


@dataclass(frozen=True)
class Token:
    """An immutable signed credential.

    Attributes
    ----------
    token_id:
        Unique id (supports revocation lists).
    subject / issuer:
        Principal and issuing institution.
    scopes:
        Actions the token permits; ``("*",)`` is a wildcard.
    attributes:
        Copy of the principal's ABAC attributes at issue time.
    issued_at / expires_at:
        Simulation timestamps.
    signature:
        MAC over the canonical claims string.
    """

    token_id: str
    subject: str
    issuer: str
    scopes: tuple[str, ...]
    attributes: tuple[tuple[str, Any], ...]
    issued_at: float
    expires_at: float
    signature: str

    # -- construction ----------------------------------------------------------

    @staticmethod
    def _claims(token_id: str, subject: str, issuer: str,
                scopes: tuple[str, ...],
                attributes: tuple[tuple[str, Any], ...],
                issued_at: float, expires_at: float) -> str:
        return "|".join([
            token_id, subject, issuer, ",".join(scopes),
            ";".join(f"{k}={v!r}" for k, v in attributes),
            f"{issued_at:.9f}", f"{expires_at:.9f}",
        ])

    @classmethod
    def mint(cls, secret: bytes, subject: str, issuer: str,
             scopes: tuple[str, ...], attributes: dict[str, Any],
             issued_at: float, expires_at: float,
             ids: Optional[IdSequencer] = None) -> "Token":
        """Create and sign a token (IdP-side).

        ``ids`` is the world's id sequencer; identity providers pass
        ``sim.ids`` so token ids (which feed revocation lists) are
        world-scoped.  Without it the ambient sequencer is used.
        """
        token_id = (ids or ambient_ids()).label("token", "tok")
        attrs = tuple(sorted(attributes.items()))
        claims = cls._claims(token_id, subject, issuer, tuple(scopes), attrs,
                             issued_at, expires_at)
        return cls(token_id=token_id, subject=subject, issuer=issuer,
                   scopes=tuple(scopes), attributes=attrs,
                   issued_at=issued_at, expires_at=expires_at,
                   signature=_mac(secret, claims))

    # -- verification ----------------------------------------------------------------

    def verify(self, secret: bytes) -> bool:
        """True iff the signature matches the claims under ``secret``."""
        claims = self._claims(self.token_id, self.subject, self.issuer,
                              self.scopes, self.attributes,
                              self.issued_at, self.expires_at)
        return _mac(secret, claims) == self.signature

    def expired(self, now: float) -> bool:
        return now >= self.expires_at

    def permits(self, action: str) -> bool:
        """Scope check: exact match, wildcard, or prefix scope ``ns:*``."""
        for scope in self.scopes:
            if scope == "*" or scope == action:
                return True
            if scope.endswith(":*") and action.startswith(scope[:-1]):
                return True
        return False

    def attr(self, key: str) -> Any:
        """The attribute's value, or ``None`` when absent."""
        for k, v in self.attributes:
            if k == key:
                return v
        return None

    def tampered_with(self, **overrides: Any) -> "Token":
        """A copy with modified claims but the *old* signature.

        Test helper: the result must fail verification — if it doesn't,
        the MAC scheme is broken.
        """
        fields = {
            "token_id": self.token_id, "subject": self.subject,
            "issuer": self.issuer, "scopes": self.scopes,
            "attributes": self.attributes, "issued_at": self.issued_at,
            "expires_at": self.expires_at, "signature": self.signature,
        }
        fields.update(overrides)
        return Token(**fields)
