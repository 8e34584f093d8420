"""Zero-trust gateway: continuous authentication + authorization.

Milestone M11 requires "continuous authentication and authorization of
agent interactions while maintaining low-latency communication".  The
:class:`ZeroTrustGateway` is the enforcement point: the message bus and
RPC layer hand it every envelope, and it (1) validates the attached token
through the federated trust fabric, (2) evaluates ABAC policy, (3) records
the decision in the audit log, and (4) charges a small, configurable
verification latency — the quantity E4 sweeps.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from repro.security.abac import Decision, PolicyEngine
from repro.security.audit import AuditLog
from repro.security.identity import TrustFabric
from repro.security.tokens import Token

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.comm.message import Envelope
    from repro.sim.kernel import Simulator


class SecurityError(Exception):
    """Authentication or authorization failed."""


class ZeroTrustGateway:
    """Per-request verification middleware.

    Parameters
    ----------
    sim:
        Kernel (for timestamps and latency accounting).
    fabric:
        Federated trust fabric used to validate tokens.
    engine:
        ABAC policy engine.
    site_institution:
        Mapping of site name -> owning institution, used to resolve which
        institution's policy governs a message's destination.
    verify_latency_s:
        Simulated cost of one verification (signature check + policy
        evaluation).  Returned from :meth:`verify` so callers can charge
        it on the simulated clock.

    Every decision is recorded in the gateway's own :attr:`audit` log.
    """

    def __init__(self, sim: "Simulator", fabric: TrustFabric,
                 engine: PolicyEngine,
                 site_institution: Optional[dict[str, str]] = None,
                 verify_latency_s: float = 0.001) -> None:
        self.sim = sim
        self.fabric = fabric
        self.engine = engine
        self.site_institution = site_institution or {}
        self.verify_latency_s = verify_latency_s
        self.audit = AuditLog(sim)
        self.stats = sim.metrics.stats(
            "zerotrust",
            {"verified": 0, "rejected_authn": 0, "rejected_authz": 0})

    # -- core entry point -----------------------------------------------------

    def verify(self, envelope: "Envelope", action: str) -> float:
        """Verify one envelope; returns the latency to charge.

        Raises :class:`SecurityError` on any authentication or
        authorization failure.  This is called for *every* message — there
        is no session state to hijack, which is precisely the zero-trust
        property.
        """
        return self.verify_resource(envelope, action, {})

    def verify_resource(self, envelope: "Envelope", action: str,
                        resource_attrs: dict[str, Any]) -> float:
        """Like :meth:`verify` but with caller-supplied resource attributes.

        Used by the data mesh so ABAC rules can see e.g. a record's
        ``sensitivity`` when deciding whether it may leave its
        institution.
        """
        dst_institution = self.site_institution.get(
            envelope.dst_site, envelope.dst_site)
        token = envelope.token
        if not isinstance(token, Token):
            self._reject("authn", "<missing>", "", action, dst_institution,
                         "no token attached")
        assert isinstance(token, Token)
        if token.expired(self.sim.now):
            self._reject("authn", token.subject, token.issuer, action,
                         dst_institution, "token expired")
        if not self.fabric.validate_at(dst_institution, token):
            self._reject("authn", token.subject, token.issuer, action,
                         dst_institution, "token not honoured here")
        if not token.permits(action):
            self._reject("authz", token.subject, token.issuer, action,
                         dst_institution, "token scope does not cover action")
        subject_attrs = dict(token.attributes)
        subject_attrs.setdefault("institution", token.issuer)
        subject_attrs.setdefault("subject", token.subject)
        resource = {"institution": dst_institution, "site": envelope.dst_site}
        resource.update(resource_attrs)
        decision, reason = self.engine.decide(
            subject_attrs, action, resource, {"time": self.sim.now})
        if decision is not Decision.ALLOW:
            self._reject("authz", token.subject, token.issuer, action,
                         dst_institution, reason)
        self.stats["verified"] += 1
        self.audit.record(subject=token.subject, institution=token.issuer,
                          action=action, resource=str(resource.get(
                              "record_id", dst_institution)),
                          decision="allow", reason=reason,
                          site=envelope.dst_site)
        return self.verify_latency_s

    def _reject(self, kind: str, subject: str, institution: str, action: str,
                resource: str, reason: str) -> None:
        self.stats[f"rejected_{kind}"] += 1
        self.audit.record(subject=subject, institution=institution,
                          action=action, resource=resource, decision="deny",
                          reason=reason)
        raise SecurityError(f"{kind} failure for {subject!r}: {reason}")

    # -- credential refresh --------------------------------------------------------

    def refresh_loop(self, idp, subject: str, holder: Any):
        """Generator: keep ``holder.token`` fresh (spawn as a process).

        Re-issues the credential every half ``ttl`` so the holder never
        presents an expired token — the client half of continuous
        authentication.
        """
        while True:
            token = idp.issue(subject)
            holder.token = token
            ttl = token.expires_at - token.issued_at
            yield self.sim.timeout(max(ttl * 0.5, 1e-6))
