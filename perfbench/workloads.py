"""The benchmark's workloads: what one repetition runs and how it is checked.

Each workload has a full size, which the benchmark measures, and a small
(m, k) = (1, 2) size of the same kind, which the benchmark's own tests run.
The inputs are fixed by the paper's parameters and all arithmetic is exact,
so a repetition's output is the same on every run and on every seed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    """One workload.

    ``kind`` is ``certify`` (the CLI's ``singular verify``), ``construct``
    (the CLI's ``jack construct`` of the family's top member, m = 1) or
    ``generic`` (library calls: ``family_context(m, k)``, then every member's
    eigen equations over Q(kappa)).  ``expect`` is the count the output must
    show: the family size, the term count or the number of equations.
    ``sha256`` is the digest of the child's standard output recorded at the
    commit that defined the benchmark; the small test sizes have none, and
    their tests compare traced against untraced output instead.
    """

    name: str
    kind: str
    m: int
    k: int
    expect: int
    sha256: str | None = None

    def cli_argv(self) -> list[str]:
        m, k = self.m, self.k
        if self.kind == "certify":
            return ["--format", "json", "singular", "verify", "--m", str(m), "--k", str(k)]
        if self.kind == "construct":
            # label (k-1, k-1, ..., 1, 1, 0, 0) on the one-column tableau (m = 1)
            alpha = [v for v in range(k - 1, -1, -1) for _ in range(2)]
            contents = range(1 - 2 * k, 1)
            return [
                "--format",
                "json",
                "jack",
                "construct",
                "--alpha",
                ",".join(map(str, alpha)),
                "--tableau-contents=" + ",".join(map(str, contents)),
                "--kappa",
                "1/3",
            ]
        raise ValueError(f"workload {self.name} does not run the CLI")

    def check(self, stdout: bytes) -> str | None:
        """Why the output is wrong, or None when it is right."""
        if self.sha256 is not None:
            digest = hashlib.sha256(stdout).hexdigest()
            if digest != self.sha256:
                return f"stdout sha256 {digest} != recorded {self.sha256}"
        try:
            doc = json.loads(stdout)
        except ValueError as exc:
            return f"stdout is not JSON: {exc}"
        if self.kind == "certify":
            ok = doc.get("verified") is True and doc.get("family_size") == self.expect
        elif self.kind == "construct":
            ok = (
                len(doc.get("polynomial", ())) == self.expect
                and doc.get("monomials") == self.expect
                and "specialized" in doc
            )
        else:
            ok = doc.get("equations") == self.expect
        return None if ok else f"expected count {self.expect} not found in the output"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "certify_m2k2",
            "certify",
            2,
            2,
            expect=14,
            sha256="7abbc0db98aea11e1dd7d9dea9635bb863c0015a6b6e0239c23c79b74d5b6407",
        ),
        Workload("generic_m1k3", "generic", 1, 3, expect=30),
        Workload(
            "construct_m1k4",
            "construct",
            1,
            4,
            expect=5782,
            sha256="d3ac4387699b7c4dc45bd3bba7ab83b82e9f21dc4c06e82b21021401077225db",
        ),
    )
}

# The same three kinds at (m, k) = (1, 2), for the benchmark's tests.
SMALL = {
    "certify_m2k2": Workload("certify_m1k2", "certify", 1, 2, expect=2),
    "generic_m1k3": Workload("generic_m1k2", "generic", 1, 2, expect=8),
    "construct_m1k4": Workload("construct_m1k2", "construct", 1, 2, expect=6),
}
