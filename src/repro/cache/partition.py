"""Per-tenant cache partitioning (QoS) for the serving layer.

The serve extension (``repro.serve``, DESIGN.md Section 12) runs N tenants
against one shared DRAM cache.  A :class:`CachePartition` maps backing
files to tenants and assigns each tenant a page quota; victim selection
then *prefers* pages of over-quota tenants while preserving LRU order
within each preference class.  Quotas are soft: a tenant may exceed its
quota while others underuse theirs (the cache never idles frames), but
under pressure the over-quota tenant pays the evictions first — the same
contract as cgroup soft limits.

Three policies, selected by the serve configuration:

* ``none`` — no partition object is installed; victim selection is the
  plain global LRU (the paper's configuration);
* ``static`` — every tenant gets an equal share of the cache;
* ``proportional`` — quotas proportional to each tenant's offered arrival
  rate, so heavier (but admitted) tenants earn proportionally more cache.

Determinism: :meth:`CachePartition.victim_order` is a pure reordering of
the LRU's cold-to-hot key list driven only by resident-page counts, so it
is bit-identical across executor modes and worker counts like every other
cache decision (the serve conformance tier covers it).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

#: Victim-selection policies understood by the serve layer.
POLICIES = ("none", "static", "proportional")


class CachePartition:
    """File-to-tenant map plus per-tenant page quotas.

    Installed on a cache as ``cache.partition``; ``pick_victims`` consults
    it to reorder eviction candidates.  The attribute is deliberately
    non-numeric so it stays out of the conformance digests' numeric-state
    sweep (only its *effects* on cache contents are digested).
    """

    def __init__(self, policy: str) -> None:
        if policy not in POLICIES:
            raise ValueError(f"unknown partition policy: {policy!r}")
        if policy == "none":
            raise ValueError("policy 'none' means: install no partition")
        self.policy = policy
        self._tenant_of_file: Dict[int, str] = {}
        self._quota_pages: Dict[str, int] = {}

    def assign(self, file_id: int, tenant: str) -> None:
        """Attribute all pages of ``file_id`` to ``tenant``."""
        self._tenant_of_file[file_id] = tenant

    def set_quota(self, tenant: str, quota_pages: int) -> None:
        """Set ``tenant``'s soft quota in pages."""
        if quota_pages < 0:
            raise ValueError("quota must be non-negative")
        self._quota_pages[tenant] = quota_pages

    def quotas(self) -> Dict[str, int]:
        """Copy of the quota table (for payloads and tests)."""
        return dict(self._quota_pages)

    def victim_order(
        self,
        keys: Iterable[Tuple[int, int]],
        resident: Iterable[Tuple[int, int]],
    ) -> List[Tuple[int, int]]:
        """Reorder cold-to-hot ``keys`` to evict over-quota tenants first.

        ``resident`` iterates the cache's resident page keys
        (``(file_id, file_page)``); per-tenant resident counts decide who
        is over quota.  Keys of over-quota tenants are preferred, in LRU
        order, and the preference for a tenant stops as soon as enough of
        its keys have been selected to bring it back to quota (the count
        is decremented per selected key).  All remaining keys follow,
        still in LRU order, so selection beyond the over-quota surplus
        degrades gracefully to the global LRU.
        """
        counts: Dict[str, int] = {}
        for key in resident:
            tenant = self._tenant_of_file.get(key[0])
            if tenant is not None:
                counts[tenant] = counts.get(tenant, 0) + 1
        preferred: List[Tuple[int, int]] = []
        rest: List[Tuple[int, int]] = []
        for key in keys:
            tenant = self._tenant_of_file.get(key[0])
            quota = self._quota_pages.get(tenant) if tenant is not None else None
            if quota is not None and counts.get(tenant, 0) > quota:
                preferred.append(key)
                counts[tenant] -= 1
            else:
                rest.append(key)
        return preferred + rest
