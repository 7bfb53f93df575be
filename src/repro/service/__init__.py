"""Multi-tenant HPO service mode (``repro serve``).

Runs many concurrent studies from many tenants over one shared COMPSs
runtime and resource pool, with three guarantees the paper's single-study
driver cannot give:

* **Fault isolation** — each study gets a namespaced journal/checkpoint
  directory and its own resilience budget; a tenant's crash-looping
  objective terminates *that study only* while its neighbours' placements
  and best configs match a solo run.
* **Admission control** — a bounded study queue, per-tenant quotas on
  concurrent studies and cluster slots, and fair-share + priority
  scheduling across studies inside the dispatch engine; a watchdog sheds
  queued load before the daemon hits its memory ceiling.
* **Whole-daemon crash recovery** — SIGKILL the daemon mid-flight,
  restart it, and every tenant resumes exactly-once from its own journal.

Clients talk to the daemon over a file-spool protocol (works over any
shared filesystem — the natural transport on the paper's HPC clusters,
where a login-node daemon and compute-side clients share ``$HOME``).
"""

from repro.util.lazy import lazy_surface

__getattr__, __dir__ = lazy_surface(__name__, {
    "admission": ("AdmissionConfig", "AdmissionController"),
    "client": ("ServiceClient",),
    "daemon": ("HPOService",),
    "errors": (
        "ClientTimeoutError", "QueueFullError", "ServiceError",
        "ServiceOverloadedError", "StudyCancelledError", "StudyConflictError",
        "StudyFailedError", "StudyNotFoundError", "TenantQuotaError",
    ),
    "protocol": ("StudyRequest",),
})

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "ServiceClient",
    "HPOService",
    "StudyRequest",
    "ServiceError",
    "QueueFullError",
    "TenantQuotaError",
    "ServiceOverloadedError",
    "StudyConflictError",
    "StudyNotFoundError",
    "ClientTimeoutError",
    "StudyCancelledError",
    "StudyFailedError",
]
