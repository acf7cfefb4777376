"""Client side of the result service: HTTP access plus the two-tier cache.

:class:`CacheClient` is a thin stdlib-``urllib`` wrapper over the wire
protocol (conditional GET, publish PUT, stats).  :class:`RemoteCacheBackend`
stacks it behind an optional local
:class:`~repro.core.results.ResultCache` and duck-types the cache
contract :func:`~repro.core.runner.execute_with_cache` consumes
(``get``/``put``/``flush_stats``), so ``--cache-url`` drops into the
suite/sweep/fleet runners without touching orchestration code:

- lookup: local hit short-circuits (content-addressed keys cannot go
  stale, so local entries never *need* revalidation); a local miss tries
  the remote ``GET`` and writes a hit through to the local tier;
- compute: fresh results go to the local tier and are published to the
  service with ``PUT``, so every other worker's next miss becomes a hit.

With ``revalidate=True`` a local hit is additionally checked against the
service once per key per session — but conditionally: the entry's
canonical body bytes are the same bytes the service stores (both sides
serialise with ``json.dumps`` defaults), so its ETag is derivable
locally as the server's quoted sha256 and rides as ``If-None-Match``.
A ``304`` confirms the write-through for free (no body transfer,
counted in ``CacheClient.revalidated``); a ``200`` means the server
holds a different body, which is adopted and written through; a ``404``
means the server lost the entry, which is healed with a re-publish.

An unreachable service degrades, never fails: one warning, then the
remote tier is skipped for the rest of the process and the run proceeds
on local cache + simulation alone.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import warnings
from typing import TYPE_CHECKING
from urllib.error import HTTPError
from urllib.request import Request, urlopen

from repro.core.results import ResultCache, RunResult
from repro.errors import ConfigError

if TYPE_CHECKING:
    from repro.core.runner import RunConfig

#: Per-request timeout: a hung service must degrade like a down one.
DEFAULT_TIMEOUT = 10.0

#: Environment handshake deduplicating the unreachable-service warning
#: across a process pool: the first process to find a URL down exports
#: it here, and every worker spawned afterwards inherits the flag and
#: skips its own copy of the warning.
ENV_WARNED = "REPRO_CACHE_DOWN_WARNED"


class CacheClient:
    """Speaks the result-service wire protocol for one base URL."""

    def __init__(self, base_url: str, timeout: float = DEFAULT_TIMEOUT) -> None:
        if not base_url.startswith(("http://", "https://")):
            raise ConfigError(
                f"cache url must start with http:// or https://, "
                f"got {base_url!r}"
            )
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        #: Conditional GETs answered 304: revalidations served without
        #: a body transfer.
        self.revalidated = 0

    def _url(self, key: str) -> str:
        return f"{self.base_url}/result/{key}"

    def get_entry(
        self, key: str, etag: "str | None" = None
    ) -> "tuple[int, bytes | None, str | None]":
        """``(status, body, etag)`` for one entry.

        *etag* rides as ``If-None-Match``; 304 and 404 come back as
        statuses with ``body=None`` rather than exceptions — they are
        protocol outcomes, not failures.
        """
        request = Request(self._url(key))
        if etag is not None:
            request.add_header("If-None-Match", etag)
        try:
            with urlopen(request, timeout=self.timeout) as response:
                return (
                    response.status,
                    response.read(),
                    response.headers.get("ETag"),
                )
        except HTTPError as exc:
            with contextlib.closing(exc):
                if exc.code in (304, 404):
                    if exc.code == 304:
                        self.revalidated += 1
                    return exc.code, None, exc.headers.get("ETag")
                raise

    def put_entry(self, key: str, body: bytes) -> None:
        """Publish one entry body (raises on any non-2xx outcome)."""
        request = Request(
            self._url(key),
            data=body,
            method="PUT",
            headers={"Content-Type": "application/json"},
        )
        with urlopen(request, timeout=self.timeout) as response:
            response.read()

    def stats(self) -> dict:
        """The service's ``/stats`` counters."""
        with urlopen(f"{self.base_url}/stats", timeout=self.timeout) as response:
            return json.loads(response.read().decode("utf-8"))


class RemoteCacheBackend:
    """Two-tier result cache: optional local directory, remote service.

    Drop-in for a :class:`~repro.core.results.ResultCache` wherever the
    runners take one.  ``remote_hits``/``remote_misses`` count only
    lookups that actually reached the service (local hits never do).
    """

    def __init__(
        self,
        client: CacheClient,
        local: "ResultCache | None" = None,
        revalidate: bool = False,
    ) -> None:
        self.client = client
        self.local = local
        self.revalidate = revalidate
        self.remote_hits = 0
        self.remote_misses = 0
        self._down = False
        #: Keys whose local entry was confirmed against (or reconciled
        #: with) the service this session; each is revalidated once.
        self._validated: set[str] = set()

    # ------------------------------------------------------------------
    # The cache contract execute_with_cache consumes

    def get(self, bench_id: str, cfg: "RunConfig") -> "RunResult | None":
        if self.local is not None:
            hit = self.local.get(bench_id, cfg)
            if hit is not None:
                if self.revalidate:
                    return self._revalidated(bench_id, cfg, hit)
                return hit
        body = self._remote_get(ResultCache.key(bench_id, cfg))
        if body is None:
            self.remote_misses += 1
            return None
        try:
            result = RunResult.from_json_dict(json.loads(body.decode("utf-8")))
        except (ValueError, KeyError, TypeError, AttributeError):
            # A corrupt remote payload is a miss, exactly like a corrupt
            # local entry — recompute and heal it with the PUT.
            self.remote_misses += 1
            warnings.warn(
                f"discarding corrupt remote cache entry for {bench_id}",
                RuntimeWarning,
                stacklevel=2,
            )
            return None
        self.remote_hits += 1
        if self.local is not None:
            self.local.put(bench_id, cfg, result)
        return result

    def put(self, bench_id: str, cfg: "RunConfig", result: RunResult) -> None:
        if self.local is not None:
            self.local.put(bench_id, cfg, result)
        body = json.dumps(result.to_json_dict()).encode("utf-8")
        self._remote_put(ResultCache.key(bench_id, cfg), body)

    def _revalidated(
        self, bench_id: str, cfg: "RunConfig", hit: RunResult
    ) -> RunResult:
        """Check one local hit against the service, conditionally.

        The ETag is computed from the local entry's canonical bytes —
        the server's ETag scheme is the quoted sha256 of the stored
        body, and publish/write-through keep both sides' bytes equal —
        so a matching entry costs a 304, not a body transfer.  Any
        outcome (including a down service) still serves a result; each
        key is revalidated at most once per session.
        """
        key = ResultCache.key(bench_id, cfg)
        if self._down or key in self._validated:
            return hit
        body = json.dumps(hit.to_json_dict()).encode("utf-8")
        etag = '"' + hashlib.sha256(body).hexdigest() + '"'
        try:
            status, remote_body, _etag = self.client.get_entry(key, etag=etag)
        except OSError as exc:
            self._mark_down(exc)
            return hit
        self._validated.add(key)
        if status == 404:
            # The service lost (or never had) the entry: heal it.
            self._remote_put(key, body)
            return hit
        if status == 200 and remote_body is not None:
            # The server holds a different body.  Adopt it: the service
            # is the shared source of truth, and the next reader of the
            # local tier should agree with it.
            try:
                result = RunResult.from_json_dict(
                    json.loads(remote_body.decode("utf-8"))
                )
            except (ValueError, KeyError, TypeError, AttributeError):
                warnings.warn(
                    f"ignoring corrupt remote entry while revalidating "
                    f"{bench_id}",
                    RuntimeWarning,
                    stacklevel=3,
                )
                return hit
            if self.local is not None:
                self.local.put(bench_id, cfg, result)
            return result
        return hit

    def flush_stats(self) -> None:
        if self.local is not None:
            self.local.flush_stats()

    # ------------------------------------------------------------------

    def _remote_get(self, key: str) -> "bytes | None":
        if self._down:
            return None
        try:
            status, body, _etag = self.client.get_entry(key)
        except OSError as exc:
            self._mark_down(exc)
            return None
        return body if status == 200 else None

    def _remote_put(self, key: str, body: bytes) -> None:
        if self._down:
            return
        try:
            self.client.put_entry(key, body)
        except OSError as exc:
            self._mark_down(exc)

    def _mark_down(self, exc: Exception) -> None:
        """Warn once, then stop trying: computing locally is always a
        correct fallback, and one warning per run beats one per unit.

        "Once" means once per *run*, not once per process: ``--jobs N``
        spawns N pool workers that each rebuild this backend, and N
        copies of the same warning bury the signal.  The first process
        to find the URL down exports it via :data:`ENV_WARNED`; workers
        spawned after that inherit the flag and go quiet (they still
        mark the tier down for themselves).
        """
        self._down = True
        if os.environ.get(ENV_WARNED) == self.client.base_url:
            return
        os.environ[ENV_WARNED] = self.client.base_url
        warnings.warn(
            f"result service at {self.client.base_url} is unreachable "
            f"({exc}); continuing without the remote tier",
            RuntimeWarning,
            stacklevel=4,
        )
