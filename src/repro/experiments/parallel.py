"""Worker-count and seeding primitives shared by the experiment layer.

This is a *leaf* module (it imports nothing from the rest of the package) so
that every experiment entry point — the sweep orchestrator, the measurement
helpers, the confidence wrapper, the CLIs — can share one worker-count and
seeding vocabulary without import cycles.

Design rules, enforced here once:

* **One executor.**  Work units fan out through
  :func:`~repro.experiments.resilience.map_resilient` only; it returns
  results in submission order, whatever order the workers finished in, so a
  parallel run assembles exactly the sequence a serial run would have
  produced.  ``workers=1`` (or a single item) never touches
  ``multiprocessing`` — the map runs in-process, which keeps single-worker
  behaviour identical on platforms where process pools are unavailable
  (and makes ``workers=1`` the bit-identical reference for the
  differential tests).
* **Stable seeding.**  :func:`stable_seed` replaces the fragile
  ``tuple.__hash__() & 0x7FFFFFFF`` idiom: tuple hashing is an implementation
  detail of the interpreter (and is randomized for strings), so seeds derived
  from it are not reproducible across Python versions or ``PYTHONHASHSEED``
  settings.  SHA-256 over a canonical encoding is stable everywhere, which is
  also what lets a worker process re-derive the exact RNG stream for a work
  unit from ``(base_seed, point_index, instance_index)`` alone.
"""

from __future__ import annotations

import argparse
import hashlib
from typing import List, Tuple, Union

__all__ = [
    "stable_seed",
    "resolve_workers",
    "parse_workers",
    "partition_trials",
    "workers_from_env",
]

#: Separator for the canonical :func:`stable_seed` encoding.  An ASCII unit
#: separator cannot appear in the decimal/str renderings being joined, so the
#: encoding of a component sequence is injective.
_SEED_SEPARATOR = "\x1f"

#: The mixed seed is truncated to 63 bits: positive, and small enough for any
#: consumer that stores seeds in an int64 column.
_SEED_MASK = (1 << 63) - 1


def stable_seed(*components: Union[int, str]) -> int:
    """Mix integers/strings into a deterministic 63-bit seed.

    The mixing is SHA-256 over a canonical, type-tagged encoding of the
    components, so it is stable across Python versions, interpreters,
    ``PYTHONHASHSEED`` values and processes — unlike ``hash(tuple)``, which
    this function replaces in the sweep harness.  Type tags keep ``1`` and
    ``"1"`` distinct; the pinned-value tests in
    ``tests/test_orchestrator.py`` freeze the function's outputs so any
    accidental change to the encoding fails loudly.
    """
    parts: List[str] = []
    for component in components:
        if isinstance(component, bool) or not isinstance(component, (int, str)):
            raise TypeError(
                f"stable_seed components must be int or str, got {component!r}"
            )
        tag = "i" if isinstance(component, int) else "s"
        parts.append(f"{tag}:{component}")
    payload = _SEED_SEPARATOR.join(parts).encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big") & _SEED_MASK


def resolve_workers(workers: Union[int, str]) -> int:
    """Coerce a worker count: a positive int, or ``"auto"`` (≈ CPU count).

    ``"auto"`` resolves to ``os.cpu_count()`` (at least 1, and 1 on
    platforms where the count is unknown) — the headline multi-core
    configuration without hard-coding a number.  Anything else must be a
    positive integer, returned unchanged.  Every ``workers=`` parameter in
    the package funnels through here, so ``"auto"`` works uniformly in
    ``run_sweep``, ``measure_suite``, the runner CLI (``--workers auto``)
    and the ``OSP_BENCH_WORKERS`` benchmark knob.
    """
    if workers == "auto":
        import os

        return max(1, os.cpu_count() or 1)
    if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
        raise ValueError(
            f"workers must be a positive integer or 'auto', got {workers!r}"
        )
    return workers


def parse_workers(value: str) -> Union[int, str]:
    """The argparse ``type=`` of every ``--workers`` option: ``N`` or ``auto``.

    Returns ``"auto"`` or a positive int, so the value passes straight to any
    ``workers=`` parameter; anything else is a usage error (exit code 2).

    >>> parse_workers("auto"), parse_workers("3")
    ('auto', 3)
    >>> parse_workers("two")
    Traceback (most recent call last):
    ...
    argparse.ArgumentTypeError: workers must be a positive integer or 'auto', got 'two'
    """
    if value == "auto":
        return value
    try:
        return resolve_workers(int(value))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"workers must be a positive integer or 'auto', got {value!r}"
        ) from None


def workers_from_env(name: str = "OSP_BENCH_WORKERS", default: int = 1) -> int:
    """Read a worker count from an environment variable (benchmark knob).

    The value is an integer or the literal ``auto`` (≈ CPU count), the same
    vocabulary as every ``workers=`` parameter.
    """
    import os

    raw = os.environ.get(name)
    try:
        return resolve_workers(default if raw is None else parse_workers(raw.strip()))
    except argparse.ArgumentTypeError as error:
        raise ValueError(f"{name}: {error}") from None


def partition_trials(trials: int, workers: int) -> List[Tuple[int, int]]:
    """Split ``trials`` into contiguous ``(offset, count)`` chunks.

    The chunks cover ``0..trials-1`` in order, one chunk per worker (fewer if
    ``trials < workers``).  Because both engines seed trial ``b`` as
    ``seed + b``, a chunk ``(offset, count)`` simulated with ``seed + offset``
    reproduces exactly trials ``offset..offset+count-1`` of the serial run —
    concatenating the chunks in order is therefore *bit-identical* to the
    serial benefit sequence, not merely statistically equivalent.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    workers = resolve_workers(workers)
    chunks = min(workers, trials)
    base, extra = divmod(trials, chunks)
    partition: List[Tuple[int, int]] = []
    offset = 0
    for index in range(chunks):
        count = base + (1 if index < extra else 0)
        partition.append((offset, count))
        offset += count
    return partition
