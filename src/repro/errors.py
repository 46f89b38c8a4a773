"""Exception hierarchy for the LOGAN reproduction library.

All library-raised exceptions derive from :class:`ReproError` so that callers
can catch everything coming out of the package with a single ``except``
clause while still being able to discriminate between configuration problems,
data problems and resource-model problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the ``repro`` package."""


class ConfigurationError(ReproError):
    """Raised when a user-supplied configuration value is invalid.

    Examples include a negative X-drop threshold, a zero-length scoring
    alphabet, or a GPU device specification with no streaming
    multiprocessors.
    """


class SequenceError(ReproError):
    """Raised when an input sequence cannot be interpreted.

    Sequences must be non-empty strings or ``uint8`` arrays over the DNA
    alphabet (``ACGTN``, case-insensitive).  Anything else raises this error
    at encoding time rather than producing silently wrong alignments.
    """


class AlignmentError(ReproError):
    """Raised when an alignment kernel is asked to do something impossible.

    For instance extending from a seed that lies outside either sequence, or
    batching zero alignments onto a GPU model.
    """


class ResourceModelError(ReproError):
    """Raised when the GPU execution model cannot place a kernel.

    Typical causes: a block requesting more shared memory than the device
    has per SM, more threads per block than the hardware maximum, or a batch
    whose anti-diagonal buffers exceed device HBM capacity on every device of
    a multi-GPU system.
    """


class DatasetError(ReproError):
    """Raised for malformed FASTA/FASTQ input or impossible dataset presets."""


class ServiceError(ReproError):
    """Raised by the asynchronous alignment service.

    Typical causes: submitting to a service that has been shut down, or a
    bounded submission queue staying full past the backpressure timeout.
    """


class PoolWorkerError(ReproError):
    """Raised when a worker of the process pool dies during a split call.

    The call fails and the broken pool is dropped; the next split starts a
    fresh one.  A worker killed from outside or out of memory dies this
    way, and so does every worker of a script that starts a split without
    an ``if __name__ == "__main__":`` guard: spawned workers re-import the
    main module.
    """
