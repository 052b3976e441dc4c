"""Input buffer overrun.

A router's input VC holds at most ``input_queue_depth`` flits
(:mod:`repro.router.base` keeps them in flat per-router tables).  A flit
arriving at a full input VC raises immediately (§IV-D -- buffers never
silently overrun): upstream sent it without a credit.
"""


class BufferOverrunError(RuntimeError):
    """Raised when a flit arrives at a full input buffer."""
