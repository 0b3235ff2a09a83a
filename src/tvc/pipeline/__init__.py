from .decoder import (
    DecodeError,
    Decoder,
    DecoderConfig,
    Frame,
    decode_container,
)
from .jobs import Job, build_job_graph, gate_rows, wavefront_deps

__all__ = [
    "DecodeError",
    "Decoder",
    "DecoderConfig",
    "Frame",
    "Job",
    "build_job_graph",
    "decode_container",
    "gate_rows",
    "wavefront_deps",
]
