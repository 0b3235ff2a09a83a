from .decoder import (
    DecodeError,
    Decoder,
    DecoderConfig,
    Frame,
    decode_container,
)
from .jobs import Job, build_job_graph, ref_filter_row, wavefront_deps

__all__ = [
    "DecodeError",
    "Decoder",
    "DecoderConfig",
    "Frame",
    "Job",
    "build_job_graph",
    "decode_container",
    "ref_filter_row",
    "wavefront_deps",
]
