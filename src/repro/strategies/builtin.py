"""The registered I/O strategies.

The first four are the paper's own structures, migrated onto the
registry bit-identically (their ``build_spec`` calls the same builders
in :mod:`repro.core.pipeline`, and their readers reproduce the old
``_SlabReader`` behaviour exactly).  The rest use the strategy seam for
access methods the paper's MPI-IO lineage established later: deeper
prefetch pipelines, data sieving, and collective two-phase I/O.

Readers are imported inside ``make_reader``: listing or looking up a
strategy (the CLI parser, spec hashing) never loads numpy.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.pipeline import (
    build_embedded_pipeline,
    build_separate_io_pipeline,
    combine_pulse_cfar,
)
from repro.strategies.base import IOStrategy, register


def make_adaptive_reader(ctx, rlo: int, rhi: int, prefetch_depth: int = 1):
    """The classic access method: async 1-deep prefetch when the file
    system provides it (PFS), blocking reads otherwise (PIOFS)."""
    import repro.strategies.readers as readers

    if ctx.fileset.fs.supports_async:
        return readers.AsyncPrefetchReader(ctx, rlo, rhi, prefetch_depth)
    return readers.SyncReader(ctx, rlo, rhi)


@register
class EmbeddedIO(IOStrategy):
    """Figure 3: I/O embedded in the Doppler task; independent slab reads."""

    name = "embedded-io"

    def build_spec(self, assignment):
        return build_embedded_pipeline(assignment)

    def make_reader(self, ctx, rlo, rhi):
        return make_adaptive_reader(ctx, rlo, rhi)


@register
class SeparateIO(IOStrategy):
    """Figure 4: a dedicated parallel-read task; independent slab reads."""

    name = "separate-io"

    def build_spec(self, assignment):
        return build_separate_io_pipeline(assignment)

    def make_reader(self, ctx, rlo, rhi):
        return make_adaptive_reader(ctx, rlo, rhi)


@register
class EmbeddedIOCombined(IOStrategy):
    """Embedded I/O with pulse compression + CFAR combined (paper §6)."""

    name = "embedded-io+combined"

    def build_spec(self, assignment):
        return combine_pulse_cfar(build_embedded_pipeline(assignment))

    def make_reader(self, ctx, rlo, rhi):
        return make_adaptive_reader(ctx, rlo, rhi)


@register
class SeparateIOCombined(IOStrategy):
    """Separate I/O with pulse compression + CFAR combined (paper §6)."""

    name = "separate-io+combined"

    def build_spec(self, assignment):
        return combine_pulse_cfar(build_separate_io_pipeline(assignment))

    def make_reader(self, ctx, rlo, rhi):
        return make_adaptive_reader(ctx, rlo, rhi)


@register
class EmbeddedPrefetch2(IOStrategy):
    """Embedded I/O with a 2-deep asynchronous prefetch pipeline."""

    name = "embedded-prefetch2"
    requires_async = True

    def build_spec(self, assignment):
        return replace(build_embedded_pipeline(assignment), name=self.name)

    def make_reader(self, ctx, rlo, rhi):
        import repro.strategies.readers as readers

        return readers.AsyncPrefetchReader(ctx, rlo, rhi, prefetch_depth=2)


@register
class CollectiveTwoPhase(IOStrategy):
    """Two-phase collective reads: aligned chunks, then a mesh exchange."""

    name = "collective-two-phase"
    #: A dropped chunk would desynchronise every peer's exchange.
    supports_read_deadline = False

    def build_spec(self, assignment):
        return replace(build_embedded_pipeline(assignment), name=self.name)

    def make_reader(self, ctx, rlo, rhi):
        import repro.strategies.readers as readers

        return readers.TwoPhaseReader(ctx, rlo, rhi)


@register
class DataSieving(IOStrategy):
    """Data sieving: one whole-stripe-unit read per CPI, pad discarded."""

    name = "data-sieving"

    def build_spec(self, assignment):
        return replace(build_embedded_pipeline(assignment), name=self.name)

    def make_reader(self, ctx, rlo, rhi):
        import repro.strategies.readers as readers

        if ctx.fileset.fs.supports_async:
            return readers.SievingAsyncReader(ctx, rlo, rhi)
        return readers.SievingSyncReader(ctx, rlo, rhi)


@register
class ListIO(IOStrategy):
    """List I/O: a whole file window batched into one request per directory."""

    name = "list-io"
    requires_list_io = True
    #: A window's CPIs complete as one request; dropping one is undefined.
    supports_read_deadline = False

    def build_spec(self, assignment):
        return replace(build_embedded_pipeline(assignment), name=self.name)

    def make_reader(self, ctx, rlo, rhi):
        import repro.strategies.readers as readers

        return readers.ListIOReader(ctx, rlo, rhi)


@register
class ServerDirected(IOStrategy):
    """Server-directed placement: declared pattern reorganises the stripes."""

    name = "server-directed"

    def build_spec(self, assignment):
        return replace(build_embedded_pipeline(assignment), name=self.name)

    def make_reader(self, ctx, rlo, rhi):
        import repro.strategies.readers as readers

        readers.declare_access_pattern(ctx)
        return make_adaptive_reader(ctx, rlo, rhi)
