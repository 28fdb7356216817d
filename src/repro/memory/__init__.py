"""Memory-system substrate: caches, coalescer, DRAM, and the hierarchy."""

from repro._lazy import attach

__all__, __getattr__, __dir__ = attach(
    __name__,
    {
        "repro.memory.cache": ("Cache", "CacheStats"),
        "repro.memory.coalescer": ("coalesce", "coalescing_degree"),
        "repro.memory.dram": ("DRAM", "DRAMStats"),
        "repro.memory.hierarchy": ("AccessResult", "MemoryHierarchy"),
    },
)
