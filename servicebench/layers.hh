/**
 * @file
 * Per-layer timing for the traced run.
 *
 * The benchmark never edits the program: it measures layers from the
 * outside, at the boundaries the public API exposes.
 *
 *  - source: a decorator EntropySource, registered under its own
 *    registry name, wraps Registry::make("drange") and times every
 *    nextChunk() the Service's member workers pull.
 *  - conditioning: decorator stages, registered via registerStage,
 *    wrap the real "sha256" and "health" stages and time process().
 *
 * Counters are process-wide atomics. The source counter is read at the
 * traced window's edges; the stage counters cover the whole traced run
 * (the workload pass plus the keys passes), since bulk and fanout
 * exercise the health stage only there.
 */

#ifndef SERVICEBENCH_LAYERS_HH
#define SERVICEBENCH_LAYERS_HH

#include <atomic>
#include <cstdint>

namespace servicebench {

constexpr const char *kTracedSource = "servicebench.drange";
constexpr const char *kTracedSha256 = "servicebench.sha256";
constexpr const char *kTracedHealth = "servicebench.health";

/** Work and busy time of one layer boundary. */
struct LayerCounter
{
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> bits{0}; //!< Bits in (stages) / out
                                        //!< (source chunks).
    std::atomic<std::uint64_t> ns{0};   //!< Busy time inside the call.
    std::atomic<std::uint64_t> alarms{0}; //!< Health alarms raised.
};

struct LayerSnapshot
{
    std::uint64_t calls = 0, bits = 0, ns = 0, alarms = 0;

    LayerSnapshot operator-(const LayerSnapshot &earlier) const
    {
        return {calls - earlier.calls, bits - earlier.bits,
                ns - earlier.ns, alarms - earlier.alarms};
    }
    double nsPerBit() const
    {
        return bits ? static_cast<double>(ns) / static_cast<double>(bits)
                    : 0.0;
    }
};

LayerSnapshot snapshot(const LayerCounter &counter);

struct Layers
{
    LayerCounter source; //!< Decorated member nextChunk() calls.
    LayerCounter sha256;
    LayerCounter health;
};

Layers &layers();

/** Register the decorators (idempotent; call before a traced pool). */
void registerTracedLayers();

} // namespace servicebench

#endif // SERVICEBENCH_LAYERS_HH
