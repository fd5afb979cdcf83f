/**
 * @file
 * Multi-channel D-RaNGe: one engine per independent DRAM channel, with
 * thread-parallel harvesting. The paper reports its headline 717.4 Mb/s
 * (max) / 435.7 Mb/s (average) numbers for a 4-channel memory system by
 * scaling the single-channel rate; this class *measures* the aggregate
 * instead, since channels have independent command/data buses and their
 * simulated clocks advance in parallel.
 *
 * generate() is a thin drain of core::StreamingTrng: it plans a
 * deterministic round budget per channel up front, harvests every
 * channel concurrently (one producer thread per channel, chunks handed
 * through a bounded queue), and reassembles the per-channel chunk
 * streams in channel-concatenated order. The serial round-robin
 * harvester is kept as HarvestMode::Serial: it runs the identical
 * round plan on one producer thread and therefore produces
 * bit-identical output, which makes it the reference baseline for the
 * parallel speedup bench (bench/multichannel_parallel.cc). Callers
 * that want overlapped conditioning/validation instead of a batch
 * result should construct a StreamingTrng over this object directly.
 */

#ifndef DRANGE_CORE_MULTICHANNEL_HH
#define DRANGE_CORE_MULTICHANNEL_HH

#include <memory>
#include <vector>

#include "core/drange.hh"

namespace drange::core {

/**
 * How MultiChannelTrng::generate drives its channels. Both modes merge
 * the per-channel streams by concatenating whole channel blocks (ch0's
 * bits, then ch1's, ...), which differs from the pre-refactor
 * round-interleaved order; the bits are iid so the statistical quality
 * is unchanged, but streams are not bit-compatible with older builds.
 */
enum class HarvestMode
{
    Serial,   //!< Single-thread round-robin harvesting baseline.
    Parallel, //!< One harvesting thread per channel (default).
};

/**
 * Aggregates per-channel D-RaNGe engines.
 */
class MultiChannelTrng
{
  public:
    /**
     * Build one device + engine per channel.
     *
     * @param base_config Device configuration template; each channel
     *        gets a distinct die seed derived from it.
     * @param channels Number of independent channels.
     * @param config Engine configuration shared by the channels.
     * @param mode Serial baseline or thread-parallel harvesting. Both
     *        modes produce bit-identical output for the same request.
     */
    MultiChannelTrng(const dram::DeviceConfig &base_config, int channels,
                     const DRangeConfig &config,
                     HarvestMode mode = HarvestMode::Parallel);

    /** Initialize every channel (profiling + identification). */
    void initialize();

    /**
     * Generate exactly @p num_bits bits.
     *
     * The per-channel round budget is planned round-robin up front, so
     * no channel runs a full wasted sweep once the target is met, and
     * the merged stream is truncated to exactly @p num_bits.
     *
     * @throws std::logic_error if initialize() has not been called or a
     *         channel harvests zero bits per round (the former
     *         implementation span forever in that case).
     */
    util::BitStream generate(std::size_t num_bits);

    int channels() const { return static_cast<int>(engines_.size()); }

    /** Bits per full round across all channels. */
    int bitsPerRound() const;

    /**
     * Aggregate throughput of the last generate() in Mbit/s: total
     * harvested bits over the *wall-clock* simulated interval, which is
     * the maximum of the per-channel intervals since channels run
     * concurrently.
     */
    double throughputMbps() const;

    /** Host (real) time spent inside the last generate(), in ms. */
    double hostWallClockMs() const { return host_ms_; }

    DRangeTrng &channel(int idx) { return *engines_.at(idx); }

  private:
    std::vector<std::unique_ptr<dram::DramDevice>> devices_;
    std::vector<std::unique_ptr<DRangeTrng>> engines_;
    HarvestMode mode_ = HarvestMode::Parallel;
    std::uint64_t bits_ = 0;
    double duration_ns_ = 0.0;
    double host_ms_ = 0.0;
};

} // namespace drange::core

#endif // DRANGE_CORE_MULTICHANNEL_HH
