/**
 * @file
 * The unified TRNG interface.
 *
 * The repo grows one entropy mechanism per paper section -- D-RaNGe
 * itself (continuous harvest, and idle-slot harvest under workload
 * traffic) plus the three prior-work baselines Table 2 compares
 * against -- and each historically exposed its own
 * config/stats/generate() shape.
 * EntropySource gives them one: a bounded generate(), an optional
 * continuous streaming session, and a uniform SourceStats view
 * (throughput / latency / energy / entropy), so benches, examples, and
 * services select a backend by registry name (see trng::Registry)
 * instead of hand-rolling per-class plumbing.
 */

#ifndef DRANGE_TRNG_ENTROPY_SOURCE_HH
#define DRANGE_TRNG_ENTROPY_SOURCE_HH

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "trng/conditioning.hh"
#include "util/bitstream.hh"

namespace drange::trng {

/** Static description of a source. */
struct SourceInfo
{
    std::string name;        //!< Registry key ("drange", ...).
    std::string description; //!< One-line human description.
    bool streaming = true;   //!< Supports startContinuous().
};

/**
 * Uniform measurements of a source's most recent activity (the last
 * bounded generate(), or the session so far / just ended when
 * streaming). Fields a mechanism cannot measure stay at their
 * "unknown" defaults (0, or NaN for energy).
 */
struct SourceStats
{
    std::uint64_t bits = 0;      //!< Bits delivered to the caller.
    double sim_ns = 0.0;         //!< Simulated time spent harvesting.
    double host_ms = 0.0;        //!< Host wall clock, when measured.
    double latency64_ns = 0.0;   //!< Sim time to the first 64 bits.
    double shannon_entropy = 0.0; //!< Of the delivered stream (b/bit).
    double min_entropy = 0.0;     //!< 3-bit-symbol min-entropy (b/bit).

    /** Energy per delivered bit in nJ; NaN when the mechanism has no
     * energy model. */
    double energy_nj_per_bit =
        std::numeric_limits<double>::quiet_NaN();

    /** Per-conditioning-stage accounting (sources with a conditioning
     * pipeline). */
    std::vector<StageAccounting> stages;

    /** Delivered throughput over simulated time, Mbit/s. */
    double throughputMbps() const
    {
        return sim_ns > 0.0
                   ? static_cast<double>(bits) / sim_ns * 1000.0
                   : 0.0;
    }
};

/**
 * Live pressure view of a source's internal producer->consumer hand-off
 * (the streaming pipeline's util::ChunkQueue). Sources without an
 * internal queue report all-zero stats. Consumed by trng::Service's
 * adaptive chunk sizing; read it from the thread driving nextChunk().
 */
struct BackpressureStats
{
    std::size_t queue_depth = 0;    //!< Chunks buffered right now.
    std::size_t queue_capacity = 0; //!< Queue bound (0: no queue).
};

/**
 * Abstract TRNG. Implementations own their simulated device(s);
 * construction happens through trng::Registry so the whole stack is
 * selectable from flat Params.
 *
 * Streaming contract: startContinuous() opens an unbounded session and
 * nextChunk() blocks for conditioned chunks until stop(). Sources
 * whose mechanism cannot stream (info().streaming == false, e.g. the
 * startup-values TRNG, which needs a power cycle per batch) throw
 * std::logic_error from startContinuous(). The base class implements
 * the session by repeated bounded generate() calls; genuinely
 * pipelined sources ("drange", which runs one continuous harvest
 * producer per session) override all three methods.
 */
class EntropySource
{
  public:
    virtual ~EntropySource() = default;

    virtual const SourceInfo &info() const = 0;

    /** Generate at least @p num_bits bits (mechanisms round up to
     * their natural batch: harvest rounds, 256-bit hashes, ...). */
    virtual util::BitStream generate(std::size_t num_bits) = 0;

    /** Open an unbounded streaming session.
     * @throws std::logic_error if the source cannot stream or a
     *         session is already open. */
    virtual void startContinuous();

    /** Next chunk of the open session; nullopt once stopped. */
    virtual std::optional<util::BitStream> nextChunk();

    /** Close the streaming session (idempotent). */
    virtual void stop();

    /** Measurements of the most recent generate() or session. */
    virtual SourceStats stats() const = 0;

    /**
     * Streaming-session chunk size in bits. Adjustable mid-session
     * (producers pick the new size up at their next chunk boundary):
     * this is the knob trng::Service's adaptive chunk sizing turns.
     */
    virtual std::size_t chunkBits() const
    {
        return continuous_chunk_bits_;
    }
    virtual void setChunkBits(std::size_t bits)
    {
        setContinuousChunkBits(bits);
    }

    /**
     * Live health verdict of the open session: false once a
     * SP 800-90B health stage in the source's conditioning pipeline
     * has latched an alarm. Sources without health monitoring always
     * report true. Call from the thread driving nextChunk() -- the
     * verdict reads state that thread mutates.
     */
    virtual bool healthy() const { return true; }

    /** Internal-queue backpressure of the open session (all zeros for
     * sources without an internal pipeline queue). */
    virtual BackpressureStats backpressure() const { return {}; }

    /**
     * Environment control: ambient temperature of the simulated
     * device(s) behind this source. Default no-op for mechanisms
     * without a device model. Unlike the rest of the interface this is
     * safe to call while a session is open, from any thread -- devices
     * latch the value at their next operation. sim::FaultInjector's
     * temperature events drive this.
     */
    virtual void setTemperature(double celsius) { (void)celsius; }

  protected:
    /** Chunk size served by the default generate()-backed session. */
    std::size_t continuousChunkBits() const
    {
        return continuous_chunk_bits_;
    }
    void setContinuousChunkBits(std::size_t bits)
    {
        continuous_chunk_bits_ = bits ? bits : 1;
    }

  private:
    bool continuous_ = false;
    std::size_t continuous_chunk_bits_ = 4096;
};

/** Fill the entropy fields of @p stats from a delivered stream
 * (Shannon from the ones fraction, min-entropy over 3-bit symbols,
 * both 0 for streams too short to estimate). */
void fillEntropyFields(SourceStats &stats, const util::BitStream &bits);

} // namespace drange::trng

#endif // DRANGE_TRNG_ENTROPY_SOURCE_HH
