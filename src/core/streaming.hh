/**
 * @file
 * Streaming D-RaNGe: producer/consumer pipeline that overlaps
 * harvesting with post-processing.
 *
 * The paper's throughput numbers (Figure 8, Table 2) assume continuous
 * bank-pipelined harvesting; the batch generate() API serialized
 * harvest -> condition -> validate. StreamingTrng instead runs
 * harvesting on one producer thread per channel (or a single
 * round-robin thread in serial mode), hands round-aligned chunks
 * through a bounded util::ChunkQueue, and applies the conditioning
 * pipeline -- any composition of trng::ConditioningStage instances,
 * e.g. von Neumann -> SP 800-90B health tests, or SHA-256 -- on the
 * consumer side while later chunks are still being harvested.
 * Conditioning runs inline on the consumer thread: it is a small
 * fraction of harvest time, so overlapping it with the harvest is all
 * the parallelism it needs.
 *
 * Bounded sessions (start()/generate()) emit bits in a deterministic
 * order -- each channel's bits in harvest order, channels concatenated
 * -- so a raw-conditioned streaming drain is bit-identical to the
 * legacy batch generate() of both DRangeTrng and MultiChannelTrng,
 * which are now thin wrappers over this class. Continuous sessions
 * (startContinuous()) instead deliver chunks in arrival order so that
 * memory stays bounded while the stream runs forever.
 *
 * Every session launch sets each engine's command-trace recording for
 * its kind. Continuous sessions record nothing: nothing reads their
 * trace, so launch clears it and the scheduler only counts commands
 * (refsIssued(), totalLogged()) and dispatches them to its plugins.
 * Bounded sessions record every command, because the energy model
 * reads their whole trace. One stream can therefore alternate between
 * the two kinds.
 */

#ifndef DRANGE_CORE_STREAMING_HH
#define DRANGE_CORE_STREAMING_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "core/drange.hh"
#include "trng/conditioning.hh"
#include "trng/params.hh"
#include "util/chunk_queue.hh"

namespace drange::core {

class MultiChannelTrng;

/** One hand-off unit between a producer and the consumer. */
struct StreamChunk
{
    int channel = 0;
    std::uint64_t seq = 0; //!< Per-channel chunk sequence number.
    bool last = false;     //!< Final chunk of this channel's session.
    util::BitStream bits;
};

struct StreamingConfig
{
    /** Producers push once they have at least this many bits buffered
     * (chunks end on harvest-round boundaries, so they may be slightly
     * larger). */
    std::size_t chunk_bits = 8192;

    /** Queue depth before harvesting blocks on conditioning. */
    std::size_t queue_capacity = 8;

    /**
     * Conditioning pipeline as an ordered list of registered stage
     * names (trng::makeStage: "raw", "vonneumann", "sha256",
     * "health", plus anything registered at runtime). Empty means raw
     * passthrough, which is the zero-copy batch-generate() hot path.
     * Programmatically built stages (custom, unregistered) go through
     * StreamingTrng::setConditioning instead.
     */
    std::vector<std::string> conditioning;

    /** Parameters handed to every conditioning-stage factory (e.g.
     * "health_alpha" for the SP 800-90B stage). */
    trng::Params stage_params;

    /** Drive all channels from one round-robin producer thread
     * (HarvestMode::Serial) instead of one thread per channel. */
    bool serial_producer = false;
};

/** Per-engine harvest measurements of one session. */
struct ProducerStats
{
    std::uint64_t rounds = 0;
    std::uint64_t bits = 0;
    double start_ns = 0.0;
    double end_ns = 0.0;
    double first_word_ns = 0.0; //!< Sim time to the first 64 bits.

    double durationNs() const { return end_ns - start_ns; }
};

/** Aggregate measurements of one streaming session. */
struct StreamingStats
{
    std::uint64_t raw_bits = 0;  //!< Harvested bits consumed.
    std::uint64_t out_bits = 0;  //!< Bits after conditioning.
    std::uint64_t chunks = 0;    //!< Non-empty chunks delivered.
    double host_ms = 0.0;        //!< Wall clock start() -> stop().

    /**
     * Per-conditioning-stage entropy accounting: bits in/out and
     * input/output Shannon entropy at every stage boundary, plus
     * SP 800-90B alarm counts for health stages. Snapshotted from the
     * pipeline at stop(); one entry per stage, in composition order.
     */
    std::vector<trng::StageAccounting> stages;

    /** False once any health-test stage in the pipeline alarmed. */
    bool healthy = true;
};

/**
 * Producer/consumer streaming TRNG over one or more D-RaNGe engines.
 *
 * Producers own their engine (device, scheduler, selection) for the
 * whole session; the consumer side (nextChunk()/drain()) must be
 * driven from a single thread.
 */
class StreamingTrng
{
  public:
    /** Stream from @p engines; all must be initialize()d. */
    StreamingTrng(std::vector<DRangeTrng *> engines,
                  const StreamingConfig &config);

    /** Single-engine convenience constructor. */
    explicit StreamingTrng(DRangeTrng &engine,
                           const StreamingConfig &config = {});

    /** Stream from every channel of @p trng. */
    explicit StreamingTrng(MultiChannelTrng &trng,
                           const StreamingConfig &config = {});

    ~StreamingTrng();

    StreamingTrng(const StreamingTrng &) = delete;
    StreamingTrng &operator=(const StreamingTrng &) = delete;

    /**
     * Start a bounded session harvesting at least @p min_raw_bits
     * (rounded up to full rounds, planned round-robin across engines
     * exactly like the batch API). Chunks are delivered in
     * deterministic channel-concatenated order.
     */
    void start(std::size_t min_raw_bits);

    /**
     * Start an unbounded session: producers harvest until stop().
     * Chunks are delivered in arrival order (deterministic per channel,
     * interleaving across channels is scheduling-dependent).
     */
    void startContinuous();

    /**
     * Next conditioned chunk, blocking on the producers if necessary.
     * @return nullopt once the session is exhausted or stopped.
     */
    std::optional<util::BitStream> nextChunk();

    /** Concatenate every remaining chunk of the session. */
    util::BitStream drain();

    /** start() + drain() + stop(): the batch API as a streaming drain. */
    util::BitStream generate(std::size_t min_raw_bits);

    /** End the session: closes the queue and joins the producers.
     * Rethrows the first producer error, if any. */
    void stop();

    /**
     * Replace the conditioning pipeline (e.g. with custom
     * trng::ConditioningStage implementations that are not registered
     * by name). Only allowed between sessions.
     */
    void setConditioning(trng::ConditioningPipeline pipeline);

    /** The conditioning pipeline (per-stage health state and live
     * accounting). */
    const trng::ConditioningPipeline &conditioning() const
    {
        return pipeline_;
    }

    bool running() const { return running_; }
    int engines() const { return static_cast<int>(engines_.size()); }

    /**
     * Producer chunk size currently in effect. Unlike the rest of
     * StreamingConfig this is adjustable mid-session (producers pick
     * up the new size at their next chunk boundary): the adaptive
     * chunk sizing in trng::Service grows it when the pipeline is
     * throughput-bound and shrinks it when consumers need latency.
     */
    std::size_t chunkBits() const
    {
        return chunk_bits_.load(std::memory_order_relaxed);
    }
    void setChunkBits(std::size_t bits)
    {
        chunk_bits_.store(bits ? bits : 1, std::memory_order_relaxed);
    }

    // Live backpressure view of the hand-off queue (zeros between
    // sessions). Like nextChunk(), call from the consumer thread only:
    // stop()/launch() swap the queue out underneath other threads.
    std::size_t queueDepth() const { return queue_ ? queue_->size() : 0; }
    std::size_t queueCapacity() const
    {
        return queue_ ? queue_->capacity() : config_.queue_capacity;
    }

    /**
     * Round budget per engine covering @p min_raw_bits, handed out
     * round-robin (budgets differ by at most one round; overshoot is
     * less than one round). This is the plan both harvest modes and the
     * batch generate() wrappers execute.
     */
    std::vector<int> planRounds(std::size_t min_raw_bits) const;

    const StreamingStats &stats() const { return stats_; }
    const ProducerStats &producerStats(int engine) const
    {
        return producer_stats_.at(static_cast<std::size_t>(engine));
    }

  private:
    void launch(std::vector<int> rounds, bool continuous);
    void producerLoop(std::size_t engine_idx, int rounds, bool continuous);
    void serialProducerLoop(std::vector<int> rounds, bool continuous);
    int harvestRound(std::size_t engine_idx, util::BitStream &pending);
    bool pushPending(std::size_t engine_idx, util::BitStream &pending,
                     bool last);
    void joinProducers();
    std::optional<StreamChunk> nextRawChunk();
    std::optional<util::BitStream> flushConditioning();

    std::vector<DRangeTrng *> engines_;
    StreamingConfig config_;
    std::atomic<std::size_t> chunk_bits_{1};

    // Recreated per session: close() is one-way on a ChunkQueue.
    std::unique_ptr<util::ChunkQueue<StreamChunk>> queue_;
    std::atomic<int> live_producers_{0};
    std::vector<std::thread> producers_;
    std::vector<std::exception_ptr> producer_errors_;
    std::vector<ProducerStats> producer_stats_;
    std::vector<std::uint64_t> next_seq_;

    // Consumer-side session state.
    bool running_ = false;
    bool ordered_ = true; //!< Deterministic channel-major delivery.
    bool flushed_ = false; //!< Conditioning tail already emitted.
    std::size_t current_channel_ = 0;
    std::uint64_t expected_seq_ = 0;
    std::map<std::pair<int, std::uint64_t>, StreamChunk> stash_;
    trng::ConditioningPipeline pipeline_;
    std::chrono::steady_clock::time_point host_start_;

    StreamingStats stats_;
};

} // namespace drange::core

#endif // DRANGE_CORE_STREAMING_HH
