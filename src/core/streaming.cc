#include "core/streaming.hh"

#include <algorithm>
#include <stdexcept>

#include "core/multichannel.hh"
#include "nist/nist.hh"

namespace drange::core {

namespace {

std::vector<DRangeTrng *>
channelEngines(MultiChannelTrng &trng)
{
    std::vector<DRangeTrng *> engines;
    engines.reserve(static_cast<std::size_t>(trng.channels()));
    for (int ch = 0; ch < trng.channels(); ++ch)
        engines.push_back(&trng.channel(ch));
    return engines;
}

} // anonymous namespace

StreamingTrng::StreamingTrng(std::vector<DRangeTrng *> engines,
                             const StreamingConfig &config)
    : engines_(std::move(engines)), config_(config)
{
    if (engines_.empty())
        throw std::logic_error("StreamingTrng: no engines");
    for (const DRangeTrng *engine : engines_) {
        if (engine == nullptr || !engine->initialized() ||
            engine->bitsPerRound() <= 0) {
            throw std::logic_error(
                "StreamingTrng: every engine must be initialized and "
                "harvest at least one RNG-cell bit per round");
        }
    }
    if (config_.chunk_bits == 0)
        config_.chunk_bits = 1;
    chunk_bits_.store(config_.chunk_bits, std::memory_order_relaxed);
    pipeline_ = trng::makePipeline(config_.conditioning,
                                   config_.stage_params);
    producer_stats_.resize(engines_.size());
    producer_errors_.resize(engines_.size());
    next_seq_.resize(engines_.size(), 0);
}

StreamingTrng::StreamingTrng(DRangeTrng &engine,
                             const StreamingConfig &config)
    : StreamingTrng(std::vector<DRangeTrng *>{&engine}, config)
{
}

StreamingTrng::StreamingTrng(MultiChannelTrng &trng,
                             const StreamingConfig &config)
    : StreamingTrng(channelEngines(trng), config)
{
}

StreamingTrng::~StreamingTrng()
{
    try {
        stop();
    } catch (...) {
        // Destructor must not throw; producer errors were the
        // session's problem and the session is being abandoned.
    }
}

std::vector<int>
StreamingTrng::planRounds(std::size_t min_raw_bits) const
{
    // Hand out rounds one at a time, round-robin across engines, until
    // the planned harvest covers the request; budgets stay balanced and
    // the overshoot is less than one round.
    std::vector<int> rounds(engines_.size(), 0);
    std::size_t planned = 0;
    for (std::size_t i = 0; planned < min_raw_bits; ++i) {
        const std::size_t ch = i % engines_.size();
        ++rounds[ch];
        planned += static_cast<std::size_t>(engines_[ch]->bitsPerRound());
    }
    return rounds;
}

void
StreamingTrng::start(std::size_t min_raw_bits)
{
    launch(planRounds(min_raw_bits), /*continuous=*/false);
}

void
StreamingTrng::startContinuous()
{
    launch(std::vector<int>(engines_.size(), 0), /*continuous=*/true);
}

void
StreamingTrng::launch(std::vector<int> rounds, bool continuous)
{
    if (running_)
        throw std::logic_error("StreamingTrng: session already running");

    running_ = true;
    ordered_ = !continuous;
    flushed_ = false;
    current_channel_ = 0;
    expected_seq_ = 0;
    stash_.clear();
    pipeline_.reset();
    std::fill(producer_stats_.begin(), producer_stats_.end(),
              ProducerStats{});
    std::fill(producer_errors_.begin(), producer_errors_.end(), nullptr);
    std::fill(next_seq_.begin(), next_seq_.end(), 0);
    stats_ = StreamingStats{};
    queue_ = std::make_unique<util::ChunkQueue<StreamChunk>>(
        config_.queue_capacity);
    host_start_ = std::chrono::steady_clock::now();

    // Trace recording follows the session kind (see the file comment),
    // set on every launch: a stream may run either kind after the other.
    for (auto *engine : engines_) {
        ctrl::CommandScheduler &sched = engine->scheduler();
        sched.setTraceRecording(!continuous);
        if (continuous)
            sched.clearTrace();
    }

    if (config_.serial_producer || engines_.size() == 1) {
        producers_.emplace_back([this, rounds = std::move(rounds),
                                 continuous]() mutable {
            try {
                serialProducerLoop(std::move(rounds), continuous);
            } catch (...) {
                producer_errors_[0] = std::current_exception();
            }
            queue_->close();
        });
        return;
    }

    live_producers_.store(static_cast<int>(engines_.size()));
    for (std::size_t ch = 0; ch < engines_.size(); ++ch) {
        producers_.emplace_back([this, ch, r = rounds[ch], continuous] {
            try {
                producerLoop(ch, r, continuous);
            } catch (...) {
                producer_errors_[ch] = std::current_exception();
                queue_->close();
            }
            // The last producer standing ends the stream.
            if (--live_producers_ == 0)
                queue_->close();
        });
    }
}

int
StreamingTrng::harvestRound(std::size_t engine_idx,
                            util::BitStream &pending)
{
    DRangeTrng &engine = *engines_[engine_idx];
    ProducerStats &ps = producer_stats_[engine_idx];
    const int harvested = engine.runRound(pending);
    ++ps.rounds;
    ps.bits += static_cast<std::uint64_t>(harvested);
    if (ps.first_word_ns == 0.0 && ps.bits >= 64)
        ps.first_word_ns = engine.scheduler().now() - ps.start_ns;
    return harvested;
}

bool
StreamingTrng::pushPending(std::size_t engine_idx,
                           util::BitStream &pending, bool last)
{
    StreamChunk chunk;
    chunk.channel = static_cast<int>(engine_idx);
    chunk.seq = next_seq_[engine_idx]++;
    chunk.last = last;
    chunk.bits = std::move(pending);
    pending = util::BitStream{};
    // Chunks end on round boundaries, so the next buffer fills to
    // chunk_bits plus at most one round's harvest; reserving up front
    // keeps the harvest loop free of reallocations.
    if (!last) {
        pending.reserve(chunkBits() +
                        engines_[engine_idx]->bitsPerRound());
    }
    return queue_->push(std::move(chunk));
}

void
StreamingTrng::producerLoop(std::size_t engine_idx, int rounds,
                            bool continuous)
{
    DRangeTrng &engine = *engines_[engine_idx];
    engine.enterSamplingMode();
    producer_stats_[engine_idx].start_ns = engine.scheduler().now();

    util::BitStream pending;
    pending.reserve(chunkBits() + engine.bitsPerRound());
    bool open = true;
    for (std::uint64_t r = 0;
         open && (continuous || r < static_cast<std::uint64_t>(rounds));
         ++r) {
        harvestRound(engine_idx, pending);
        if (pending.size() >= chunkBits())
            open = pushPending(engine_idx, pending, /*last=*/false);
    }
    producer_stats_[engine_idx].end_ns = engine.scheduler().now();
    engine.exitSamplingMode();
    if (open)
        pushPending(engine_idx, pending, /*last=*/true);
}

void
StreamingTrng::serialProducerLoop(std::vector<int> rounds,
                                  bool continuous)
{
    // Single-thread round-robin over every engine: the
    // HarvestMode::Serial baseline. Same per-engine round budget and
    // per-engine bit order as the parallel producers, so the consumer
    // assembles an identical stream.
    const std::size_t n = engines_.size();
    for (std::size_t ch = 0; ch < n; ++ch) {
        engines_[ch]->enterSamplingMode();
        producer_stats_[ch].start_ns = engines_[ch]->scheduler().now();
    }

    std::vector<util::BitStream> pending(n);
    for (std::size_t ch = 0; ch < n; ++ch)
        pending[ch].reserve(chunkBits() + engines_[ch]->bitsPerRound());
    const std::uint64_t max_rounds =
        continuous ? 0
                   : static_cast<std::uint64_t>(*std::max_element(
                         rounds.begin(), rounds.end()));
    bool open = true;
    for (std::uint64_t r = 0; open && (continuous || r < max_rounds);
         ++r) {
        for (std::size_t ch = 0; open && ch < n; ++ch) {
            if (!continuous &&
                r >= static_cast<std::uint64_t>(rounds[ch]))
                continue;
            harvestRound(ch, pending[ch]);
            if (pending[ch].size() >= chunkBits())
                open = pushPending(ch, pending[ch], /*last=*/false);
        }
    }

    for (std::size_t ch = 0; ch < n; ++ch) {
        producer_stats_[ch].end_ns = engines_[ch]->scheduler().now();
        engines_[ch]->exitSamplingMode();
    }
    for (std::size_t ch = 0; open && ch < n; ++ch)
        open = pushPending(ch, pending[ch], /*last=*/true);
}

void
StreamingTrng::setConditioning(trng::ConditioningPipeline pipeline)
{
    if (running_)
        throw std::logic_error(
            "StreamingTrng: cannot swap the conditioning pipeline "
            "while a session is running");
    pipeline_ = std::move(pipeline);
}

void
StreamingTrng::validateChunk(const util::BitStream &raw)
{
    const auto results =
        nist::runAllParallel(raw, config_.validate_threads);
    ++stats_.validated_chunks;
    for (const auto &result : results) {
        if (!result.pass(config_.validate_alpha)) {
            ++stats_.failed_chunks;
            return;
        }
    }
}

std::optional<StreamChunk>
StreamingTrng::nextRawChunk()
{
    for (;;) {
        StreamChunk chunk;
        if (ordered_) {
            if (current_channel_ >= engines_.size())
                return std::nullopt; // Every channel fully delivered.
            const auto key = std::make_pair(
                static_cast<int>(current_channel_), expected_seq_);
            if (auto it = stash_.find(key); it != stash_.end()) {
                chunk = std::move(it->second);
                stash_.erase(it);
            } else {
                auto item = queue_->pop();
                if (!item) {
                    // Closed early (stop() / producer error): whatever
                    // is stashed out of order is not deliverable.
                    return std::nullopt;
                }
                if (static_cast<std::size_t>(item->channel) !=
                        current_channel_ ||
                    item->seq != expected_seq_) {
                    stash_.emplace(
                        std::make_pair(item->channel, item->seq),
                        std::move(*item));
                    continue;
                }
                chunk = std::move(*item);
            }
            ++expected_seq_;
            if (chunk.last) {
                ++current_channel_;
                expected_seq_ = 0;
            }
        } else {
            auto item = queue_->pop();
            if (!item)
                return std::nullopt;
            chunk = std::move(*item);
        }

        if (chunk.bits.empty()) {
            if (ordered_ && current_channel_ >= engines_.size())
                return std::nullopt;
            continue; // Empty terminator chunk.
        }
        return chunk;
    }
}

std::optional<util::BitStream>
StreamingTrng::flushConditioning()
{
    // The raw stream is exhausted: give stateful stages (von Neumann
    // carry, future block ciphers) one chance to flush buffered bits
    // through the rest of the pipeline.
    if (flushed_ || pipeline_.empty())
        return std::nullopt;
    flushed_ = true;
    util::BitStream tail = pipeline_.finish();
    if (tail.empty())
        return std::nullopt;
    stats_.out_bits += tail.size();
    return tail;
}

std::optional<util::BitStream>
StreamingTrng::nextChunk()
{
    if (!running_)
        return std::nullopt;

    for (;;) {
        auto chunk = nextRawChunk();
        if (!chunk)
            return flushConditioning();

        stats_.raw_bits += chunk->bits.size();
        ++stats_.chunks;
        if (config_.validate_threads > 0)
            validateChunk(chunk->bits);

        // The chunk is owned here, so both paths move it: an empty
        // pipeline passes the buffer through untouched (the batch
        // generate() hot path), a non-empty one cedes it to the first
        // stage's processOwned().
        util::BitStream out = pipeline_.empty()
                                  ? std::move(chunk->bits)
                                  : pipeline_.process(std::move(chunk->bits));
        stats_.out_bits += out.size();
        if (out.empty())
            continue; // Conditioning absorbed the whole chunk.
        return out;
    }
}

util::BitStream
StreamingTrng::drain()
{
    // No per-chunk reserve: an exact-size reserve would defeat the
    // backing vector's geometric growth and reallocate every chunk.
    util::BitStream out;
    while (auto chunk = nextChunk())
        out.append(*chunk);
    return out;
}

util::BitStream
StreamingTrng::generate(std::size_t min_raw_bits)
{
    start(min_raw_bits);
    util::BitStream out = drain();
    stop();
    return out;
}

void
StreamingTrng::joinProducers()
{
    for (auto &producer : producers_)
        if (producer.joinable())
            producer.join();
    producers_.clear();
}

void
StreamingTrng::stop()
{
    if (!running_)
        return;
    queue_->close();
    joinProducers();
    running_ = false;
    stash_.clear();
    stats_.host_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - host_start_)
                         .count();
    stats_.stages = pipeline_.accounting();
    stats_.healthy = pipeline_.healthy();
    for (const auto &error : producer_errors_)
        if (error)
            std::rethrow_exception(error);
}

} // namespace drange::core
