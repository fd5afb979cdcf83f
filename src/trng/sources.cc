/**
 * @file
 * The built-in trng::EntropySource backends: D-RaNGe continuous
 * harvest ("drange"), D-RaNGe idle-slot harvest under workload traffic
 * ("opportunistic") and the three prior-work baselines, each
 * self-registered with trng::Registry under a flat name. A service
 * gets parallel channels by pooling several "drange" members.
 *
 * Every adapter owns its simulated device(s) and builds them from the
 * shared Params keys
 *
 *   manufacturer (A/B/C), seed, noise_seed, rows_per_bank,
 *   temperature_c, scalar_read_path (force the reference scalar
 *   read path instead of the word-parallel threshold tables)
 *
 * plus per-source keys documented at each factory. Misspelled keys
 * throw (Params::rejectUnknown). Adapters are thin: generation and
 * statistics come from the legacy classes, so output through this
 * path is bit-identical to the legacy API for the same configuration
 * (regression-tested in tests/test_trng_registry.cc).
 */

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <utility>

#include "baselines/cmdsched_trng.hh"
#include "baselines/retention_trng.hh"
#include "baselines/startup_trng.hh"
#include "controller/memory_controller.hh"
#include "controller/plugins.hh"
#include "core/streaming.hh"
#include "dram/device.hh"
#include "power/power_model.hh"
#include "sim/harvest_plugin.hh"
#include "sim/workload.hh"
#include "trng/registry.hh"
#include "util/entropy.hh"

namespace drange::trng {

namespace detail {
void
linkBuiltinSources()
{
    // Link anchor only: referencing this function from registry.cc
    // pulls this object file -- and the self-registrations below --
    // out of the static library.
}
} // namespace detail

namespace {

// ------------------------------------------------- shared Params keys

/** getInt with a lower bound, so "chunk_bits = -1" fails loudly
 * instead of wrapping into a huge unsigned value. */
std::int64_t
boundedInt(const Params &params, const std::string &key,
           std::int64_t fallback, std::int64_t min)
{
    const std::int64_t value = params.getInt(key, fallback);
    if (value < min)
        throw std::invalid_argument(
            "trng: parameter \"" + key + "\" must be >= " +
            std::to_string(min) + " (got " + std::to_string(value) +
            ")");
    return value;
}

dram::DeviceConfig
deviceConfig(const Params &params)
{
    const std::string m = params.getString("manufacturer", "A");
    dram::Manufacturer manufacturer;
    if (m == "A")
        manufacturer = dram::Manufacturer::A;
    else if (m == "B")
        manufacturer = dram::Manufacturer::B;
    else if (m == "C")
        manufacturer = dram::Manufacturer::C;
    else
        throw std::invalid_argument(
            "trng: manufacturer must be A, B, or C (got \"" + m +
            "\")");

    auto cfg = dram::DeviceConfig::make(
        manufacturer,
        static_cast<std::uint64_t>(boundedInt(params, "seed", 1, 0)),
        static_cast<std::uint64_t>(
            boundedInt(params, "noise_seed", 0, 0)));
    if (const auto rows = boundedInt(params, "rows_per_bank", 0, 0);
        rows > 0)
        cfg.geometry.rows_per_bank = static_cast<int>(rows);
    cfg.conditions.temperature_c =
        params.getDouble("temperature_c", cfg.conditions.temperature_c);
    // Debug/validation escape hatch: force the scalar double-precision
    // read path instead of the word-parallel threshold tables.
    cfg.scalar_read_path =
        params.getBool("scalar_read_path", cfg.scalar_read_path);
    return cfg;
}

core::DRangeConfig
drangeConfig(const Params &params)
{
    core::DRangeConfig cfg;
    cfg.banks =
        static_cast<int>(boundedInt(params, "banks", cfg.banks, 1));
    cfg.reduced_trcd_ns =
        params.getDouble("reduced_trcd_ns", cfg.reduced_trcd_ns);
    cfg.identify.trcd_ns = cfg.reduced_trcd_ns;
    cfg.profile_rows = static_cast<int>(
        boundedInt(params, "profile_rows", cfg.profile_rows, 1));
    cfg.profile_words = static_cast<int>(
        boundedInt(params, "profile_words", cfg.profile_words, 1));
    cfg.profile_row_offset = static_cast<int>(boundedInt(
        params, "profile_row_offset", cfg.profile_row_offset, 0));
    cfg.identify.screen_iterations =
        static_cast<int>(boundedInt(params, "screen_iterations",
                                    cfg.identify.screen_iterations, 1));
    cfg.identify.samples = static_cast<int>(
        boundedInt(params, "samples", cfg.identify.samples, 1));
    cfg.identify.symbol_tolerance = params.getDouble(
        "symbol_tolerance", cfg.identify.symbol_tolerance);
    return cfg;
}

// ------------------------------------------------------------ drange

/**
 * D-RaNGe behind the interface: one device, one engine, and one
 * long-lived StreamingTrng over it. startContinuous()/nextChunk()/
 * stop() are the stream's continuous session (one producer thread,
 * the data pattern written once per session, no command trace), and
 * every session after the first re-identifies the RNG cells at the
 * device's current temperature before it starts. generate() is the
 * same stream's bounded drain. The conditioning pipeline (and its
 * SP 800-90B health stage) is chosen via Params.
 */
class DRangeSource final : public EntropySource
{
  public:
    explicit DRangeSource(const Params &params)
        : device_(std::make_unique<dram::DramDevice>(
              deviceConfig(params))),
          engine_(std::make_unique<core::DRangeTrng>(
              *device_, drangeConfig(params)))
    {
        config_.chunk_bits = static_cast<std::size_t>(
            boundedInt(params, "chunk_bits", 4096, 1));
        config_.conditioning = params.getList("conditioning");
        config_.stage_params = params;
        // Validate stage names (and their params) eagerly so a typo
        // fails at make() time, not at the first generate().
        trng::makePipeline(config_.conditioning, params);
        params.rejectUnknown("trng source \"drange\"");
        info_ = {"drange",
                 "D-RaNGe: DRAM activation-failure TRNG (Kim+ HPCA'19)",
                 true};
    }

    const SourceInfo &info() const override { return info_; }

    util::BitStream generate(std::size_t num_bits) override
    {
        core::StreamingTrng &stream = ensureStream();
        engine_->scheduler().clearTrace();
        util::BitStream bits = stream.generate(num_bits);
        captureStats();
        fillEntropyFields(stats_, bits);

        // The paper's energy methodology (Section 7.3): trace energy
        // minus the idle baseline over the same interval, per
        // harvested bit.
        const core::ProducerStats &ps = stream.producerStats(0);
        const power::PowerModel pm(power::PowerSpec::lpddr4(),
                                   device_->config().timing);
        const auto energy =
            pm.traceEnergy(engine_->scheduler().trace(), ps.durationNs(),
                           engine_->scheduler().activeTime());
        if (ps.bits > 0)
            stats_.energy_nj_per_bit =
                (energy.total_nj() - pm.idleEnergyNj(ps.durationNs())) /
                static_cast<double>(ps.bits);
        return bits;
    }

    void startContinuous() override
    {
        // Per-session counters: stop() reports the entropy of the
        // session that just ended, not of everything ever delivered.
        delivered_bits_ = 0;
        delivered_ones_ = 0;
        // A restart (the service's probation) re-identifies the RNG
        // cells at the device's current temperature: a cell's failure
        // probability moves with every few degrees (paper Fig. 6), so
        // the cells selected for the first session may have gone
        // stale. A throw leaves the engine without a selection; the
        // next start (or generate()) identifies again.
        if (continuous_ran_ && !stream_->running())
            engine_->initialize();
        ensureStream().startContinuous();
        continuous_ran_ = true;
    }

    std::optional<util::BitStream> nextChunk() override
    {
        if (!stream_)
            return std::nullopt;
        auto chunk = stream_->nextChunk();
        if (chunk) {
            delivered_bits_ += chunk->size();
            delivered_ones_ += chunk->popcount();
        }
        return chunk;
    }

    void stop() override
    {
        if (!stream_ || !stream_->running())
            return; // Keep the stats of the last completed activity.
        stream_->stop();
        captureStats();
        if (delivered_bits_ > 0)
            stats_.shannon_entropy = util::binaryShannonEntropy(
                static_cast<double>(delivered_ones_) /
                static_cast<double>(delivered_bits_));
    }

    SourceStats stats() const override { return stats_; }

    std::size_t chunkBits() const override
    {
        return stream_ ? stream_->chunkBits() : config_.chunk_bits;
    }

    void setChunkBits(std::size_t bits) override
    {
        config_.chunk_bits = bits ? bits : 1;
        if (stream_)
            stream_->setChunkBits(bits);
    }

    bool healthy() const override
    {
        // Stage state is mutated by the thread running nextChunk();
        // per the interface contract that is also the caller here.
        return !stream_ || stream_->conditioning().healthy();
    }

    BackpressureStats backpressure() const override
    {
        if (!stream_)
            return {}; // No queue before the first session.
        return {stream_->queueDepth(), stream_->queueCapacity()};
    }

    void setTemperature(double celsius) override
    {
        // Device temperature is atomic; a producer mid-session picks
        // the new value up at its next DRAM operation.
        device_->setTemperature(celsius);
    }

  private:
    core::StreamingTrng &ensureStream()
    {
        // Never harvest an empty selection (a round would yield no
        // bits), including after a re-identification that threw.
        if (!engine_->initialized())
            engine_->initialize();
        if (!stream_)
            stream_ =
                std::make_unique<core::StreamingTrng>(*engine_, config_);
        return *stream_;
    }

    void captureStats()
    {
        const core::StreamingStats &st = stream_->stats();
        const core::ProducerStats &ps = stream_->producerStats(0);
        stats_ = SourceStats{};
        stats_.bits = st.out_bits;
        stats_.sim_ns = ps.durationNs();
        stats_.host_ms = st.host_ms;
        stats_.latency64_ns = ps.first_word_ns;
        stats_.stages = st.stages;
    }

    std::unique_ptr<dram::DramDevice> device_;
    std::unique_ptr<core::DRangeTrng> engine_;
    std::unique_ptr<core::StreamingTrng> stream_;
    core::StreamingConfig config_;
    std::uint64_t delivered_bits_ = 0;
    std::uint64_t delivered_ones_ = 0;
    bool continuous_ran_ = false; //!< A restart re-identifies.
    SourceInfo info_;
    SourceStats stats_;
};

// ----------------------------------------------------- opportunistic

/** D-RaNGe harvesting only the idle DRAM slots a co-simulated
 * application workload leaves behind (paper Section 7.3), through the
 * controller plugin chain: a ShaperPlugin guards the idle windows, an
 * OpportunisticHarvestPlugin spends them on width-scaled sampling
 * rounds, and this adapter drives the MemoryController event loop and
 * drains the harvested bits. Throughput through this source is bits
 * per *co-simulated wall time* -- entropy that cost the application
 * only the reported latency delta. */
class OpportunisticSource final : public EntropySource
{
  public:
    explicit OpportunisticSource(const Params &params)
        : device_(std::make_unique<dram::DramDevice>(
              deviceConfig(params))),
          engine_(std::make_unique<core::DRangeTrng>(
              *device_, drangeConfig(params)))
    {
        // Workload: a spec2006() name, or "custom" tuned by hand; the
        // intensity/locality knobs override either.
        workload_.name = params.getString("workload", "custom");
        if (workload_.name != "custom") {
            bool found = false;
            for (const auto &w : sim::Workload::spec2006()) {
                if (w.name == workload_.name) {
                    workload_ = w;
                    found = true;
                    break;
                }
            }
            if (!found)
                throw std::invalid_argument(
                    "trng source \"opportunistic\": unknown workload "
                    "\"" + workload_.name +
                    "\" (a sim::Workload::spec2006() name or "
                    "\"custom\")");
        }
        workload_.intensity =
            params.getDouble("intensity", workload_.intensity);
        workload_.row_locality =
            params.getDouble("row_locality", workload_.row_locality);
        workload_.write_fraction = params.getDouble(
            "write_fraction", workload_.write_fraction);
        workload_.footprint_rows = static_cast<int>(boundedInt(
            params, "footprint_rows", workload_.footprint_rows, 1));
        if (workload_.intensity <= 0.0 || workload_.intensity > 1.0)
            throw std::invalid_argument(
                "trng source \"opportunistic\": intensity must be in "
                "(0, 1]");

        slice_ns_ = params.getDouble("slice_ns", slice_ns_);
        peak_request_ns_ =
            params.getDouble("peak_request_ns", peak_request_ns_);
        app_row_offset_ = static_cast<int>(
            boundedInt(params, "app_row_offset", app_row_offset_, 0));
        workload_seed_ = static_cast<std::uint64_t>(
            boundedInt(params, "workload_seed", 97, 0));

        auto &sched = engine_->scheduler();
        // Continuous co-simulation: bound the command trace so a
        // long-lived trngd pool member cannot grow it without limit.
        sched.setTraceCapacity(static_cast<std::size_t>(
            boundedInt(params, "trace_capacity", 65536, 0)));

        Params shaper_params;
        shaper_params
            .set("min_window_ns",
                 params.getDouble("min_window_ns", 0.0))
            .set("guard_ns", params.getDouble("guard_ns", 0.0))
            .set("max_duty", params.getDouble("max_duty", 1.0));
        sched.attach(
            std::make_unique<ctrl::ShaperPlugin>(shaper_params));

        Params harvest_params;
        harvest_params
            .set("admit_margin",
                 params.getDouble("admit_margin", 0.95))
            .set("min_banks", params.getInt("min_banks", 1))
            .set("prime_window_ns",
                 params.getDouble("prime_window_ns", 100.0));
        auto harvester =
            std::make_unique<sim::OpportunisticHarvestPlugin>(
                harvest_params);
        harvester->bind(*engine_);
        harvester_ = harvester.get();
        sched.attach(std::move(harvester));

        mc_ = std::make_unique<ctrl::MemoryController>(sched);
        generator_ = std::make_unique<sim::WorkloadGenerator>(
            device_->config().geometry, workload_seed_);

        setContinuousChunkBits(static_cast<std::size_t>(
            boundedInt(params, "chunk_bits", 4096, 1)));
        params.rejectUnknown("trng source \"opportunistic\"");
        info_ = {"opportunistic",
                 "D-RaNGe scavenging idle DRAM slots under live "
                 "workload traffic (Section 7.3)",
                 true};
    }

    const SourceInfo &info() const override { return info_; }

    util::BitStream generate(std::size_t num_bits) override
    {
        if (!engine_->initialized()) {
            engine_->initialize();
            engine_->enterSamplingMode();
            // Application requests run at default timing; the
            // harvester flips the reduced tRCD around each round.
            engine_->setReducedTiming(false);
        }

        auto &sched = engine_->scheduler();
        const auto &geom = device_->config().geometry;
        const double gen_start = sched.now();
        double first64_ns = 0.0;

        util::BitStream out = harvester_->drain(); // Leftover rounds.
        int dry_slices = 0;
        while (out.size() < num_bits) {
            const double start = sched.now();
            auto reqs = generator_->generate(workload_, start,
                                             slice_ns_,
                                             peak_request_ns_);
            for (auto &r : reqs) {
                r.row = (r.row + app_row_offset_) % geom.rows_per_bank;
                mc_->enqueue(r);
            }
            mc_->run(start + slice_ns_);
            mc_->drain();

            const util::BitStream chunk = harvester_->drain();
            if (first64_ns == 0.0 && out.size() + chunk.size() >= 64)
                first64_ns = sched.now() - gen_start;
            out.append(chunk);

            // A workload can be so intense that no window ever admits
            // even the narrowest round; fail loudly instead of
            // co-simulating forever.
            dry_slices = chunk.empty() ? dry_slices + 1 : 0;
            if (dry_slices >= 1000)
                throw std::runtime_error(
                    "trng source \"opportunistic\": no harvestable "
                    "idle windows in 1000 consecutive slices "
                    "(workload too intense?)");
        }

        stats_ = SourceStats{};
        stats_.bits = out.size();
        stats_.sim_ns = sched.now() - gen_start;
        stats_.latency64_ns = first64_ns;
        fillEntropyFields(stats_, out);
        return out;
    }

    SourceStats stats() const override { return stats_; }

    void setTemperature(double celsius) override
    {
        device_->setTemperature(celsius);
    }

    /** Application-side service statistics of the co-simulation. */
    const ctrl::ControllerStats &appStats() const
    {
        return mc_->stats();
    }

    /** The harvester plugin (round/window counters). */
    const sim::OpportunisticHarvestPlugin &harvester() const
    {
        return *harvester_;
    }

  private:
    std::unique_ptr<dram::DramDevice> device_;
    std::unique_ptr<core::DRangeTrng> engine_;
    sim::OpportunisticHarvestPlugin *harvester_ = nullptr;
    std::unique_ptr<ctrl::MemoryController> mc_;
    std::unique_ptr<sim::WorkloadGenerator> generator_;
    sim::Workload workload_;
    double slice_ns_ = 100000.0;
    double peak_request_ns_ = 100.0;
    int app_row_offset_ = 4096;
    std::uint64_t workload_seed_ = 97;
    SourceInfo info_;
    SourceStats stats_;
};

// ---------------------------------------------------------- cmdsched

/** Command-schedule jitter baseline (Pyo+) behind the interface. */
class CmdSchedSource final : public EntropySource
{
  public:
    explicit CmdSchedSource(const Params &params)
        : device_(std::make_unique<dram::DramDevice>(
              deviceConfig(params)))
    {
        baselines::CmdSchedTrngConfig cfg;
        cfg.banks = static_cast<int>(
            boundedInt(params, "banks", cfg.banks, 1));
        cfg.accesses_per_bit = static_cast<int>(boundedInt(
            params, "accesses_per_bit", cfg.accesses_per_bit, 1));
        cfg.rows_touched = static_cast<int>(
            boundedInt(params, "rows_touched", cfg.rows_touched, 1));
        trng_ =
            std::make_unique<baselines::CmdSchedTrng>(*device_, cfg);
        setContinuousChunkBits(static_cast<std::size_t>(
            boundedInt(params, "chunk_bits", 4096, 1)));
        params.rejectUnknown("trng source \"cmdsched\"");
        info_ = {"cmdsched",
                 "Command-schedule jitter TRNG (Pyo+; deterministic, "
                 "fails NIST)",
                 true};
    }

    const SourceInfo &info() const override { return info_; }

    util::BitStream generate(std::size_t num_bits) override
    {
        const util::BitStream bits = trng_->generate(num_bits);
        const auto &st = trng_->lastStats();
        stats_ = SourceStats{};
        stats_.bits = bits.size();
        stats_.sim_ns = st.duration_ns;
        if (st.bits > 0)
            stats_.latency64_ns =
                st.duration_ns / static_cast<double>(st.bits) * 64.0;
        fillEntropyFields(stats_, bits);
        return bits;
    }

    SourceStats stats() const override { return stats_; }

    void setTemperature(double celsius) override
    {
        device_->setTemperature(celsius);
    }

  private:
    std::unique_ptr<dram::DramDevice> device_;
    std::unique_ptr<baselines::CmdSchedTrng> trng_;
    SourceInfo info_;
    SourceStats stats_;
};

// --------------------------------------------------------- retention

/** Data-retention baseline (Keller+/Sutar+) behind the interface. */
class RetentionSource final : public EntropySource
{
  public:
    explicit RetentionSource(const Params &params)
        : device_(std::make_unique<dram::DramDevice>(
              deviceConfig(params)))
    {
        cfg_.wait_seconds =
            params.getDouble("wait_seconds", cfg_.wait_seconds);
        cfg_.bank =
            static_cast<int>(boundedInt(params, "bank", cfg_.bank, 0));
        cfg_.row_begin = static_cast<int>(
            boundedInt(params, "row_begin", cfg_.row_begin, 0));
        cfg_.rows =
            static_cast<int>(boundedInt(params, "rows", cfg_.rows, 1));
        cfg_.words = static_cast<int>(
            boundedInt(params, "words", cfg_.words, 0));
        trng_ =
            std::make_unique<baselines::RetentionTrng>(*device_, cfg_);
        setContinuousChunkBits(static_cast<std::size_t>(
            boundedInt(params, "chunk_bits", 256, 1)));
        params.rejectUnknown("trng source \"retention\"");
        info_ = {"retention",
                 "Data-retention-failure TRNG (Keller+/Sutar+; one "
                 "256-bit hash per wait interval)",
                 true};
    }

    const SourceInfo &info() const override { return info_; }

    util::BitStream generate(std::size_t num_bits) override
    {
        const util::BitStream bits = trng_->generate(num_bits);
        const auto &st = trng_->lastStats();
        stats_ = SourceStats{};
        stats_.bits = bits.size();
        stats_.sim_ns = st.sim_seconds * 1e9;
        stats_.latency64_ns = cfg_.wait_seconds * 1e9;
        fillEntropyFields(stats_, bits);
        // Energy: the idle background power burnt across the
        // refresh-disabled wait, amortized over one 256-bit hash.
        const power::PowerModel pm(power::PowerSpec::lpddr4(),
                                   device_->config().timing);
        stats_.energy_nj_per_bit =
            pm.idleEnergyNj(cfg_.wait_seconds * 1e9) / 256.0;
        return bits;
    }

    SourceStats stats() const override { return stats_; }

    void setTemperature(double celsius) override
    {
        device_->setTemperature(celsius);
    }

  private:
    std::unique_ptr<dram::DramDevice> device_;
    baselines::RetentionTrngConfig cfg_;
    std::unique_ptr<baselines::RetentionTrng> trng_;
    SourceInfo info_;
    SourceStats stats_;
};

// ----------------------------------------------------------- startup

/** Startup-values baseline (Tehranipoor+) behind the interface. The
 * only non-streaming source: every batch costs a power cycle. */
class StartupSource final : public EntropySource
{
  public:
    explicit StartupSource(const Params &params)
        : device_(std::make_unique<dram::DramDevice>(
              deviceConfig(params)))
    {
        cfg_.bank =
            static_cast<int>(boundedInt(params, "bank", cfg_.bank, 0));
        cfg_.row_begin = static_cast<int>(
            boundedInt(params, "row_begin", cfg_.row_begin, 0));
        cfg_.rows =
            static_cast<int>(boundedInt(params, "rows", cfg_.rows, 1));
        cfg_.enroll_cycles = static_cast<int>(boundedInt(
            params, "enroll_cycles", cfg_.enroll_cycles, 1));
        cfg_.power_cycle_seconds = params.getDouble(
            "power_cycle_seconds", cfg_.power_cycle_seconds);
        trng_ =
            std::make_unique<baselines::StartupTrng>(*device_, cfg_);
        params.rejectUnknown("trng source \"startup\"");
        info_ = {"startup",
                 "Startup-values TRNG (Tehranipoor+; reboot per batch, "
                 "cannot stream)",
                 false};
    }

    const SourceInfo &info() const override { return info_; }

    util::BitStream generate(std::size_t num_bits) override
    {
        if (trng_->enrolledCells() == 0)
            trng_->enroll();
        const util::BitStream bits = trng_->generate(num_bits);
        const auto &st = trng_->lastStats();
        stats_ = SourceStats{};
        stats_.bits = bits.size();
        stats_.sim_ns = st.sim_seconds * 1e9;
        stats_.latency64_ns = cfg_.power_cycle_seconds * 1e9;
        fillEntropyFields(stats_, bits);
        return bits;
    }

    SourceStats stats() const override { return stats_; }

    void setTemperature(double celsius) override
    {
        device_->setTemperature(celsius);
    }

    std::size_t enrolledCells() const { return trng_->enrolledCells(); }

  private:
    std::unique_ptr<dram::DramDevice> device_;
    baselines::StartupTrngConfig cfg_;
    std::unique_ptr<baselines::StartupTrng> trng_;
    SourceInfo info_;
    SourceStats stats_;
};

// ---------------------------------------------------- registrations

template <typename Source>
std::unique_ptr<EntropySource>
makeSource(const Params &params)
{
    return std::make_unique<Source>(params);
}

} // anonymous namespace

DRANGE_TRNG_REGISTER(drange, "drange",
                     "D-RaNGe activation-failure TRNG (the paper's "
                     "mechanism): continuous harvest, pluggable "
                     "conditioning stages",
                     makeSource<DRangeSource>);
DRANGE_TRNG_REGISTER(opportunistic, "opportunistic",
                     "D-RaNGe scavenging idle DRAM slots under live "
                     "workload traffic (Section 7.3)",
                     makeSource<OpportunisticSource>);
DRANGE_TRNG_REGISTER(cmdsched, "cmdsched",
                     "command-schedule jitter baseline (Pyo+)",
                     makeSource<CmdSchedSource>);
DRANGE_TRNG_REGISTER(retention, "retention",
                     "data-retention-failure baseline "
                     "(Keller+/Sutar+)",
                     makeSource<RetentionSource>);
DRANGE_TRNG_REGISTER(startup, "startup",
                     "startup-values baseline (Tehranipoor+)",
                     makeSource<StartupSource>);

} // namespace drange::trng
