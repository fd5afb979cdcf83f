/**
 * @file
 * D-RaNGe: the paper's TRNG mechanism (Algorithm 2).
 *
 * After identifying RNG cells (Section 6.1), the engine selects, per
 * bank, the two DRAM words in distinct rows with the highest RNG-cell
 * density, writes the high-entropy data pattern around them, programs a
 * reduced tRCD, and then continuously alternates
 * ACT -> READ -> restore-WRITE -> PRE between the two rows of every
 * bank, harvesting the RNG-cell bits of each read. Commands to
 * different banks pipeline through the cycle-level scheduler, so
 * throughput scales with the number of banks used (Figure 8).
 */

#ifndef DRANGE_CORE_DRANGE_HH
#define DRANGE_CORE_DRANGE_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "controller/scheduler.hh"
#include "core/identify.hh"
#include "core/rng_cell.hh"
#include "util/bitstream.hh"

namespace drange::core {

/** Configuration of a D-RaNGe engine. */
struct DRangeConfig
{
    double reduced_trcd_ns = 10.0;
    int banks = 8; //!< Banks used in parallel (1..geometry.banks).
    IdentifyParams identify;

    /** Data pattern; defaults to the manufacturer's best (Section 5.2). */
    std::optional<DataPattern> pattern;

    // Profiling region searched for RNG-cell words, per bank.
    int profile_rows = 96;
    int profile_words = 24;
    int profile_row_offset = 0;
};

/** The two DRAM words Algorithm 2 alternates between in one bank. */
struct BankSelection
{
    int bank = 0;
    dram::WordAddress words[2];
    std::vector<int> bits[2];       //!< RNG-cell bit positions per word.
    std::uint64_t pattern_word[2];  //!< Restore values.

    int cellsTotal() const
    {
        return static_cast<int>(bits[0].size() + bits[1].size());
    }
};

/** Measured statistics of one generate() run. */
struct GenerationStats
{
    std::uint64_t bits = 0;
    std::uint64_t rounds = 0;
    std::uint64_t reads = 0;
    double start_ns = 0.0;
    double end_ns = 0.0;
    double first_word_ns = 0.0; //!< Time to the first 64 harvested bits.

    double durationNs() const { return end_ns - start_ns; }

    /** Generation throughput in Mbit/s. */
    double throughputMbps() const
    {
        return durationNs() > 0.0
                   ? static_cast<double>(bits) / durationNs() * 1000.0
                   : 0.0;
    }
};

/**
 * The D-RaNGe true random number generator.
 */
class DRangeTrng
{
  public:
    DRangeTrng(dram::DramDevice &device, const DRangeConfig &config);

    /**
     * Profile the configured banks and select the sampling words.
     * Must be called before generate(). Calling it again re-identifies
     * at the device's current temperature; if that finds no RNG-cell
     * words it throws and leaves the engine without a selection.
     */
    void initialize();

    bool initialized() const { return !selection_.empty(); }
    const std::vector<BankSelection> &selection() const
    {
        return selection_;
    }

    /** RNG-cell bits harvested by one full round over all banks. */
    int bitsPerRound() const;

    /**
     * Restrict sampling to the first @p n selected banks (1..selected).
     * Lets the throughput-scaling experiment (Figure 8) reuse one
     * profiling pass across bank counts. 0 restores all banks.
     */
    void setActiveBanks(int n);

    /** Number of banks participating in sampling rounds. */
    int activeBanks() const;

    /**
     * Generate at least @p num_bits truly random bits (Algorithm 2).
     * Implemented as a thin drain of core::StreamingTrng (one harvest
     * producer, raw passthrough); output ends on a round boundary.
     */
    util::BitStream generate(std::size_t num_bits);

    /**
     * Run a single sampling round over all selected banks, appending
     * harvested bits to @p out. Exposed so the interference experiment
     * can interleave rounds with application traffic. The caller is
     * responsible for bracketing rounds with enter/exitSamplingMode().
     *
     * @return bits harvested this round.
     */
    int runRound(util::BitStream &out);

    /** Write the data pattern around the selected words and program the
     * reduced tRCD. */
    void enterSamplingMode();

    /** Restore the default tRCD. */
    void exitSamplingMode();

    /**
     * Toggle only the tRCD register (no pattern rewrite). Used by the
     * interference experiment, which flips timing around every sampling
     * burst while application requests run at default timing.
     */
    void setReducedTiming(bool on);

    const GenerationStats &lastStats() const { return stats_; }
    ctrl::CommandScheduler &scheduler() { return *scheduler_; }
    /** The simulated device this engine samples (environment controls
     * like DramDevice::setTemperature live there). */
    dram::DramDevice &device() { return device_; }
    const DRangeConfig &config() const { return config_; }
    const DataPattern &pattern() const { return pattern_; }

  private:
    void writePatternRows(int bank, int row);

    /** Selections participating in rounds (active_banks_ if set). */
    std::size_t activeCount() const;

    dram::DramDevice &device_;
    DRangeConfig config_;
    DataPattern pattern_;
    std::unique_ptr<ctrl::TimingRegisterFile> regs_;
    std::unique_ptr<ctrl::CommandScheduler> scheduler_;
    std::vector<BankSelection> selection_;
    int active_banks_ = 0; //!< 0: use every selected bank.
    GenerationStats stats_;
};

/**
 * Von Neumann corrector: consumes bit pairs, emits 0 for 01, 1 for 10,
 * nothing for 00/11. Unbiases a stream at the cost of ~75% of its
 * throughput (paper Section 2.2); D-RaNGe's RNG cells do not need it,
 * which the ablation bench demonstrates.
 */
util::BitStream vonNeumannCorrect(const util::BitStream &in);

} // namespace drange::core

#endif // DRANGE_CORE_DRANGE_HH
