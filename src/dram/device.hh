/**
 * @file
 * The simulated DRAM device: bank state machines, flat per-bank row
 * storage, and the integration point of the analog cell model.
 *
 * The device exposes the raw DRAM command interface (ACT / PRE / RD / WR
 * / REF) with explicit command timestamps. It does not enforce JEDEC
 * timing (that is the memory controller's job); instead it *reacts* to
 * whatever timing it is given: a READ issued too soon after ACT samples
 * under-developed bitlines and suffers activation failures, which is
 * exactly the mechanism D-RaNGe exploits.
 *
 * Hot-path layout (see README "Performance"): rows live in flat
 * per-bank pointer tables (no hash maps), row contents materialize
 * word-at-a-time from the cell model's frozen startup tables, and the
 * first-READ failure loop walks per-word weak-column bitmasks and
 * compares one fixed-point threshold per weak bit. The double-precision
 * margin model runs only off the common path (threshold-bucket fills,
 * strong columns at very aggressive tRCD, analytic queries).
 */

#ifndef DRANGE_DRAM_DEVICE_HH
#define DRANGE_DRAM_DEVICE_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "dram/cell_model.hh"
#include "dram/config.hh"
#include "util/rng.hh"

namespace drange::dram {

/**
 * Event counters for tests and the power model.
 */
struct DeviceCounters
{
    std::uint64_t activates = 0;
    std::uint64_t precharges = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t refreshes = 0;
    std::uint64_t read_bit_failures = 0;  //!< Bits returned flipped.
    std::uint64_t corrupted_bits = 0;     //!< Bits latched wrong in-array.
    std::uint64_t retention_failures = 0; //!< Bits lost to leakage.
};

/**
 * One simulated DRAM device (rank).
 */
class DramDevice
{
  public:
    explicit DramDevice(const DeviceConfig &config);

    const DeviceConfig &config() const { return config_; }
    const CellModel &cellModel() const { return model_; }
    const DeviceCounters &counters() const { return counters_; }

    // ------------------------------------------------------------------
    // Command interface. @p now_ns is the command issue time and must be
    // monotonically non-decreasing.
    // ------------------------------------------------------------------

    /** Open @p row in @p bank. The bank must be precharged. */
    void activate(double now_ns, int bank, int row);

    /** Close the open row of @p bank (no-op if already closed). */
    void precharge(double now_ns, int bank);

    /** Precharge every bank. */
    void prechargeAll(double now_ns);

    /**
     * Read the 64-bit word @p word of the open row of @p bank.
     *
     * If this is the first read since the bank was activated, the analog
     * failure model is applied: the returned value may differ from the
     * stored value, and deeply metastable bits are additionally latched
     * wrong in the array (hence Algorithm 2's restore writes).
     * Subsequent reads of an open row never fail (paper Section 5.1).
     */
    std::uint64_t read(double now_ns, int bank, int word);

    /** Write the 64-bit word @p word of the open row of @p bank. */
    void write(double now_ns, int bank, int word, std::uint64_t value);

    /**
     * Refresh all banks (all banks must be precharged). Under
     * auto-refresh this only stamps the device-wide refresh time;
     * without it, every materialized row first takes the retention
     * loss of its gap since its last refresh.
     */
    void refreshAll(double now_ns);

    /**
     * Power-cycle the device: all rows revert to startup values. Noisy
     * startup cells re-draw their value (the entropy source of the
     * startup-values TRNG baseline).
     */
    void powerCycle(double now_ns);

    // ------------------------------------------------------------------
    // Environment controls.
    // ------------------------------------------------------------------

    /**
     * Ambient temperature. The setter may be called from a different
     * thread than the one driving commands (the fault injector's
     * temperature events fire while streaming producers sample);
     * readers pick the new value up at their next operation.
     */
    void setTemperature(double celsius)
    {
        temperature_c_.store(celsius, std::memory_order_relaxed);
    }
    double temperature() const
    {
        return temperature_c_.load(std::memory_order_relaxed);
    }

    /**
     * Model auto-refresh. When enabled (default), rows never decay; when
     * disabled, activating a row first applies retention loss for the
     * time elapsed since its last refresh (used by the retention-TRNG
     * baseline).
     */
    void setAutoRefresh(bool enabled) { auto_refresh_ = enabled; }
    bool autoRefresh() const { return auto_refresh_; }

    bool isOpen(int bank) const;
    int openRow(int bank) const;

    // ------------------------------------------------------------------
    // Backdoor access (tests, pattern setup). No timing, no failures.
    // ------------------------------------------------------------------

    std::uint64_t peekWord(int bank, int row, int word);
    void pokeWord(int bank, int row, int word, std::uint64_t value);
    bool peekBit(int bank, int row, long long column);
    void pokeBit(int bank, int row, long long column, bool value);

    /**
     * Analytic activation-failure probability of a cell given the
     * device's *current* stored contents and temperature.
     */
    double failureProbability(int bank, int row, long long column,
                              double elapsed_ns);

  private:
    struct RowData
    {
        std::vector<std::uint64_t> words;
        long long ones = 0;
        double last_refresh_ns = 0.0;
    };

    struct BankState
    {
        /** Flat row table (one slot per row, materialized on demand).
         * RowData blocks are heap-allocated, so references stay stable
         * while neighbouring rows materialize. */
        std::vector<std::unique_ptr<RowData>> rows;
        int open_row = -1;         //!< Physical row (post-mapping).
        int open_row_logical = -1; //!< Row as the host addressed it.
        double act_time_ns = 0.0;
        bool first_read_done = false;
    };

    // Logical-to-physical address mapping (AddressMapping). Applied at
    // the public command/backdoor interface only; everything below it
    // (materialize, buildContext, the read hot path) works in physical
    // coordinates. `mapped_` caches mapping.identity() so the default
    // configuration pays one predictable branch per translation.
    int pBank(int bank) const
    {
        return mapped_ ? config_.mapping.mapBank(bank, config_.geometry)
                       : bank;
    }
    int pRow(int row) const
    {
        return mapped_ ? config_.mapping.mapRow(row, config_.geometry)
                       : row;
    }
    int pWord(int word) const
    {
        return mapped_ ? config_.mapping.mapWord(word, config_.geometry)
                       : word;
    }
    /** Bit accessor in *physical* coordinates (neighbour physics). */
    bool rawBit(int bank, int row, long long column);

    RowData &materialize(int bank, int row, double now_ns);
    void applyRetention(int bank, int row, RowData &data, double now_ns);
    SenseContext buildContext(int bank, int row, long long column,
                              bool stored, const RowData &data,
                              double now_ns);
    /** Scalar double-math evaluation of one first-READ bit (fallback
     * for strong columns when the weak-only screen does not apply). */
    void evaluateBitScalar(double now_ns, int bank, int row, int word,
                           int bit, double elapsed_ns, RowData &data,
                           std::uint64_t &value);
    /** True if strong columns cannot plausibly fail at this delay and
     * temperature (cached per operating point). */
    bool weakOnly(double elapsed_ns);

    DeviceConfig config_;
    CellModel model_;
    util::Xoshiro256ss noise_;
    std::vector<BankState> banks_;
    DeviceCounters counters_;
    std::atomic<double> temperature_c_;
    bool mapped_ = false;
    bool auto_refresh_ = true;
    double global_refresh_ns_ = 0.0;
    std::uint64_t startup_epoch_ = 0;

    // Cached weak-only screen of the current operating point.
    double screen_elapsed_ns_ = -1.0;
    double screen_temp_c_ = 0.0;
    bool screen_weak_only_ = false;
};

} // namespace drange::dram

#endif // DRANGE_DRAM_DEVICE_HH
