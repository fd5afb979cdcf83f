/**
 * @file
 * DRAM device configuration: geometry, JEDEC timing parameters, and the
 * per-manufacturer analog process profiles that drive the activation-
 * failure model.
 *
 * The paper characterizes LPDDR4 devices from three anonymized
 * manufacturers (A, B, C) plus DDR3 devices for validation. We encode the
 * per-manufacturer differences the paper observes (subarray height, data
 * pattern sensitivity, temperature spread) as analog profile constants.
 */

#ifndef DRANGE_DRAM_CONFIG_HH
#define DRANGE_DRAM_CONFIG_HH

#include <cstdint>
#include <string>

namespace drange::dram {

/** DRAM manufacturers characterized in the paper (anonymized). */
enum class Manufacturer { A, B, C };

/** @return "A", "B" or "C". */
std::string toString(Manufacturer m);

/** DRAM standards supported by the timing presets. */
enum class Standard { LPDDR4_3200, DDR3_1600 };

/**
 * Physical organization of one simulated DRAM device (one rank's worth of
 * lock-stepped chips presented as a single logical array).
 */
struct Geometry
{
    int banks = 8;           //!< Banks per device.
    int rows_per_bank = 16384;
    int words_per_row = 256; //!< 64-bit words per row (2 KiB row).
    int bits_per_word = 64;
    int subarray_rows = 512; //!< Rows per subarray (512 or 1024).

    /** @return total bits in one row. */
    long long rowBits() const
    {
        return static_cast<long long>(words_per_row) * bits_per_word;
    }

    /** @return bitline (column) count within a bank. */
    long long columnsPerRow() const { return rowBits(); }

    /** @return number of subarrays stacked in a bank. */
    int subarraysPerBank() const
    {
        return (rows_per_bank + subarray_rows - 1) / subarray_rows;
    }
};

/**
 * JEDEC timing parameters. All values in nanoseconds except the clock
 * period; the controller converts to cycles.
 */
struct TimingParams
{
    double tck_ns = 0.625; //!< Clock period (LPDDR4-3200: 1600 MHz).
    double trcd_ns = 18.0; //!< ACT to internal READ/WRITE delay.
    double trp_ns = 18.0;  //!< PRE to ACT delay.
    double tras_ns = 42.0; //!< ACT to PRE delay.
    double trc_ns = 60.0;  //!< ACT to ACT (same bank).
    double tcl_ns = 14.0;  //!< READ to first data (CAS latency).
    double tbl_ns = 5.0;   //!< Burst length on the bus (BL16 / 2 / f).
    double tccd_ns = 5.0;  //!< Column command to column command.
    double trrd_ns = 7.5;  //!< ACT to ACT (different banks).
    double tfaw_ns = 30.0; //!< Four-activate window.
    double twr_ns = 18.0;  //!< Write recovery.
    double trtp_ns = 7.5;  //!< READ to PRE.
    double twtr_ns = 10.0; //!< WRITE to READ turnaround.
    double tcwl_ns = 11.0; //!< CAS write latency.
    double trefi_ns = 3904.0; //!< Refresh interval.
    double trfc_ns = 180.0;   //!< Refresh cycle time.

    /** LPDDR4-3200 preset (the paper's main devices). */
    static TimingParams lpddr4_3200();

    /** DDR3-1600 preset (the paper's SoftMC validation devices). */
    static TimingParams ddr3_1600();

    /** @return nanoseconds rounded up to a whole number of cycles. */
    int cycles(double ns) const;
};

/**
 * Analog process profile for one manufacturer. These constants
 * parameterize the cell model (`CellModel`) and were calibrated so the
 * simulated devices reproduce the paper's characterization results
 * (Figures 4-8); see DESIGN.md section 4 and EXPERIMENTS.md.
 */
struct ManufacturerProfile
{
    Manufacturer manufacturer = Manufacturer::A;
    int subarray_rows = 512;

    // --- Sense timing (activation failures) ---
    double charge_share_ns = 2.0;   //!< Dead time before amplification.
    double sense_threshold = 0.50;  //!< Normalized Vread level.
    double tau_strong_ns = 2.6;     //!< Median tau, strong columns.
    double tau_strong_sigma = 0.10; //!< Lognormal sigma, strong columns.
    double tau_weak_ns = 11.0;      //!< Median tau, weak columns.
    double tau_weak_sigma = 0.18;   //!< Lognormal sigma, weak columns.
    double weak_col_fraction = 0.008; //!< Marginal weak-column rate.
    double row_slope = 0.22;        //!< Tau growth across a subarray.
    double cell_margin_sigma = 0.055; //!< Per-cell frozen margin jitter.
    double noise_sigma = 0.045;     //!< Per-read thermal noise (entropy).

    /**
     * Metastable plateau half-width (normalized volts): when the sense
     * margin is within this window, resolution is driven entirely by
     * symmetric in-amplifier thermal noise, so the failure probability
     * is exactly 1/2 -- these cells are the paper's RNG cells. Outside
     * the window the failure probability follows a steep Phi edge with
     * sigma = edge_sigma_ratio * noise_sigma.
     */
    double metastable_window = 0.0225;
    double edge_sigma_ratio = 0.35;

    /**
     * Data-pattern dependence of the metastable window: storing the
     * cell's sensitive value or sensing against anti-coupled
     * neighbours widens the noise-dominated regime. These terms decide
     * which data pattern exposes the most ~50%-Fprob cells per
     * manufacturer (paper Section 5.2).
     */
    double window_value_boost = 0.6;
    double window_neighbor_boost = 0.1;
    double window_droop_boost = 0.0;

    // --- Data pattern dependence ---
    double zero_pref_prob = 0.85; //!< P(cell is 0-sensitive).
    double value_weight = 0.050;  //!< Margin penalty on sensitive value.
    double neighbor_weight = 0.020; //!< Penalty x anti-neighbor fraction.
    double droop_weight = 0.045;  //!< Penalty x same-direction row frac.

    // --- Temperature ---
    double temp_coeff = 0.0016;      //!< Mean margin loss per +1 C.
    double temp_coeff_spread = 0.0004; //!< Per-cell spread of the coeff.
    double reference_temp_c = 45.0;

    // --- Retention model (for the retention-TRNG baseline) ---
    double retention_log10_mean = 4.0;  //!< log10 seconds at 45 C.
    double retention_log10_sigma = 0.8;
    double retention_temp_halving_c = 10.0; //!< Halve t_ret per +10 C.
    double retention_vrt_sigma = 0.12; //!< Per-trial VRT jitter (log10).

    // --- Startup model (for the startup-TRNG baseline) ---
    double startup_random_fraction = 0.05;

    /** Paper-calibrated profile for a manufacturer. */
    static ManufacturerProfile of(Manufacturer m);
};

/** Ambient/device operating conditions. */
struct OperatingConditions
{
    double temperature_c = 45.0;
};

/**
 * Complete configuration of one simulated device.
 */
struct DeviceConfig
{
    Manufacturer manufacturer = Manufacturer::A;
    Geometry geometry;
    TimingParams timing = TimingParams::lpddr4_3200();
    ManufacturerProfile profile = ManufacturerProfile::of(Manufacturer::A);
    OperatingConditions conditions;

    /**
     * Manufacturing seed: fixes all process variation (which cells are
     * weak, their Fprob, retention times, startup values). Two devices
     * with the same seed are identical dies.
     */
    std::uint64_t seed = 1;

    /**
     * Seed for the simulated physical-noise stream. 0 requests a
     * non-deterministic seed from std::random_device (hardware-like
     * behaviour); tests pass a fixed value for reproducibility.
     */
    std::uint64_t noise_seed = 0;

    /**
     * Force the scalar double-precision read path: every first-READ
     * bit is evaluated through the full margin model instead of the
     * word-parallel fixed-point threshold tables. Much slower;
     * exists so tests and benches can A/B the fast path against the
     * reference physics (see tests/test_hotpath_regression.cc).
     */
    bool scalar_read_path = false;

    /**
     * Convenience factory: a device of manufacturer @p m with the given
     * manufacturing seed and default geometry/timing.
     */
    static DeviceConfig make(Manufacturer m, std::uint64_t seed,
                             std::uint64_t noise_seed = 0);
};

} // namespace drange::dram

#endif // DRANGE_DRAM_CONFIG_HH
