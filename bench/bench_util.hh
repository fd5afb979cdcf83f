/**
 * @file
 * Shared helpers for the benchmark harness binaries. Every bench prints
 * the paper artifact it regenerates (figure/table number), the
 * simulated-device parameters, and paper-reported reference values next
 * to the measured ones.
 *
 * Benches additionally emit a machine-readable BENCH_<name>.json
 * (bench name, git revision, host core count, host-speed calibration,
 * and one entry per metric) so the repo can track its performance trajectory:
 * tools/check_bench_regression.py compares two such files and fails on
 * regressions. Pass `--out <path>` to redirect the JSON (default:
 * BENCH_<name>.json in the current directory) and `--quick` where a
 * bench supports a smaller CI-sized run.
 */

#ifndef DRANGE_BENCH_BENCH_UTIL_HH
#define DRANGE_BENCH_BENCH_UTIL_HH

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/drange.hh"
#include "dram/device.hh"
#include "util/rng.hh"

namespace drange::bench {

/** Print the standard bench banner. */
inline void
banner(const std::string &artifact, const std::string &description)
{
    std::printf("==============================================================\n");
    std::printf("D-RaNGe reproduction | %s\n", artifact.c_str());
    std::printf("%s\n", description.c_str());
    std::printf("==============================================================\n");
}

/** Device with a smaller bank (faster materialization) for benches. */
inline dram::DeviceConfig
benchDevice(dram::Manufacturer m, std::uint64_t seed,
            std::uint64_t noise_seed = 0)
{
    auto cfg = dram::DeviceConfig::make(m, seed, noise_seed);
    cfg.geometry.rows_per_bank = 8192;
    return cfg;
}

/** D-RaNGe engine config tuned for bench runtimes. */
inline core::DRangeConfig
benchTrngConfig(int banks)
{
    core::DRangeConfig cfg;
    cfg.banks = banks;
    cfg.profile_rows = 256;
    cfg.profile_words = 24;
    cfg.identify.screen_iterations = 60;
    cfg.identify.samples = 600;
    cfg.identify.symbol_tolerance = 0.15;
    return cfg;
}

// ---------------------------------------------------------------------
// Machine-readable benchmark reports.
// ---------------------------------------------------------------------

/** @return true if @p flag (e.g. "--quick") is present in argv. */
inline bool
hasFlag(int argc, char **argv, const char *flag)
{
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], flag) == 0)
            return true;
    return false;
}

/** @return the value following @p flag, or @p fallback. */
inline std::string
flagValue(int argc, char **argv, const char *flag,
          const std::string &fallback)
{
    for (int i = 1; i + 1 < argc; ++i)
        if (std::strcmp(argv[i], flag) == 0)
            return argv[i + 1];
    return fallback;
}

/** Short git revision of the working tree, or "unknown". */
inline std::string
gitRev()
{
    std::string rev = "unknown";
    if (FILE *p = ::popen("git rev-parse --short HEAD 2>/dev/null", "r")) {
        char buf[64] = {};
        if (std::fgets(buf, sizeof(buf), p)) {
            rev = buf;
            while (!rev.empty() &&
                   (rev.back() == '\n' || rev.back() == '\r'))
                rev.pop_back();
        }
        ::pclose(p);
        if (rev.empty())
            rev = "unknown";
    }
    return rev;
}

/**
 * Wall-clock milliseconds of a fixed CPU-bound mixing loop. Stored in
 * every report so host-time metrics can be compared across machines of
 * different speeds: the regression checker scales a baseline's host
 * metrics by the calibration ratio before applying its tolerance.
 */
inline double
calibrationMs()
{
    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t acc = 0x9e3779b97f4a7c15ULL;
    for (int i = 0; i < 20'000'000; ++i)
        acc = util::mix64(acc + i);
    const auto t1 = std::chrono::steady_clock::now();
    // Keep the accumulator observable so the loop cannot be elided.
    if (acc == 42)
        std::printf("calibration fixed point\n");
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/**
 * Collects metrics and writes BENCH_<name>.json. Host-time metrics
 * (wall-clock measurements) are tagged so the checker can normalize
 * them by the calibration ratio; simulated metrics (Mb/s, ns of DRAM
 * time) are machine-independent and compared directly.
 */
class BenchReport
{
  public:
    /** @p argv is scanned for `--out <path>`. */
    BenchReport(std::string name, int argc = 0, char **argv = nullptr)
        : name_(std::move(name)),
          out_(flagValue(argc, argv, "--out",
                         "BENCH_" + name_ + ".json"))
    {
    }

    enum class Better { Higher, Lower };

    /**
     * Record one metric. @p host tags wall-clock measurements (the
     * checker rescales those by the calibration ratio). Pass
     * @p enforced = false for metrics whose value depends on host
     * *parallelism* (core count), not just speed — the single-threaded
     * calibration loop cannot normalize those, so the checker reports
     * them without gating on them.
     */
    void add(const std::string &metric, double value,
             const std::string &unit, Better better, bool host = false,
             bool enforced = true)
    {
        metrics_.push_back({metric, unit, value, better, host, enforced});
    }

    /** Write the JSON file; @return the path (empty on failure). */
    std::string write() const
    {
        std::ofstream out(out_);
        if (!out) {
            std::fprintf(stderr, "BenchReport: cannot write %s\n",
                         out_.c_str());
            return "";
        }
        out << "{\n";
        out << "  \"bench\": \"" << name_ << "\",\n";
        out << "  \"git_rev\": \"" << gitRev() << "\",\n";
        // Host-parallelism-dependent metrics only compare across
        // reports taken on the same core count.
        out << "  \"host_cores\": " << std::thread::hardware_concurrency()
            << ",\n";
        out << "  \"calibration_ms\": " << calibration_ms_ << ",\n";
        out << "  \"metrics\": [\n";
        for (std::size_t i = 0; i < metrics_.size(); ++i) {
            const Metric &m = metrics_[i];
            out << "    {\"metric\": \"" << m.name << "\", \"value\": "
                << m.value << ", \"unit\": \"" << m.unit
                << "\", \"better\": \""
                << (m.better == Better::Higher ? "higher" : "lower")
                << "\", \"host\": " << (m.host ? "true" : "false")
                << ", \"enforced\": " << (m.enforced ? "true" : "false")
                << "}" << (i + 1 < metrics_.size() ? "," : "") << "\n";
        }
        out << "  ]\n}\n";
        std::printf("\nwrote %s\n", out_.c_str());
        return out_;
    }

  private:
    struct Metric
    {
        std::string name;
        std::string unit;
        double value;
        Better better;
        bool host;
        bool enforced;
    };

    std::string name_;
    std::string out_;
    double calibration_ms_ = calibrationMs();
    std::vector<Metric> metrics_;
};

} // namespace drange::bench

#endif // DRANGE_BENCH_BENCH_UTIL_HH
