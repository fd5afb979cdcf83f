/**
 * @file
 * Shared pieces of the entropy-service benchmark: the fixed pool, the
 * clock, latency samples, client tallies, and the correctness ledger.
 */

#ifndef SERVICEBENCH_COMMON_HH
#define SERVICEBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "trng/service.hh"

namespace servicebench {

namespace trng = drange::trng;
namespace util = drange::util;

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point begin, Clock::time_point end)
{
    return std::chrono::duration<double>(end - begin).count();
}

inline double
msBetween(Clock::time_point begin, Clock::time_point end)
{
    return std::chrono::duration<double, std::milli>(end - begin).count();
}

/** Median of @p v; 0 when empty. */
double median(std::vector<double> v);

/** Latency (or lag) samples in milliseconds, with when they were taken. */
class Samples
{
  public:
    void add(double ms, Clock::time_point at = {})
    {
        values_.push_back(ms);
        times_.push_back(at);
        sorted_.clear();
    }
    void append(const Samples &other);
    std::size_t size() const { return values_.size(); }

    /** Linear-interpolated quantile, q in [0, 1]; 0 when empty. */
    double quantile(double q) const;

    /**
     * The highest percentile, up to 100 q, that leaves at least ten
     * samples beyond it (0 below ten samples).
     */
    double claimable(double q) const;

    /**
     * The lower quartile over time slices of the window of each slice's
     * q-quantile. The window is cut into as many equal slices (at most
     * kMaxSlices) as leave ten samples beyond q in each, and slices
     * short of that are skipped. On a shared host the machine itself
     * stalls threads for 1-13 ms about three times a second (a lone
     * sleeping thread on an idle 4-vCPU VM), which sets the tail of
     * about half the one-second slices of the keys stream; a slowdown
     * of the program is in every slice and still moves the figure.
     * With fewer than three slices it is the claimable quantile of the
     * whole window.
     */
    double sliced(double q, Clock::time_point opened,
                  double window_s) const;

    static constexpr long kMaxSlices = 60;

  private:
    std::vector<double> values_;
    std::vector<Clock::time_point> times_;
    mutable std::vector<double> sorted_; //!< Cache for quantile().
};

/** What the client side of one workload pass saw. */
struct Tally
{
    double window_s = 0.0;         //!< Length of the measured window.
    std::uint64_t window_bits = 0; //!< Bits delivered in the window.
    std::uint64_t window_reads = 0; //!< Requests completed in it.
    Samples latency_ms;            //!< Per request, measured window.

    std::uint64_t ops_attempted = 0; //!< Logical requests, window.
    std::uint64_t ops_failed = 0;    //!< ... that never completed.

    /** Request attempts, retries included (all phases), and those
     * that failed: a health-latched session fails its queued reads;
     * the client reopens and retries them. */
    std::uint64_t attempts = 0;
    std::uint64_t attempt_failures = 0;
    std::uint64_t reconnects = 0;

    Samples lag_ms;          //!< Open loop: send time minus due time.
    bool rate_held = true;   //!< Open loop kept to its schedule.

    /** Per-session weight-normalized reservoir draw over the window,
     * for the fairness spread (empty when not applicable). */
    std::vector<double> session_draw;

    /** A request completed in the window: when it was issued (or due)
     * and when it finished, and its bits. */
    struct Completion
    {
        Clock::time_point since, at;
        std::uint64_t bits;
    };

    /** Window start and every completion in it, for the per-slice
     * rates. */
    Clock::time_point opened;
    std::vector<Completion> completions;

    void complete(Clock::time_point since, Clock::time_point at,
                  std::uint64_t bits)
    {
        window_bits += bits;
        ++window_reads;
        completions.push_back({since, at, bits});
    }
    void merge(const Tally &other);

    /**
     * Delivered Mbit/s and completed requests/s: the median over
     * kSlices equal slices of the window, so a short stall of the host
     * moves one slice, not the figure. Each request counts as spread
     * evenly over the time from its issue to its completion, so a
     * slice total is not a whole number of requests.
     */
    double mbps() const;
    double reqPerS() const;

    /** Sliced request-latency median and tail (p99 when claimable). */
    double p50() const { return latency_ms.sliced(0.5, opened, window_s); }
    double p99() const { return latency_ms.sliced(0.99, opened, window_s); }

    static constexpr int kSlices = 10;
};

/** Every correctness violation seen, with how often; any fails the
 * run. */
class Checks
{
  public:
    void require(bool ok, const std::string &what);
    bool ok() const { return failures_.empty(); }
    void print() const;

  private:
    std::map<std::string, std::uint64_t> failures_;
};

/** Shannon entropy (bits/bit) of a stream with @p ones of @p bits set. */
double shannonOfOnes(std::uint64_t ones, std::uint64_t bits);

/** Bits of delivered output the entropy check looks at. */
constexpr std::uint64_t kEntropySampleBits = 1u << 22;
constexpr double kMinShannon = 0.99;

/** Ones count over a sample of delivered bits, capped at
 * kEntropySampleBits. */
struct EntropySample
{
    std::uint64_t bits = 0;
    std::uint64_t ones = 0;

    bool full() const { return bits >= kEntropySampleBits; }
    void add(const util::BitStream &stream);
    void addBytes(const std::uint8_t *data, std::size_t count);
    void check(Checks &checks, const std::string &what) const;
};

// ------------------------------------------------------------ the pool

/** Registry name of the pool members: the real "drange" source, or
 * the benchmark's timing decorator around it (traced runs). */
enum class PoolKind { Plain, Traced };

/**
 * The fixed two-member pool: tools/trngd.example.conf's drange member
 * parameters, every other knob at its ServiceConfig default. The conf
 * leaves noise_seed at 0 (nondeterministic); here each member gets a
 * fixed one, not one drawn from the workload seed: which cells the
 * profile finds depends on it, and that alone moved bulk Mbit/s by
 * ~20% between two seeds on the same host.
 */
trng::ServiceConfig poolConfig(PoolKind kind);

/** The source Params of pool member @p member (shared by the probe). */
trng::Params memberParams(int member);

/** A running Service and the time it took to come up. */
struct Pool
{
    std::unique_ptr<trng::Service> service;
    double setup_s = 0.0; //!< Construction until every member has
                          //!< pushed its first chunk.
};

/** Construct a Service and wait until every member delivered. */
Pool startPool(PoolKind kind);

/** Conditioning profile names, plain or traced. */
std::vector<std::string> sha256Profile(PoolKind kind);
std::vector<std::string> keysProfile(PoolKind kind); //!< sha256,health

} // namespace servicebench

#endif // SERVICEBENCH_COMMON_HH
