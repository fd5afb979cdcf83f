/**
 * @file
 * Entropy-service benchmark: one fixed pool, three client loads.
 *
 *   servicebench --workload {bulk|fanout|keys_tcp} --seed N
 *                --seconds S --trace {0|1} [--git-rev REV]
 *
 * The pool is the two "drange" members of tools/trngd.example.conf
 * (fixed device and noise seeds, see common.hh) behind a trng::Service
 * with default settings; see workloads.hh for the loads. --seed draws
 * the keys request arrival times.
 *
 * --trace 0 measures the end-to-end metrics: a pool serves the load
 * for a warmup and then a window of S seconds; afterwards the pool is
 * set up again a few times (setup_s is the median of all set-ups).
 *
 * --trace 1 measures the per-layer metrics. It runs the load for S/3
 * seconds on a plain pool, then for S/3 on a pool whose sources and
 * conditioning stages are timing decorators (layers.hh), sampling
 * ServiceStats; the difference between the two is the tracing
 * overhead. The keys request stream then runs over TCP and in-process
 * on the traced pool (network self time is the difference), and the
 * harvest layers are probed directly (probes.hh).
 *
 * Every pass checks its outputs (bit counts, frame accounting, counter
 * reconciliation, Shannon entropy); any violation exits 1. The last
 * stdout line is one JSON object:
 * {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.hh"
#include "layers.hh"
#include "probes.hh"
#include "util/rng.hh"
#include "workloads.hh"

using namespace servicebench;

namespace {

constexpr std::size_t kSetupRepeats = 9;
constexpr double kProbeSeconds = 1.5; //!< Keys stream on bulk/fanout.

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string git_rev = "unknown";
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "servicebench: %s\nusage: servicebench --workload "
                 "{bulk|fanout|keys_tcp} --seed N --seconds S "
                 "--trace {0|1} [--git-rev REV]\n",
                 why.c_str());
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload")
            o.workload = value;
        else if (flag == "--seed")
            o.seed = std::stoull(value);
        else if (flag == "--seconds")
            o.seconds = std::stod(value);
        else if (flag == "--trace")
            o.trace = value != "0";
        else if (flag == "--git-rev")
            o.git_rev = value;
        else
            usage("unknown flag " + flag);
    }
    if (o.workload != "bulk" && o.workload != "fanout" &&
        o.workload != "keys_tcp")
        usage("unknown workload \"" + o.workload + "\"");
    if (!(o.seconds > 0))
        usage("--seconds must be positive");
    return o;
}

/** Wall-clock ms of a fixed integer mixing loop (host speed). */
double
calibrationMs()
{
    const auto begin = Clock::now();
    std::uint64_t state = 0x9e3779b97f4a7c15ULL, acc = 0;
    for (int i = 0; i < 20'000'000; ++i)
        acc ^= util::splitmix64(state);
    const double ms = msBetween(begin, Clock::now());
    if (acc == 42)
        std::printf("calibration fixed point\n");
    return ms;
}

double
peakRssMb()
{
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double
ratio(double num, double den)
{
    return den != 0 ? num / den : 0.0;
}

/** Ordered metric list printed as the result's "metrics" object. */
class Metrics
{
  public:
    void add(const std::string &name, double value, const std::string &unit)
    {
        entries_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
    }

    void print(const Checks &checks, std::uint64_t attempted,
               std::uint64_t failed) const
    {
        for (const Entry &e : entries_)
            std::printf("  %-36s %14.6g %s\n", e.name.c_str(), e.value,
                        e.unit.c_str());
        std::string json = "{\"correct\": ";
        json += checks.ok() ? "true" : "false";
        json += ", \"attempted\": " + std::to_string(attempted);
        json += ", \"failed\": " + std::to_string(failed);
        json += ", \"metrics\": {";
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            char value[64];
            std::snprintf(value, sizeof(value), "%.17g", entries_[i].value);
            json += (i ? ", \"" : "\"") + entries_[i].name +
                    "\": {\"value\": " + value + ", \"unit\": \"" +
                    entries_[i].unit + "\"}";
        }
        json += "}}";
        std::printf("%s\n", json.c_str());
    }

  private:
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Entry> entries_;
};

/** Run @p workload's own load on @p service. */
Tally
runWorkload(const std::string &workload, trng::Service &service,
            PoolKind kind, const Window &window, Checks &checks,
            net::ServerStats *server = nullptr)
{
    if (workload == "bulk")
        return runBulk(service, window, checks);
    if (workload == "fanout")
        return runFanout(service, kind, window, checks);
    TcpPass pass = runKeysTcp(service, kind, window, checks);
    if (server)
        *server = pass.server;
    return pass.tally;
}

double
warmupFor(const std::string &workload)
{
    // bulk/fanout: drain the initial reservoir and let adaptive chunk
    // sizing settle; keys_tcp only needs its connections warm.
    return workload == "keys_tcp" ? 1.0 : 2.0;
}

void
describe(const char *label, const Tally &t)
{
    std::printf("  [%s] %.3f s window: %llu requests, %.4f Mbit/s "
                "(slice median), latency n=%zu: p50 %.4f ms, "
                "p%.2f %.4f ms over the window, sliced p50 %.4f ms, "
                "sliced p99 %.4f ms; attempts %llu, failed attempts %llu, "
                "reconnects %llu\n",
                label, t.window_s,
                static_cast<unsigned long long>(t.window_reads), t.mbps(),
                t.latency_ms.size(), t.latency_ms.quantile(0.5),
                t.latency_ms.claimable(0.99),
                t.latency_ms.quantile(t.latency_ms.claimable(0.99) / 100),
                t.p50(), t.p99(),
                static_cast<unsigned long long>(t.attempts),
                static_cast<unsigned long long>(t.attempt_failures),
                static_cast<unsigned long long>(t.reconnects));
    if (t.lag_ms.size() > 0)
        std::printf("  [%s] open-loop lag p99 %.4f ms: %s\n", label,
                    t.lag_ms.quantile(0.99),
                    t.rate_held ? "held the offered rate"
                                : "FELL BEHIND the offered rate");
}

// ------------------------------------------------------- end to end

void
endToEnd(const Options &o, Checks &checks)
{
    // One pool serves the load, so peak RSS is one service's lifetime;
    // the extra set-ups for the setup_s median come after it.
    Pool pool = startPool(PoolKind::Plain);
    std::vector<double> setups{pool.setup_s};
    Window window;
    window.warmup_s = warmupFor(o.workload);
    window.seconds = o.seconds;
    window.seed = o.seed;
    const Tally t = runWorkload(o.workload, *pool.service, PoolKind::Plain,
                                window, checks);
    const double peak_rss_mb = peakRssMb();
    pool.service.reset();
    describe(o.workload.c_str(), t);
    while (setups.size() < kSetupRepeats) {
        pool = startPool(PoolKind::Plain);
        setups.push_back(pool.setup_s);
        pool.service.reset();
    }
    std::printf("  setup_s samples:");
    for (double s : setups)
        std::printf(" %.4f", s);
    std::printf("\n");

    Metrics m;
    m.add("delivered_mbps", t.mbps(), "Mbit/s");
    m.add("read_p50_ms", t.p50(), "ms");
    m.add("read_p99_ms", t.p99(), "ms");
    m.add("req_per_s", t.reqPerS(), "1/s");
    m.add("setup_s", median(setups), "s");
    m.add("peak_rss_mb", peak_rss_mb, "MB");
    checks.print();
    m.print(checks, t.ops_attempted, t.ops_failed);
}

// -------------------------------------------------------- per layer

/** Polls the reservoir fill fraction while the window is open. */
class FillSampler
{
  public:
    FillSampler() = default;
    FillSampler(const FillSampler &) = delete;
    FillSampler &operator=(const FillSampler &) = delete;
    ~FillSampler() { stop(); }

    void start(const trng::Service &service)
    {
        stop_ = false;
        thread_ = std::thread([this, &service] {
            while (!stop_.load(std::memory_order_acquire)) {
                const trng::ServiceStats st = service.stats();
                sum_ += ratio(static_cast<double>(st.reservoir_bits),
                              static_cast<double>(st.reservoir_capacity));
                ++samples_;
                std::this_thread::sleep_for(std::chrono::milliseconds(10));
            }
        });
    }
    void stop()
    {
        stop_ = true;
        if (thread_.joinable())
            thread_.join();
    }
    double mean() const { return ratio(sum_, samples_); }

  private:
    std::thread thread_;
    std::atomic<bool> stop_{false};
    double sum_ = 0;
    double samples_ = 0;
};

double
spread(const std::vector<double> &draws)
{
    if (draws.empty())
        return 0.0;
    const auto [lo, hi] = std::minmax_element(draws.begin(), draws.end());
    return *lo > 0 ? *hi / *lo : 0.0;
}

void
perLayer(const Options &o, Checks &checks)
{
    const double pass_s = o.seconds / 3;
    Window window;
    window.warmup_s = warmupFor(o.workload);
    window.seconds = pass_s;
    window.seed = o.seed;

    // Untraced reference pass, for the tracing overhead.
    Pool plain = startPool(PoolKind::Plain);
    const Tally untraced = runWorkload(o.workload, *plain.service,
                                       PoolKind::Plain, window, checks);
    plain.service.reset();
    describe("untraced", untraced);

    registerTracedLayers();
    Pool pool = startPool(PoolKind::Traced);
    trng::Service &service = *pool.service;
    trng::ServiceStats s0, s1;
    LayerSnapshot src0, src1;
    FillSampler fill;
    window.on_open = [&] {
        s0 = service.stats();
        src0 = snapshot(layers().source);
        fill.start(service);
    };
    window.on_close = [&] {
        src1 = snapshot(layers().source);
        fill.stop();
        s1 = service.stats();
    };
    net::ServerStats server;
    const Tally traced = runWorkload(o.workload, service, PoolKind::Traced,
                                     window, checks, &server);
    describe("traced", traced);

    // The keys stream over TCP and replayed in-process on this pool.
    // After bulk/fanout the warmup lets the reservoir refill and the
    // member chunks shrink back to the keys steady state.
    Window keys;
    keys.seed = o.seed;
    keys.warmup_s = o.workload == "keys_tcp" ? 0.5 : 1.5;
    keys.seconds = o.workload == "keys_tcp" ? pass_s : kProbeSeconds;
    Tally tcp = traced;
    if (o.workload != "keys_tcp") {
        TcpPass pass = runKeysTcp(service, PoolKind::Traced, keys, checks);
        tcp = pass.tally;
        server = pass.server;
        describe("keys_tcp probe", tcp);
    }
    const Tally inproc =
        runKeysInproc(service, PoolKind::Traced, keys, checks);
    describe("keys in-process", inproc);
    pool.service.reset();

    const LayerSnapshot src = src1 - src0;
    const double chunk_bits_mean = ratio(static_cast<double>(src.bits),
                                         static_cast<double>(src.calls));
    const HarvestProbe probe = probeHarvest(
        memberParams(0),
        static_cast<std::size_t>(std::llround(chunk_bits_mean)));
    const LayerSnapshot sha = snapshot(layers().sha256);
    const LayerSnapshot health = snapshot(layers().health);

    const double window_ns = traced.window_s * 1e9;
    const auto delta = [&](std::uint64_t trng::ServiceStats::*field) {
        return static_cast<double>(s1.*field - s0.*field);
    };
    const double delivered_mbit =
        delta(&trng::ServiceStats::delivered_bits) / 1e6;
    const double harvested = delta(&trng::ServiceStats::harvested_bits);

    Metrics m;
    m.add("dram.refresh_us_per_call", probe.refresh_us_per_call, "us");
    m.add("dram.refresh_share", probe.refresh_share, "frac");
    m.add("controller.refs_per_mbit", probe.refs_per_mbit, "count/Mbit");
    m.add("controller.trace_records_per_bit", probe.trace_records_per_bit,
          "count/bit");
    m.add("core.round_ns_per_bit", probe.round_ns_per_bit, "ns/bit");
    m.add("core.generate_ns_per_bit", probe.generate_ns_per_bit, "ns/bit");
    m.add("core.generate_fixed_us_per_call",
          probe.generate_fixed_us_per_call, "us");
    m.add("source.chunk_ns_per_bit", src.nsPerBit(), "ns/bit");
    m.add("source.busy_frac",
          ratio(static_cast<double>(src.ns),
                window_ns * static_cast<double>(s1.members.size())),
          "frac");
    m.add("source.chunk_bits_mean", chunk_bits_mean, "bits");
    m.add("source.adapter_ns_per_bit",
          src.nsPerBit() - probe.generate_ns_per_bit, "ns/bit");
    m.add("conditioning.sha256_ns_per_bit", sha.nsPerBit(), "ns/bit");
    m.add("conditioning.health_ns_per_bit", health.nsPerBit(), "ns/bit");
    m.add("conditioning.health_alarms_per_mbit",
          ratio(static_cast<double>(health.alarms),
                static_cast<double>(health.bits) / 1e6),
          "count/Mbit");
    m.add("service.stolen_frac",
          ratio(delta(&trng::ServiceStats::stolen_bits), harvested),
          "frac");
    m.add("service.steals_per_mbit",
          ratio(delta(&trng::ServiceStats::steals), delivered_mbit),
          "count/Mbit");
    m.add("service.producer_waits_per_mbit",
          ratio(delta(&trng::ServiceStats::producer_waits), delivered_mbit),
          "count/Mbit");
    m.add("service.reservoir_fill_mean", fill.mean(), "frac");
    m.add("service.fair_spread",
          spread(o.workload == "keys_tcp" ? inproc.session_draw
                                          : traced.session_draw),
          "ratio");
    m.add("service.delivered_per_harvested",
          ratio(delivered_mbit * 1e6, harvested), "ratio");
    m.add("service.inproc_p50_ms", inproc.p50(), "ms");
    m.add("service.inproc_p99_ms", inproc.p99(), "ms");
    m.add("net.self_p50_ms", tcp.p50() - inproc.p50(), "ms");
    m.add("net.self_p99_ms", tcp.p99() - inproc.p99(), "ms");
    m.add("net.service_errors", static_cast<double>(server.service_errors),
          "count");
    m.add("net.backpressure_stalls",
          static_cast<double>(server.backpressure_stalls), "count");
    m.add("net.quota_throttles", static_cast<double>(server.quota_throttles),
          "count");
    m.add("client.ops_attempted", static_cast<double>(traced.attempts),
          "count");
    m.add("client.ops_failed", static_cast<double>(traced.attempt_failures),
          "count");
    m.add("client.lag_p99_ms", tcp.lag_ms.quantile(0.99), "ms");
    m.add("client.rate_held", tcp.rate_held ? 1.0 : 0.0, "bool");
    m.add("trace.overhead_frac",
          ratio(untraced.mbps() - traced.mbps(), untraced.mbps()), "frac");
    m.add("trace.p50_overhead_frac",
          ratio(traced.p50() - untraced.p50(), untraced.p50()),
          "frac");
    checks.print();
    m.print(checks, untraced.ops_attempted + traced.ops_attempted,
            untraced.ops_failed + traced.ops_failed);
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parse(argc, argv);
    std::printf("servicebench workload=%s seed=%llu seconds=%g trace=%d "
                "host_cores=%u calibration_ms=%.3f git_rev=%s\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                o.seconds, o.trace ? 1 : 0,
                std::thread::hardware_concurrency(), calibrationMs(),
                o.git_rev.c_str());
    std::fflush(stdout);
    Checks checks;
    try {
        if (o.trace)
            perLayer(o, checks);
        else
            endToEnd(o, checks);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "servicebench: %s\n", e.what());
        return 1;
    }
    std::fflush(stdout);
    return checks.ok() ? 0 : 1;
}
