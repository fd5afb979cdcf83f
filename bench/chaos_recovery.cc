/**
 * @file
 * Chaos recovery bench: scripted fault scenarios against the full
 * serving stack (drange pool members -> trng::Service -> net::Server
 * over TCP), measuring how the quarantine -> probation -> reinstate
 * lifecycle and degraded-mode shedding behave end to end.
 *
 * Each scenario wraps one pool member in a sim::FaultInjector via the
 * `faults.*` Params section (the same config path a trngd operator
 * uses) and drives a blocking TCP client through four phases:
 * baseline throughput, fault onset (member quarantined), recovery
 * (member reinstated after clean probation), and post-fault
 * throughput. A low-priority probe client samples the degraded
 * window: its requests are shed with kStatusBusy retry-after frames
 * while the pool is impaired and served again once it heals.
 *
 * Built-in scenarios:
 *   stuck_window  -- the member's output sticks at zero for 1.5 s;
 *                    the injector's own SP 800-90B monitor alarms.
 *   crash_ramp    -- a temperature ramp (through the simulated
 *                    device's cell physics) followed by a one-shot
 *                    worker crash.
 *
 * The enforced metrics are booleans: every scenario must account for
 * every frame (each request answered exactly once, with data or a
 * busy hint -- never silently dropped), recover within the deadline,
 * and return to >= 80% of its baseline throughput. Wall-clock
 * recovery time and busy-frame counts are recorded unenforced.
 *
 * Emits BENCH_chaos_recovery.json (see bench_util.hh); --quick runs
 * smaller frame counts. Exits nonzero if any scenario fails, so CI
 * can gate on the binary directly.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "bench_util.hh"
#include "net/frame.hh"
#include "net/listener.hh"
#include "net/server.hh"
#include "trng/service.hh"

using namespace drange;

namespace {

using Clock = std::chrono::steady_clock;

double
elapsedS(Clock::time_point begin, Clock::time_point end)
{
    return std::chrono::duration<double>(end - begin).count();
}

/** One pool channel; @p faulted members also carry the scenario's
 * faults.* section, so Registry::make wraps them in a FaultInjector
 * exactly as a [pool.X.faults.E] config section would. */
trng::PoolMemberConfig
channelMember(const std::string &label, std::uint64_t seed,
              const std::vector<std::pair<std::string, std::string>>
                  &faults)
{
    trng::Params params = trng::Params{}
                              .set("manufacturer", "A")
                              .set("seed",
                                   static_cast<std::int64_t>(seed))
                              .set("rows_per_bank", 8192)
                              .set("banks", 4)
                              .set("profile_rows", 256)
                              .set("profile_words", 24)
                              .set("screen_iterations", 60)
                              .set("samples", 600)
                              .set("symbol_tolerance", 0.15)
                              .set("chunk_bits", 4096);
    for (const auto &kv : faults)
        params = params.set("faults." + kv.first, kv.second);
    trng::PoolMemberConfig member;
    member.source = "drange";
    member.label = label;
    member.params = std::move(params);
    return member;
}

/** Blocking TCP protocol client. */
struct Client
{
    int fd = -1;
    long sent = 0;
    long ok = 0;
    long busy = 0;
    long errors = 0; //!< Transport failures + error-status frames.

    explicit Client(std::uint16_t port)
    {
        std::string error;
        fd = net::connectTcp("127.0.0.1", port, error);
        if (fd < 0) {
            std::fprintf(stderr, "chaos_recovery: %s\n",
                         error.c_str());
            return;
        }
        struct timeval timeout = {30, 0};
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                     sizeof(timeout));
    }

    ~Client()
    {
        if (fd >= 0)
            ::close(fd);
    }

    bool io(const void *out_data, std::size_t out_count)
    {
        const auto *out = static_cast<const std::uint8_t *>(out_data);
        while (out_count > 0) {
            const ssize_t n =
                ::send(fd, out, out_count, MSG_NOSIGNAL);
            if (n <= 0)
                return false;
            out += n;
            out_count -= static_cast<std::size_t>(n);
        }
        return true;
    }

    bool readAll(void *data, std::size_t count)
    {
        auto *in = static_cast<std::uint8_t *>(data);
        while (count > 0) {
            const ssize_t n = ::recv(fd, in, count, 0);
            if (n <= 0)
                return false;
            in += n;
            count -= static_cast<std::size_t>(n);
        }
        return true;
    }

    /** One request/response exchange. @return the status, or -1 on a
     * transport failure. @p retry_hint_ms receives a busy frame's
     * retry-after hint. */
    int exchange(std::uint16_t priority, std::uint32_t bytes,
                 std::uint32_t &retry_hint_ms)
    {
        const std::vector<std::uint8_t> wire =
            net::FrameEncoder::request(priority, bytes);
        if (!io(wire.data(), wire.size())) {
            ++errors;
            return -1;
        }
        ++sent;
        unsigned char header[net::kHeaderBytes];
        if (!readAll(header, sizeof(header)) ||
            header[0] != net::kResponseMagic0 ||
            header[1] != net::kResponseMagic1) {
            ++errors;
            return -1;
        }
        const std::uint16_t status = net::decode16(header + 2);
        std::vector<std::uint8_t> payload(net::decode32(header + 4));
        if (!payload.empty() &&
            !readAll(payload.data(), payload.size())) {
            ++errors;
            return -1;
        }
        if (status == net::kStatusOk) {
            ++ok;
        } else if (status == net::kStatusBusy) {
            ++busy;
            retry_hint_ms = net::decodeBusyRetryMs(payload);
        } else {
            ++errors;
        }
        return status;
    }

    /** Exchange with busy-retry (honoring the hint) until data or
     * @p deadline. @return true on kStatusOk. */
    bool fetch(std::uint16_t priority, std::uint32_t bytes,
               Clock::time_point deadline)
    {
        for (;;) {
            std::uint32_t hint = 0;
            const int status = exchange(priority, bytes, hint);
            if (status == net::kStatusOk)
                return true;
            if (status != net::kStatusBusy ||
                Clock::now() >= deadline)
                return false;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(hint ? hint : 50));
        }
    }
};

struct ScenarioResult
{
    bool frames_ok = false;
    bool recovered = false;
    bool throughput_ok = false;
    double recovery_s = 0.0;
    double baseline_mbps = 0.0;
    double post_mbps = 0.0;
    long busy_frames = 0;
};

ScenarioResult
runScenario(const std::string &name,
            const std::vector<std::pair<std::string, std::string>>
                &faults,
            bool quick)
{
    std::printf("\n--- scenario %s ---\n", name.c_str());
    trng::ServiceConfig pool;
    pool.pool.push_back(channelMember("steady", 91, {}));
    pool.pool.push_back(channelMember("faulted", 92, faults));
    pool.reservoir_bits = 1u << 16;
    pool.reinstate = true;
    pool.probation_delay_ms = 100;
    pool.probation_windows = 2;

    net::ServerConfig server_config;
    server_config.tcp_port = 0; // Ephemeral.
    server_config.degraded_quarantine_fraction = 0.5;
    server_config.degraded_retry_ms = 50;
    server_config.degraded_escalation_ms = 200;

    trng::Service service(std::move(pool));
    net::Server server(service, std::move(server_config),
                       trng::SessionConfig{});
    server.start();
    std::thread server_thread([&server] { server.run(); });

    ScenarioResult result;
    const int frames = quick ? 8 : 24;
    const std::uint32_t frame_bytes = quick ? 512 : 1024;
    const auto scenario_deadline =
        Clock::now() + std::chrono::seconds(60);
    {
        // Main client: priority 2, so degraded shedding (band starts
        // at priority 1, sparing the highest seen while any member
        // still serves) never interrupts it.
        Client main_client(server.tcpPort());
        Client probe(server.tcpPort()); // Priority 1: shed while
                                        // degraded.
        bool transport_ok = main_client.fd >= 0 && probe.fd >= 0;

        // Warmup: the pool's one-time profiling cost (a long-running
        // daemon paid it at startup) stays outside the timed window.
        for (int i = 0; transport_ok && i < 2; ++i)
            transport_ok =
                main_client.fetch(2, frame_bytes, scenario_deadline);

        // Phase A: baseline throughput, pre-fault. It starts the way
        // Phase D does, from a reservoir too full for any serving
        // member's next chunk, so every producer is parked on it:
        // timed straight after warm-up it would start from whatever
        // fill the warm-up left, with the producers still racing to
        // top it up, and read up to twice the post-fault rate.
        const auto reservoir_full = [&service] {
            const trng::ServiceStats st = service.stats();
            for (const trng::MemberStats &m : st.members)
                if (!m.quarantined &&
                    st.reservoir_bits + m.chunk_bits <=
                        st.reservoir_capacity)
                    return false;
            return true;
        };
        while (transport_ok && !reservoir_full() &&
               Clock::now() < scenario_deadline)
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        const auto t_base = Clock::now();
        for (int i = 0; transport_ok && i < frames; ++i)
            transport_ok =
                main_client.fetch(2, frame_bytes, scenario_deadline);
        result.baseline_mbps =
            static_cast<double>(frames) * frame_bytes * 8.0 /
            (elapsedS(t_base, Clock::now()) * 1e6);
        std::printf("baseline: %.1f Mbit/s over TCP\n",
                    result.baseline_mbps);

        // Phase B: keep demand flowing until the scripted fault
        // quarantines the member (without reads the reservoir fills
        // and the fault window could pass unobserved).
        bool quarantined = false;
        while (transport_ok && !quarantined &&
               Clock::now() < scenario_deadline) {
            transport_ok =
                main_client.fetch(2, frame_bytes, scenario_deadline);
            quarantined =
                service.stats().quarantined_members > 0;
        }
        const auto t_fault = Clock::now();
        std::printf("fault hit: member quarantined (%s)\n",
                    quarantined ? "ok" : "MISSED");

        // Phase C: ride out the probation lifecycle. The probe
        // client samples the degraded window; its busy frames carry
        // the retry-after hint.
        int probe_budget = 10;
        while (transport_ok && quarantined && !result.recovered &&
               Clock::now() < scenario_deadline) {
            transport_ok =
                main_client.fetch(2, frame_bytes, scenario_deadline);
            if (probe_budget > 0) {
                --probe_budget;
                std::uint32_t hint = 0;
                const int status =
                    probe.exchange(1, frame_bytes, hint);
                if (status < 0 || status == net::kStatusError ||
                    status == net::kStatusProtocolError)
                    transport_ok = false;
            }
            const trng::ServiceStats stats = service.stats();
            result.recovered = stats.reinstatements >= 1 &&
                               stats.quarantined_members == 0;
        }
        result.recovery_s = elapsedS(t_fault, Clock::now());
        result.busy_frames = probe.busy;
        std::printf(
            "recovery: %s in %.2f s (probe: %ld busy frames)\n",
            result.recovered ? "reinstated" : "DEADLINE MISSED",
            result.recovery_s, probe.busy);

        // The degraded window has closed: the probe client's retries
        // must land real entropy again.
        if (transport_ok && result.recovered)
            transport_ok =
                probe.fetch(1, frame_bytes, scenario_deadline);

        // Phase D: post-recovery throughput.
        const auto t_post = Clock::now();
        for (int i = 0; transport_ok && i < frames; ++i)
            transport_ok =
                main_client.fetch(2, frame_bytes, scenario_deadline);
        result.post_mbps =
            static_cast<double>(frames) * frame_bytes * 8.0 /
            (elapsedS(t_post, Clock::now()) * 1e6);
        result.throughput_ok =
            result.post_mbps >= 0.8 * result.baseline_mbps;
        std::printf("post-fault: %.1f Mbit/s (%.0f%% of baseline)\n",
                    result.post_mbps,
                    result.baseline_mbps > 0.0
                        ? 100.0 * result.post_mbps /
                              result.baseline_mbps
                        : 0.0);

        // Frame accounting: every request this scenario sent got
        // exactly one well-formed answer -- data or a busy hint,
        // never an error, a dropped frame, or a duplicate (the
        // blocking exchange pairs them by construction; a mismatch
        // surfaces as a transport error).
        result.frames_ok =
            transport_ok && main_client.errors == 0 &&
            probe.errors == 0 &&
            main_client.ok + main_client.busy == main_client.sent &&
            probe.ok + probe.busy == probe.sent;
        std::printf("frames: %ld sent / %ld ok / %ld busy (%s)\n",
                    main_client.sent + probe.sent,
                    main_client.ok + probe.ok,
                    main_client.busy + probe.busy,
                    result.frames_ok ? "all accounted"
                                     : "ACCOUNTING FAILED");
    }

    server.stop();
    server_thread.join();
    return result;
}

void
report(bench::BenchReport &out, const std::string &name,
       const ScenarioResult &r)
{
    using Better = bench::BenchReport::Better;
    out.add(name + "_frames_ok", r.frames_ok ? 1.0 : 0.0, "bool",
            Better::Higher);
    out.add(name + "_recovered", r.recovered ? 1.0 : 0.0, "bool",
            Better::Higher);
    out.add(name + "_throughput_ok", r.throughput_ok ? 1.0 : 0.0,
            "bool", Better::Higher);
    out.add(name + "_recovery_s", r.recovery_s, "s", Better::Lower,
            /*host=*/true, /*enforced=*/false);
    out.add(name + "_busy_frames",
            static_cast<double>(r.busy_frames), "frames",
            Better::Lower, /*host=*/true, /*enforced=*/false);
    out.add(name + "_baseline_mbps", r.baseline_mbps, "Mbit/s",
            Better::Higher, /*host=*/true, /*enforced=*/false);
    out.add(name + "_post_mbps", r.post_mbps, "Mbit/s",
            Better::Higher, /*host=*/true, /*enforced=*/false);
}

} // namespace

int
main(int argc, char **argv)
{
    const bool quick = bench::hasFlag(argc, argv, "--quick");
    bench::banner("chaos recovery",
                  "scripted faults against the TCP serving stack: "
                  "quarantine, probation, reinstatement, and "
                  "degraded-mode shedding under load");

    // The member's output sticks at zero mid-serving; the injector's
    // SP 800-90B monitor alarms (the inner source's own gates never
    // see post-source corruption) and probation relapses until the
    // window passes.
    const ScenarioResult stuck = runScenario(
        "stuck_window",
        {{"jam.kind", "stuck"},
         {"jam.at_ms", "1000"},
         {"jam.duration_ms", "1500"},
         {"jam.value", "0"}},
        quick);

    // A slow temperature excursion (through the simulated device's
    // cell physics) followed by a one-shot worker crash; each
    // probation attempt re-identifies the RNG cells at the new
    // operating point (a few hundred ms here; seconds at 85 C, where
    // identification can no longer skip the strong cells) and the
    // member rejoins.
    const ScenarioResult crash = runScenario(
        "crash_ramp",
        {{"hot.kind", "temp_ramp"},
         {"hot.at_ms", "0"},
         {"hot.duration_ms", "800"},
         {"hot.from_c", "45"},
         {"hot.temperature_c", "50"},
         {"dead.kind", "crash"},
         {"dead.at_ms", "800"}},
        quick);

    bench::BenchReport out("chaos_recovery", argc, argv);
    report(out, "stuck_window", stuck);
    report(out, "crash_ramp", crash);
    out.write();

    const bool pass = stuck.frames_ok && stuck.recovered &&
                      stuck.throughput_ok && crash.frames_ok &&
                      crash.recovered && crash.throughput_ok;
    std::printf("\nchaos recovery: %s\n",
                pass ? "all scenarios recovered" : "FAILED");
    return pass ? 0 : 1;
}
