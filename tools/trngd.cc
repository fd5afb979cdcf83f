/**
 * @file
 * trngd: entropy-service daemon over Unix-domain and/or TCP sockets.
 *
 * Parses an INI-style config file (Params::fromFile) into a
 * trng::Service pool spec, starts the service, and serves framed
 * entropy requests (see trng_proto.hh / net/frame.hh). Both transports
 * run on one net::Server -- a single epoll event loop multiplexing
 * every connection -- so thousands of clients cost neither a thread
 * nor a blocking read each. Each client connection gets its own
 * trng::Session whose priority comes from the client's first request
 * frame, so the service's deficit-round-robin fairness applies per
 * connection, and [net.priority.N] config sections can attach
 * token-bucket quotas to individual priority classes. The whole
 * D-RaNGe stack is thereby drivable without writing C++:
 *
 *     trngd tools/trngd.example.conf --socket /tmp/trngd.sock \
 *           --tcp 127.0.0.1:7777 &
 *     trng-cli --socket /tmp/trngd.sock --bytes 32
 *     trng-cli --tcp 127.0.0.1:7777 --bytes 32
 *
 * Config sections (see tools/trngd.example.conf):
 *   [trngd]    socket, tcp, max_request_bytes, accept_limit
 *   [net]      event-loop front-end: tcp_listen, connection caps,
 *              default per-connection quota (ServerConfig::fromParams)
 *   [net.priority.N]  quota override for priority class N
 *   [service]  reservoir/quantum/adaptive-chunking knobs, plus the
 *              quarantine->probation->reinstate lifecycle
 *              (ServiceConfig::fromParams)
 *   [pool.X]   one pool member: source = <registry name> + its Params
 *   [pool.X.faults.E]  scripted fault E injected into member X
 *              (sim::FaultPlan; temperature ramps, bias, stalls, ...)
 *   [session]  conditioning profile applied to every client session
 *
 * --check-config validates all of the above (fault plans and
 * conditioning pipeline included) and exits without serving.
 *
 * SIGINT/SIGTERM (or --accept-limit N, for scripted smoke tests) shut
 * the daemon down cleanly and print the final service and network
 * statistics, including quarantined pool members.
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>

#include <sys/resource.h>

#include "net/listener.hh"
#include "net/server.hh"
#include "sim/fault.hh"
#include "trng/conditioning.hh"
#include "trng/registry.hh"
#include "trng/service.hh"
#include "trng_proto.hh"

using namespace drange;

namespace {

net::Server *g_server = nullptr;

void
onSignal(int)
{
    if (g_server)
        g_server->stop(); // Atomic flag + eventfd write: signal-safe.
}

struct DaemonOptions
{
    std::string config_path;
    std::string socket_path = "/tmp/trngd.sock";
    std::string tcp_listen; //!< host:port; empty = TCP disabled.
    std::size_t max_request_bytes = 1u << 20;
    long accept_limit = 0; //!< 0 = serve until a signal arrives.
    bool verbose = false;
    bool check_config = false; //!< Validate + print config, no serve.

    // Command-line flags win over the [trngd] config section; these
    // record which flags were actually given.
    bool socket_set = false;
    bool tcp_set = false;
    bool max_request_bytes_set = false;
    bool accept_limit_set = false;
};

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s <config-file> [--socket PATH] [--tcp HOST:PORT]\n"
        "          [--accept-limit N] [--max-request-bytes N] "
        "[--verbose]\n"
        "          [--check-config]\n"
        "Serve framed entropy requests from a trng::Service pool over "
        "a Unix-domain socket\nand/or TCP, multiplexed on one epoll "
        "event loop.\n"
        "--check-config: parse and validate the config (pool members,\n"
        "fault plans, net and session sections included), print the\n"
        "resolved settings, and exit 0 without serving; exit 1 on any\n"
        "config error.\n",
        argv0);
}

bool
parseArgs(int argc, char **argv, DaemonOptions &opts)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (arg == "--socket") {
            const char *v = value();
            if (!v)
                return false;
            opts.socket_path = v;
            opts.socket_set = true;
        } else if (arg == "--tcp") {
            const char *v = value();
            if (!v)
                return false;
            opts.tcp_listen = v;
            opts.tcp_set = true;
        } else if (arg == "--accept-limit") {
            const char *v = value();
            if (!v)
                return false;
            opts.accept_limit = std::atol(v);
            opts.accept_limit_set = true;
        } else if (arg == "--max-request-bytes") {
            const char *v = value();
            if (!v)
                return false;
            opts.max_request_bytes =
                static_cast<std::size_t>(std::atoll(v));
            opts.max_request_bytes_set = true;
        } else if (arg == "--verbose") {
            opts.verbose = true;
        } else if (arg == "--check-config") {
            opts.check_config = true;
        } else if (arg == "--help" || arg == "-h") {
            return false;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "trngd: unknown flag %s\n",
                         arg.c_str());
            return false;
        } else if (opts.config_path.empty()) {
            opts.config_path = arg;
        } else {
            return false;
        }
    }
    return !opts.config_path.empty();
}

void
printStats(const trng::ServiceStats &stats)
{
    std::printf("trngd: served %llu bits (%llu harvested, reservoir "
                "high watermark %llu/%llu)\n",
                static_cast<unsigned long long>(stats.delivered_bits),
                static_cast<unsigned long long>(stats.harvested_bits),
                static_cast<unsigned long long>(
                    stats.reservoir_high_watermark),
                static_cast<unsigned long long>(
                    stats.reservoir_capacity));
    std::printf("trngd: adaptive chunking: %llu grows, %llu shrinks\n",
                static_cast<unsigned long long>(stats.chunk_grows),
                static_cast<unsigned long long>(stats.chunk_shrinks));
    for (const auto &member : stats.members) {
        std::printf("trngd:   pool member %-12s (%s): %llu bits, "
                    "chunk %zu%s%s",
                    member.label.c_str(), member.source.c_str(),
                    static_cast<unsigned long long>(member.bits),
                    member.chunk_bits,
                    member.quarantined ? ", QUARANTINED" : "",
                    member.probation ? " (probation)" : "");
        if (member.quarantines > 0)
            std::printf(", %llu quarantines, %llu reinstatements "
                        "(%llu probation bits discarded)",
                        static_cast<unsigned long long>(
                            member.quarantines),
                        static_cast<unsigned long long>(
                            member.reinstatements),
                        static_cast<unsigned long long>(
                            member.probation_bits));
        std::printf("\n");
    }
}

void
printNetStats(const net::ServerStats &stats)
{
    std::printf(
        "trngd: %llu connections (%llu rejected), %llu requests, "
        "%llu responses, %llu entropy bytes\n",
        static_cast<unsigned long long>(stats.accepted),
        static_cast<unsigned long long>(stats.rejected_accepts),
        static_cast<unsigned long long>(stats.requests),
        static_cast<unsigned long long>(stats.responses),
        static_cast<unsigned long long>(stats.response_bytes));
    std::printf(
        "trngd: %llu protocol errors, %llu service errors, "
        "%llu quota throttles, %llu backpressure stalls, "
        "%llu read pauses, %llu busy sheds\n",
        static_cast<unsigned long long>(stats.protocol_errors),
        static_cast<unsigned long long>(stats.service_errors),
        static_cast<unsigned long long>(stats.quota_throttles),
        static_cast<unsigned long long>(stats.backpressure_stalls),
        static_cast<unsigned long long>(stats.read_pauses),
        static_cast<unsigned long long>(stats.busy_sheds));
}

/**
 * --check-config: build every pool member (running the full factory
 * validation chain, fault plans included) and the session pipeline
 * without starting anything, then print the resolved settings.
 * @return the process exit code (0 valid, 1 not).
 */
int
checkConfig(const trng::ServiceConfig &service_config,
            const net::ServerConfig &server_config,
            const trng::SessionConfig &session_template,
            const DaemonOptions &opts)
{
    std::printf("trngd: config %s parses\n", opts.config_path.c_str());
    std::printf("trngd: [trngd] socket=%s tcp=%s "
                "max_request_bytes=%zu accept_limit=%ld\n",
                opts.socket_path.c_str(),
                opts.tcp_listen.empty() ? "(disabled)"
                                        : opts.tcp_listen.c_str(),
                opts.max_request_bytes, opts.accept_limit);
    std::printf(
        "trngd: [net] max_connections=%zu max_pending_requests=%zu "
        "quota=%.0f bits/s (burst %.0f)\n",
        server_config.max_connections,
        server_config.max_pending_requests,
        server_config.quota.rate_bits_per_s,
        server_config.quota.burst_bits);
    for (const auto &[priority, quota] : server_config.priority_quota)
        std::printf("trngd: [net.priority.%d] quota=%.0f bits/s "
                    "(burst %.0f, outstanding %zu)\n",
                    priority, quota.rate_bits_per_s, quota.burst_bits,
                    quota.max_outstanding_bytes);
    if (server_config.degraded_low_watermark > 0 ||
        server_config.degraded_quarantine_fraction > 0)
        std::printf(
            "trngd: [net] degraded mode: low_watermark=%.2f "
            "quarantine_fraction=%.2f retry=%d ms escalation=%d ms\n",
            server_config.degraded_low_watermark,
            server_config.degraded_quarantine_fraction,
            server_config.degraded_retry_ms,
            server_config.degraded_escalation_ms);
    else
        std::printf("trngd: [net] degraded mode: disabled\n");
    std::printf(
        "trngd: [service] reservoir=%zu bits, reinstate=%s "
        "(probation: delay=%d ms windows=%d max_attempts=%d)\n",
        service_config.reservoir_bits,
        service_config.reinstate ? "on" : "off",
        service_config.probation_delay_ms,
        service_config.probation_windows,
        service_config.max_probation_attempts);

    bool valid = true;
    for (std::size_t i = 0; i < service_config.pool.size(); ++i) {
        const trng::PoolMemberConfig &member = service_config.pool[i];
        const std::string label = member.label.empty()
                                      ? member.source +
                                            std::to_string(i)
                                      : member.label;
        try {
            const std::unique_ptr<trng::EntropySource> source =
                trng::Registry::make(member.source, member.params);
            const auto *faulted =
                dynamic_cast<const sim::FaultInjector *>(source.get());
            std::printf("trngd: [pool.%s] source=%s ok\n",
                        label.c_str(), member.source.c_str());
            if (faulted)
                for (const sim::FaultEvent &event :
                     faulted->plan().events)
                    std::printf(
                        "trngd: [pool.%s]   fault %s (%s) at %.0f ms "
                        "for %.0f ms\n",
                        label.c_str(), event.label.c_str(),
                        sim::FaultPlan::kindName(event.kind).c_str(),
                        event.at_ms, event.duration_ms);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "trngd: [pool.%s]: %s\n",
                         label.c_str(), e.what());
            valid = false;
        }
    }

    try {
        trng::makePipeline(session_template.conditioning,
                           session_template.stage_params);
        std::string profile;
        for (const std::string &name : session_template.conditioning)
            profile += (profile.empty() ? "" : " -> ") + name;
        std::printf("trngd: [session] conditioning=%s ok\n",
                    profile.empty() ? "(raw)" : profile.c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "trngd: [session]: %s\n", e.what());
        valid = false;
    }

    std::printf("trngd: config %s\n", valid ? "OK" : "INVALID");
    return valid ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    DaemonOptions opts;
    if (!parseArgs(argc, argv, opts)) {
        usage(argv[0]);
        return 2;
    }

    // Hundreds of client connections need more than the distro-default
    // 1024-fd soft limit. Best effort.
    rlimit rl{};
    if (::getrlimit(RLIMIT_NOFILE, &rl) == 0 &&
        rl.rlim_cur < rl.rlim_max) {
        rl.rlim_cur = rl.rlim_max > 65536 ? 65536 : rl.rlim_max;
        ::setrlimit(RLIMIT_NOFILE, &rl);
    }

    trng::SessionConfig session_template;
    net::ServerConfig server_config;
    std::unique_ptr<trng::Service> service;
    try {
        const trng::Params config =
            trng::Params::fromFile(opts.config_path);
        const trng::Params daemon = config.section("trngd");
        // Always read every [trngd] key (so rejectUnknown below stays
        // accurate), but command-line flags win over the config file.
        const std::string config_socket = daemon.getString("socket");
        const std::string config_tcp = daemon.getString("tcp");
        const auto config_max_bytes = static_cast<std::size_t>(
            daemon.getInt("max_request_bytes",
                          static_cast<std::int64_t>(
                              opts.max_request_bytes)));
        const long config_accept_limit =
            daemon.getInt("accept_limit", 0);
        if (!opts.socket_set && !config_socket.empty())
            opts.socket_path = config_socket;
        if (!opts.tcp_set && !config_tcp.empty())
            opts.tcp_listen = config_tcp;
        if (!opts.max_request_bytes_set)
            opts.max_request_bytes = config_max_bytes;
        if (!opts.accept_limit_set)
            opts.accept_limit = config_accept_limit;
        daemon.rejectUnknown("trngd config [trngd]");

        server_config =
            net::ServerConfig::fromParams(config.section("net"));
        server_config.unix_path = opts.socket_path;
        server_config.max_request_bytes = opts.max_request_bytes;
        server_config.accept_limit = opts.accept_limit;
        server_config.verbose = opts.verbose;
        if (!opts.tcp_listen.empty()) {
            // --tcp / [trngd] tcp wins over [net] tcp_listen.
            std::uint16_t port = 0;
            net::parseHostPort(opts.tcp_listen,
                               server_config.tcp_host, port);
            server_config.tcp_port = port;
        }

        session_template.conditioning =
            config.section("session").getList("conditioning");
        session_template.stage_params = config.section("session");

        trng::ServiceConfig service_config =
            trng::ServiceConfig::fromParams(config);
        config.rejectUnknown("trngd config");
        if (opts.check_config)
            return checkConfig(service_config, server_config,
                               session_template, opts);
        std::printf("trngd: building %zu-member pool...\n",
                    service_config.pool.size());
        service =
            std::make_unique<trng::Service>(std::move(service_config));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "trngd: %s\n", e.what());
        return 1;
    }

    int exit_code = 0;
    {
        net::Server server(*service, server_config, session_template);
        try {
            server.start();
        } catch (const std::exception &e) {
            std::fprintf(stderr, "trngd: %s\n", e.what());
            return 1;
        }

        g_server = &server;
        std::signal(SIGINT, onSignal);
        std::signal(SIGTERM, onSignal);
        std::signal(SIGPIPE, SIG_IGN);

        std::printf("trngd: serving on %s", opts.socket_path.c_str());
        if (server_config.tcp_port >= 0)
            std::printf(" and tcp %s:%u",
                        server_config.tcp_host.empty()
                            ? "*"
                            : server_config.tcp_host.c_str(),
                        static_cast<unsigned>(server.tcpPort()));
        std::printf("%s\n", opts.accept_limit > 0
                                ? " (bounded accept)"
                                : "");
        std::fflush(stdout);

        server.run();
        std::printf("trngd: shutting down\n");
        g_server = nullptr;
        std::signal(SIGINT, SIG_DFL);
        std::signal(SIGTERM, SIG_DFL);

        printNetStats(server.stats());
    }
    printStats(service->stats());
    service->close();
    return exit_code;
}
