/**
 * @file
 * Entropy-service network front-end: one epoll event loop multiplexing
 * any number of framed-protocol client connections (TCP and/or
 * Unix-domain -- both transports share this single code path) onto a
 * trng::Service.
 *
 * Per connection, the server keeps the protocol state machine:
 *
 *  - The first request frame's priority opens the connection's
 *    trng::Session (so DRR fairness applies per client connection,
 *    exactly like the original thread-per-connection daemon).
 *  - Entropy reads go through Session::readAsync; the loop polls the
 *    oldest in-flight future per connection between epoll waits, so a
 *    slow or dry reservoir never blocks the accept path or the other
 *    connections. Responses complete strictly in request order.
 *  - Requests larger than max_request_bytes (or otherwise malformed
 *    but still well-framed) are answered with a kStatusProtocolError
 *    frame and the connection stays open; only an unframeable byte
 *    stream (garbage magic) forces an error frame followed by close.
 *
 * Quotas and backpressure, per connection:
 *
 *  - Token bucket (QuotaConfig::rate_bits_per_s / burst_bits):
 *    requests are admitted to the Service only when the bucket covers
 *    their bits; otherwise they wait in the connection's pending queue
 *    (throttled, not errored). Priority classes may override the
 *    default quota ([net.priority.N] config sections), so e.g.
 *    priority-2 clients can be a metered tier while priority-1 runs
 *    uncapped.
 *  - max_outstanding_bytes bounds the bytes a connection may have
 *    in flight inside the Service.
 *  - Admission also stops while the connection's output queue sits
 *    above max_output_queue_bytes (a slow reader buys backpressure,
 *    not unbounded buffering), and reading pauses (EPOLLIN dropped)
 *    once a connection queues max_pending_requests unadmitted
 *    requests, pushing the flood back into the peer's TCP window.
 *
 * Degraded mode (opt-in, see ServerConfig): when the Service reports
 * a starving reservoir or a mostly-quarantined pool, low-priority
 * requests are answered with kStatusBusy (retry-after hint) at
 * admission time instead of queueing unboundedly. Shed responses flow
 * through the same in-flight queue as real reads, so the strict
 * request-order response guarantee is preserved.
 *
 * The loop thread owns all state; stop() (async-signal-safe wakeup)
 * and stats() are the only cross-thread entry points.
 */

#ifndef DRANGE_NET_SERVER_HH
#define DRANGE_NET_SERVER_HH

#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "net/connection.hh"
#include "net/event_loop.hh"
#include "net/listener.hh"
#include "net/token_bucket.hh"
#include "trng/params.hh"
#include "trng/service.hh"
#include "trng/session.hh"

namespace drange::net {

/** Per-connection rate limit and outstanding-bytes bound. */
struct QuotaConfig
{
    double rate_bits_per_s = 0; //!< Delivered bits/s; 0 = unlimited.
    double burst_bits = 0;      //!< Bucket depth; 0 = one second of
                                //!< rate.
    std::size_t max_outstanding_bytes = 1u << 20; //!< In the Service.
};

struct ServerConfig
{
    std::string tcp_host;   //!< Empty = all interfaces.
    int tcp_port = -1;      //!< -1 = TCP disabled; 0 = ephemeral.
    std::string unix_path;  //!< Empty = Unix transport disabled.

    std::size_t max_request_bytes = 1u << 20;
    std::size_t max_connections = 4096;
    /** Admission stops while a connection's output queue exceeds
     * this; the hard close bound is this plus one max response. */
    std::size_t max_output_queue_bytes = 8u << 20;
    /** Reading pauses once this many requests wait unadmitted. */
    std::size_t max_pending_requests = 1024;
    /** SO_SNDBUF for accepted sockets; 0 keeps the kernel default
     * (which autotunes into megabytes on loopback). Capping it bounds
     * per-connection kernel memory and makes the output-queue
     * backpressure gate engage at a predictable depth. */
    int sndbuf_bytes = 0;

    long accept_limit = 0; //!< > 0: stop accepting after N, return
                           //!< from run() once they disconnect.
    bool verbose = false;

    QuotaConfig quota;                      //!< Default for any class.
    std::map<int, QuotaConfig> priority_quota; //!< Per-priority tiers.

    /**
     * Degraded mode (both triggers default off). When the entropy
     * pool is unhealthy the server sheds low-priority requests with a
     * kStatusBusy frame (retry-after hint attached) instead of
     * queueing them unboundedly; shedding starts at priority 1 and
     * widens one priority class per degraded_escalation_ms while the
     * condition persists, sparing the highest priority seen unless
     * the pool has collapsed entirely (no healthy members left).
     */
    /** Shed when the reservoir fill fraction drops below this while
     * requests are waiting. 0 disables the starvation trigger. */
    double degraded_low_watermark = 0.0;
    /** Shed when at least this fraction of pool members is
     * quarantined. 0 disables the quarantine trigger. */
    double degraded_quarantine_fraction = 0.0;
    int degraded_retry_ms = 100;      //!< Retry-after hint in frames.
    int degraded_escalation_ms = 250; //!< Shed-band widening period.

    /**
     * Parse a `[net]` config section (hand in
     * params.section("net")): tcp_listen = host:port,
     * max_connections, max_output_queue_bytes, max_pending_requests,
     * the default quota keys (rate_bits_per_s, burst_bits,
     * max_outstanding_bytes), and [net.priority.N] quota overrides.
     * Transport paths, max_request_bytes, and accept_limit stay with
     * the caller ([trngd] section / command line).
     * @throws std::invalid_argument on unknown keys or bad values.
     */
    static ServerConfig fromParams(const trng::Params &net);
};

struct ServerStats
{
    std::uint64_t accepted = 0;
    std::uint64_t rejected_accepts = 0; //!< Over max_connections/limit.
    std::size_t active = 0;
    std::uint64_t closed = 0;

    std::uint64_t requests = 0;
    std::uint64_t responses = 0;
    std::uint64_t response_bytes = 0; //!< Entropy payload bytes sent.
    std::uint64_t protocol_errors = 0;
    std::uint64_t service_errors = 0;

    std::uint64_t quota_throttles = 0; //!< Admissions delayed by a
                                       //!< token bucket.
    std::uint64_t outstanding_stalls = 0; //!< ... by the in-flight
                                          //!< byte bound.
    std::uint64_t backpressure_stalls = 0; //!< ... by a full output
                                           //!< queue (slow reader).
    std::uint64_t read_pauses = 0; //!< EPOLLIN dropped on a flooding
                                   //!< connection.

    bool degraded = false;        //!< Currently shedding low-priority
                                  //!< load (see ServerConfig).
    std::uint64_t busy_sheds = 0; //!< Requests answered kStatusBusy.
};

class Server
{
  public:
    /** @p session_template seeds every connection's SessionConfig
     * (conditioning profile etc.); the priority comes per connection
     * from its first request frame. */
    Server(trng::Service &service, ServerConfig config,
           trng::SessionConfig session_template);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind the configured listeners.
     * @throws std::runtime_error when none can be bound. */
    void start();

    /** Serve until stop(), or until an accept_limit is reached and
     * the remaining connections drain. Call start() first. */
    void run();

    /** Make run() return. Thread- and signal-safe. */
    void stop();

    /** Actual TCP port after start() (0 when TCP is disabled). */
    std::uint16_t tcpPort() const;

    ServerStats stats() const;

  private:
    struct InFlight
    {
        std::future<util::BitStream> future;
        std::uint32_t bytes = 0;
        /** Shed marker: no Service read was submitted; drainReady
         * emits a kStatusBusy frame in FIFO position instead. */
        bool busy = false;
    };

    struct Client
    {
        std::uint64_t id = 0;
        std::unique_ptr<Connection> conn;
        trng::Session session;
        bool session_open = false;
        int priority = 0;
        QuotaConfig quota;
        TokenBucket bucket;

        std::deque<std::uint32_t> pending; //!< Unadmitted requests.
        std::deque<InFlight> in_flight;    //!< Admitted, awaiting bits.
        std::size_t outstanding_bytes = 0;
        bool throttled = false; //!< Head request waiting on tokens.
        bool stalled = false;   //!< Admission gated on output queue.
        bool dead = false;      //!< Closed; reaped by the sweep.
        std::uint64_t linger_deadline_ns = 0; //!< closeSoon bound.
    };

    void onAccept(int fd, bool tcp);
    void onFrame(Client &client, Frame &frame);
    void onDecodeError(Client &client, FrameDecoder::Error error);
    void onClosed(Client &client, const std::string &reason);

    void openSession(Client &client, int priority);
    /** Move pending requests into the Service while quota, the
     * outstanding bound, and the output queue allow. */
    void admitPending(Client &client, std::uint64_t now_ns);
    /** Complete ready head futures into response frames. */
    void drainReady(Client &client);
    void managePause(Client &client);
    void respondError(Client &client, std::uint16_t status,
                      const std::string &message);
    /** Graceful drop: flush, half-close, linger-bounded. */
    void closeSoon(Client &client, const std::string &reason);

    /** Re-evaluate degraded mode from Service health (rate-limited
     * stats poll) and escalate the shed band while it persists. */
    void updateDegraded(std::uint64_t now_ns);

    /** Per-iteration bookkeeping run between epoll waits. */
    void sweep();
    /** Poll timeout for the next runOnce, from pending work. */
    int sweepTimeoutMs() const;
    void closeListeners();

    trng::Service &service_;
    ServerConfig config_;
    trng::SessionConfig session_template_;

    EventLoop loop_;
    std::unique_ptr<Listener> tcp_listener_;
    std::unique_ptr<Listener> unix_listener_;

    std::uint64_t next_client_id_ = 1;
    std::map<std::uint64_t, std::unique_ptr<Client>> clients_;
    std::size_t total_in_flight_ = 0;
    std::size_t total_pending_ = 0;
    long accepted_ = 0;
    bool started_ = false;

    // Degraded-mode state (loop thread only).
    bool degraded_ = false;
    bool pool_collapsed_ = false; //!< No healthy member left at all.
    int shed_threshold_ = 0;      //!< Shed priorities <= this.
    int max_priority_seen_ = 1;
    std::uint64_t next_health_poll_ns_ = 0;
    std::uint64_t next_escalation_ns_ = 0;

    mutable std::mutex stats_mu_;
    ServerStats stats_;
};

} // namespace drange::net

#endif // DRANGE_NET_SERVER_HH
