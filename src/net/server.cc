#include "net/server.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <utility>
#include <vector>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "util/bitstream.hh"

namespace drange::net {

namespace {

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Read one quota block from @p params, defaulting to @p defaults. */
QuotaConfig
quotaFrom(const trng::Params &params, const QuotaConfig &defaults,
          const std::string &context)
{
    QuotaConfig quota;
    quota.rate_bits_per_s = params.getDouble(
        "rate_bits_per_s", defaults.rate_bits_per_s);
    quota.burst_bits =
        params.getDouble("burst_bits", defaults.burst_bits);
    const std::int64_t outstanding = params.getInt(
        "max_outstanding_bytes",
        static_cast<std::int64_t>(defaults.max_outstanding_bytes));
    if (quota.rate_bits_per_s < 0 || quota.burst_bits < 0 ||
        outstanding <= 0)
        throw std::invalid_argument(
            context + ": quota values must be positive");
    quota.max_outstanding_bytes =
        static_cast<std::size_t>(outstanding);
    return quota;
}

TokenBucket
makeBucket(const QuotaConfig &quota, std::uint64_t now_ns)
{
    if (quota.rate_bits_per_s <= 0)
        return TokenBucket(); // Unlimited.
    const double burst = quota.burst_bits > 0
                             ? quota.burst_bits
                             : quota.rate_bits_per_s;
    return TokenBucket(quota.rate_bits_per_s, burst, now_ns);
}

} // namespace

ServerConfig
ServerConfig::fromParams(const trng::Params &net)
{
    ServerConfig config;

    const std::string tcp = net.getString("tcp_listen");
    if (!tcp.empty()) {
        std::uint16_t port = 0;
        parseHostPort(tcp, config.tcp_host, port);
        config.tcp_port = port;
    }

    const auto positive = [&net](const char *key,
                                 std::int64_t fallback) {
        const std::int64_t value = net.getInt(key, fallback);
        if (value <= 0)
            throw std::invalid_argument(
                std::string("[net] ") + key + " must be positive");
        return static_cast<std::size_t>(value);
    };
    config.max_connections = positive(
        "max_connections",
        static_cast<std::int64_t>(config.max_connections));
    config.max_output_queue_bytes = positive(
        "max_output_queue_bytes",
        static_cast<std::int64_t>(config.max_output_queue_bytes));
    config.max_pending_requests = positive(
        "max_pending_requests",
        static_cast<std::int64_t>(config.max_pending_requests));
    const std::int64_t sndbuf = net.getInt("sndbuf_bytes", 0);
    if (sndbuf < 0)
        throw std::invalid_argument(
            "[net] sndbuf_bytes must not be negative");
    config.sndbuf_bytes = static_cast<int>(sndbuf);

    config.quota = quotaFrom(net, config.quota, "[net]");

    const auto fraction = [&net](const char *key, double fallback) {
        const double value = net.getDouble(key, fallback);
        if (value < 0 || value > 1)
            throw std::invalid_argument(std::string("[net] ") + key +
                                        " must be in [0, 1]");
        return value;
    };
    config.degraded_low_watermark = fraction(
        "degraded_low_watermark", config.degraded_low_watermark);
    config.degraded_quarantine_fraction =
        fraction("degraded_quarantine_fraction",
                 config.degraded_quarantine_fraction);
    const auto positiveMs = [&net](const char *key, int fallback) {
        const std::int64_t value = net.getInt(key, fallback);
        if (value <= 0)
            throw std::invalid_argument(
                std::string("[net] ") + key + " must be positive");
        return static_cast<int>(value);
    };
    config.degraded_retry_ms =
        positiveMs("degraded_retry_ms", config.degraded_retry_ms);
    config.degraded_escalation_ms = positiveMs(
        "degraded_escalation_ms", config.degraded_escalation_ms);

    for (const std::string &name : net.sections("priority")) {
        const std::string id = name.substr(std::strlen("priority."));
        char *end = nullptr;
        const long priority = std::strtol(id.c_str(), &end, 10);
        if (id.empty() || (end && *end != '\0') || priority < 1)
            throw std::invalid_argument(
                "[net." + name + "]: priority must be an integer >= 1");
        const trng::Params sub = net.section(name);
        config.priority_quota[static_cast<int>(priority)] =
            quotaFrom(sub, config.quota, "[net." + name + "]");
        sub.rejectUnknown("[net." + name + "]");
    }

    net.rejectUnknown("[net]");
    return config;
}

Server::Server(trng::Service &service, ServerConfig config,
               trng::SessionConfig session_template)
    : service_(service), config_(std::move(config)),
      session_template_(std::move(session_template))
{
}

Server::~Server()
{
    // Destroy connections before the loop: Connection unregisters
    // from loop_ in its destructor.
    clients_.clear();
    tcp_listener_.reset();
    unix_listener_.reset();
}

void
Server::start()
{
    if (started_)
        return;
    if (config_.tcp_port < 0 && config_.unix_path.empty())
        throw std::runtime_error(
            "net::Server: no transport configured (need a TCP port "
            "and/or a Unix socket path)");
    if (config_.tcp_port >= 0)
        tcp_listener_ = Listener::tcp(
            loop_, config_.tcp_host,
            static_cast<std::uint16_t>(config_.tcp_port),
            [this](int fd) { onAccept(fd, true); });
    if (!config_.unix_path.empty())
        unix_listener_ = Listener::unixSocket(
            loop_, config_.unix_path,
            [this](int fd) { onAccept(fd, false); });
    started_ = true;
}

std::uint16_t
Server::tcpPort() const
{
    return tcp_listener_ ? tcp_listener_->port() : 0;
}

void
Server::run()
{
    if (!started_)
        throw std::logic_error("net::Server::run before start");
    for (;;) {
        if (loop_.stopRequested())
            break;
        loop_.runOnce(sweepTimeoutMs());
        sweep();
        if (config_.accept_limit > 0 &&
            accepted_ >= config_.accept_limit && clients_.empty())
            break; // Bounded accept run completed and drained.
    }
    closeListeners();
    // Close every connection (fails their outstanding requests) and
    // reap outside the callback stack.
    for (auto &entry : clients_)
        if (!entry.second->dead)
            entry.second->conn->close("server shutdown");
    clients_.clear();
}

void
Server::stop()
{
    loop_.stop();
}

ServerStats
Server::stats() const
{
    std::lock_guard<std::mutex> lock(stats_mu_);
    return stats_;
}

int
Server::sweepTimeoutMs() const
{
    if (total_in_flight_ > 0)
        return 1; // Poll the service futures promptly.
    if (total_pending_ > 0)
        return 5; // Waiting on tokens / output drain.
    return 100;
}

void
Server::updateDegraded(std::uint64_t now_ns)
{
    const bool fill_gate = config_.degraded_low_watermark > 0;
    const bool pool_gate = config_.degraded_quarantine_fraction > 0;
    if (!fill_gate && !pool_gate)
        return;

    if (now_ns >= next_health_poll_ns_) {
        // Rate-limit the Service stats snapshot: it takes the service
        // lock, so polling it each epoll iteration would contend with
        // the producers for no fresher an answer.
        next_health_poll_ns_ = now_ns + 20'000'000ULL;
        const trng::ServiceStats health = service_.stats();
        pool_collapsed_ = health.healthy_members == 0;

        bool degraded = false;
        if (pool_gate && !health.members.empty()) {
            const double quarantined =
                static_cast<double>(health.quarantined_members) /
                static_cast<double>(health.members.size());
            degraded |= quarantined >=
                        config_.degraded_quarantine_fraction;
        }
        if (fill_gate && health.reservoir_capacity > 0 &&
            total_pending_ + total_in_flight_ > 0) {
            // Starvation means "demand waits on an empty pool", not
            // merely "the pool is low": an idle server with a drained
            // reservoir is not degraded.
            const double fill =
                static_cast<double>(health.reservoir_bits) /
                static_cast<double>(health.reservoir_capacity);
            degraded |= fill < config_.degraded_low_watermark;
        }

        if (degraded && !degraded_) {
            shed_threshold_ = 1; // Lowest class first.
            next_escalation_ns_ =
                now_ns + static_cast<std::uint64_t>(
                             config_.degraded_escalation_ms) *
                             1'000'000ULL;
        } else if (!degraded) {
            shed_threshold_ = 0;
        }
        if (degraded != degraded_) {
            degraded_ = degraded;
            std::lock_guard<std::mutex> lock(stats_mu_);
            stats_.degraded = degraded_;
        }
    }

    if (degraded_ && now_ns >= next_escalation_ns_) {
        next_escalation_ns_ =
            now_ns + static_cast<std::uint64_t>(
                         config_.degraded_escalation_ms) *
                         1'000'000ULL;
        // The highest class seen keeps being served unless the pool
        // has collapsed outright -- then nothing can be served and
        // every class gets the retry hint.
        const int cap = pool_collapsed_
                            ? max_priority_seen_
                            : std::max(1, max_priority_seen_ - 1);
        if (shed_threshold_ < cap)
            ++shed_threshold_;
    }
}

void
Server::sweep()
{
    const std::uint64_t now = nowNs();
    updateDegraded(now);
    for (auto &entry : clients_) {
        Client &client = *entry.second;
        if (client.dead)
            continue;
        if (client.linger_deadline_ns != 0 &&
            now >= client.linger_deadline_ns) {
            client.conn->close("linger timeout");
            continue;
        }
        if (client.conn->closing())
            continue; // Graceful drop in progress: the pending and
                      // in-flight work dies with the connection.
        drainReady(client);
        if (!client.dead) {
            admitPending(client, now);
            drainReady(client);
        }
        if (!client.dead)
            managePause(client);
    }
    // Reap closed connections outside any Connection callback.
    for (auto it = clients_.begin(); it != clients_.end();) {
        if (it->second->dead)
            it = clients_.erase(it);
        else
            ++it;
    }
}

void
Server::closeListeners()
{
    if (tcp_listener_)
        tcp_listener_->close();
    if (unix_listener_)
        unix_listener_->close();
}

void
Server::onAccept(int fd, bool tcp)
{
    if ((config_.accept_limit > 0 &&
         accepted_ >= config_.accept_limit) ||
        clients_.size() >= config_.max_connections) {
        ::close(fd);
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.rejected_accepts;
        return;
    }
    if (tcp) {
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
    if (config_.sndbuf_bytes > 0)
        ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF,
                     &config_.sndbuf_bytes,
                     sizeof(config_.sndbuf_bytes));

    ++accepted_;
    auto client = std::make_unique<Client>();
    Client *raw = client.get();
    client->id = next_client_id_++;
    // Hard output bound: the admission watermark plus one full
    // response; crossing it means the owner-side gate was defeated.
    client->conn = std::make_unique<Connection>(
        loop_, fd, /*max_payload_bytes=*/4096,
        config_.max_output_queue_bytes + config_.max_request_bytes +
            kHeaderBytes);

    Connection::Callbacks callbacks;
    callbacks.on_frame = [this, raw](Connection &, Frame &frame) {
        onFrame(*raw, frame);
    };
    callbacks.on_decode_error = [this, raw](Connection &,
                                            FrameDecoder::Error error) {
        onDecodeError(*raw, error);
    };
    callbacks.on_closed = [this, raw](Connection &,
                                      const std::string &reason) {
        onClosed(*raw, reason);
    };

    const std::uint64_t id = client->id;
    clients_[id] = std::move(client);
    clients_[id]->conn->start(std::move(callbacks));

    {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.accepted;
        stats_.active = clients_.size();
    }
    if (config_.verbose)
        std::printf("trngd: connection %llu accepted (%s)\n",
                    static_cast<unsigned long long>(id),
                    tcp ? "tcp" : "unix");
    if (config_.accept_limit > 0 && accepted_ >= config_.accept_limit)
        closeListeners();
}

void
Server::onFrame(Client &client, Frame &frame)
{
    {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.requests;
    }

    if (frame.kind != Frame::Kind::Request) {
        // Well-framed but nonsensical: a client must not send
        // response frames. Answer, then drop the connection.
        {
            std::lock_guard<std::mutex> lock(stats_mu_);
            ++stats_.protocol_errors;
        }
        respondError(client, kStatusProtocolError,
                     "unexpected response frame from client");
        closeSoon(client, "client sent response frame");
        return;
    }

    if (frame.request_bytes > config_.max_request_bytes) {
        // Graceful rejection: error frame, connection stays open.
        {
            std::lock_guard<std::mutex> lock(stats_mu_);
            ++stats_.protocol_errors;
        }
        respondError(client, kStatusProtocolError,
                     "request of " +
                         std::to_string(frame.request_bytes) +
                         " bytes exceeds max_request_bytes = " +
                         std::to_string(config_.max_request_bytes));
        return;
    }

    if (!client.session_open) {
        const int priority =
            frame.code > 0 ? static_cast<int>(frame.code) : 1;
        try {
            openSession(client, priority);
        } catch (const std::exception &e) {
            std::lock_guard<std::mutex> lock(stats_mu_);
            ++stats_.service_errors;
            respondError(client, kStatusError, e.what());
            closeSoon(client, "session open failed");
            return;
        }
    }

    client.pending.push_back(frame.request_bytes);
    ++total_pending_;
    admitPending(client, nowNs());
    // admitPending may have started a graceful close (failed session):
    // the error frame already answers everything this connection will
    // ever get, so no more output may be queued behind the half-close.
    if (!client.dead && !client.conn->closing())
        drainReady(client); // Often ready immediately (warm reservoir).
    if (!client.dead && !client.conn->closing())
        managePause(client);
}

void
Server::openSession(Client &client, int priority)
{
    trng::SessionConfig config = session_template_;
    config.priority = priority;
    client.session = service_.open(config);
    client.session_open = true;
    client.priority = priority;
    max_priority_seen_ = std::max(max_priority_seen_, priority);
    const auto it = config_.priority_quota.find(priority);
    client.quota = it != config_.priority_quota.end() ? it->second
                                                      : config_.quota;
    client.bucket = makeBucket(client.quota, nowNs());
}

void
Server::admitPending(Client &client, std::uint64_t now_ns)
{
    while (!client.pending.empty() && !client.dead &&
           !client.conn->closing()) {
        const std::uint32_t bytes = client.pending.front();

        if (client.conn->outputQueuedBytes() >=
            config_.max_output_queue_bytes) {
            if (!client.stalled) {
                client.stalled = true;
                std::lock_guard<std::mutex> lock(stats_mu_);
                ++stats_.backpressure_stalls;
            }
            return; // Slow reader; re-admit once the queue drains.
        }
        client.stalled = false;

        if (degraded_ && client.priority <= shed_threshold_) {
            // Degraded mode: answer with a retry hint *now* instead
            // of queueing against a pool that cannot serve. The shed
            // marker takes the request's FIFO slot in in_flight so
            // responses still complete strictly in request order; no
            // quota tokens are consumed by a shed request.
            client.pending.pop_front();
            --total_pending_;
            InFlight shed;
            shed.busy = true;
            client.in_flight.push_back(std::move(shed));
            ++total_in_flight_;
            {
                std::lock_guard<std::mutex> lock(stats_mu_);
                ++stats_.busy_sheds;
            }
            continue;
        }

        if (client.outstanding_bytes > 0 &&
            client.outstanding_bytes + bytes >
                client.quota.max_outstanding_bytes) {
            std::lock_guard<std::mutex> lock(stats_mu_);
            ++stats_.outstanding_stalls;
            return; // Wait for in-flight reads to complete.
        }

        if (!client.bucket.tryConsume(
                static_cast<double>(bytes) * 8.0, now_ns)) {
            if (!client.throttled) {
                client.throttled = true;
                std::lock_guard<std::mutex> lock(stats_mu_);
                ++stats_.quota_throttles;
            }
            return; // Tokens accrue; the sweep retries.
        }
        client.throttled = false;

        InFlight in_flight;
        in_flight.bytes = bytes;
        try {
            in_flight.future = client.session.readAsync(
                static_cast<std::size_t>(bytes) * 8);
        } catch (const std::exception &e) {
            {
                std::lock_guard<std::mutex> lock(stats_mu_);
                ++stats_.service_errors;
            }
            client.pending.pop_front();
            --total_pending_;
            // A failed session stays failed (latched health alarm,
            // closed service): answer once, then drop the connection
            // like the original daemon did -- otherwise an alarmed
            // session spins error responses at wire speed.
            respondError(client, kStatusError, e.what());
            closeSoon(client, "service error");
            return;
        }
        client.pending.pop_front();
        --total_pending_;
        client.outstanding_bytes += bytes;
        client.in_flight.push_back(std::move(in_flight));
        ++total_in_flight_;
    }
}

void
Server::drainReady(Client &client)
{
    using namespace std::chrono_literals;
    while (!client.in_flight.empty() && !client.dead &&
           !client.conn->closing()) {
        InFlight &head = client.in_flight.front();
        if (head.busy) {
            unsigned char hint[kBusyPayloadBytes];
            encodeBusyPayload(hint, static_cast<std::uint32_t>(
                                        config_.degraded_retry_ms));
            std::vector<std::uint8_t> out;
            FrameEncoder::appendResponse(out, kStatusBusy, hint,
                                         sizeof(hint));
            {
                std::lock_guard<std::mutex> lock(stats_mu_);
                ++stats_.responses;
            }
            client.in_flight.pop_front();
            --total_in_flight_;
            client.conn->send(std::move(out));
            continue;
        }
        if (head.future.wait_for(0s) != std::future_status::ready)
            return; // Later futures complete after the head (FIFO).

        std::vector<std::uint8_t> out;
        try {
            const util::BitStream bits = head.future.get();
            const std::vector<std::uint8_t> payload =
                bits.toBytesMsbFirst();
            FrameEncoder::appendResponse(out, kStatusOk,
                                         payload.data(),
                                         payload.size());
            {
                std::lock_guard<std::mutex> lock(stats_mu_);
                ++stats_.responses;
                stats_.response_bytes += payload.size();
            }
            client.outstanding_bytes -= head.bytes;
            client.in_flight.pop_front();
            --total_in_flight_;
            client.conn->send(std::move(out)); // May close on overflow.
            continue;
        } catch (const std::exception &e) {
            FrameEncoder::appendResponse(out, kStatusError,
                                         std::string(e.what()));
            std::lock_guard<std::mutex> lock(stats_mu_);
            ++stats_.responses;
            ++stats_.service_errors;
        }
        // Failed read: the session is done for (see admitPending).
        // Answer this request, drop the rest of the connection.
        client.outstanding_bytes -= head.bytes;
        client.in_flight.pop_front();
        --total_in_flight_;
        if (client.conn->send(std::move(out)))
            closeSoon(client, "service error");
        return;
    }
}

void
Server::managePause(Client &client)
{
    if (client.dead)
        return;
    const bool want_pause =
        client.pending.size() >= config_.max_pending_requests ||
        client.conn->outputQueuedBytes() >=
            config_.max_output_queue_bytes;
    if (want_pause && !client.conn->readingPaused()) {
        client.conn->pauseReading();
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.read_pauses;
    } else if (!want_pause && client.conn->readingPaused()) {
        client.conn->resumeReading();
    }
}

void
Server::respondError(Client &client, std::uint16_t status,
                     const std::string &message)
{
    if (client.dead)
        return;
    std::vector<std::uint8_t> out;
    FrameEncoder::appendResponse(out, status, message);
    {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.responses;
    }
    client.conn->send(std::move(out));
}

void
Server::closeSoon(Client &client, const std::string &reason)
{
    if (client.dead || client.conn->closing())
        return;
    client.conn->closeAfterFlush(reason);
    // Bound the lingering half-close: a peer that never answers the
    // FIN gets cut off by the sweep.
    if (!client.dead && !client.conn->closed())
        client.linger_deadline_ns = nowNs() + 5'000'000'000ULL;
}

void
Server::onDecodeError(Client &client, FrameDecoder::Error error)
{
    {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.protocol_errors;
    }
    const char *what =
        error == FrameDecoder::Error::OversizedPayload
            ? "oversized frame payload"
            : "malformed frame (bad magic)";
    // The byte stream cannot be re-synchronized: answer once so a
    // blocking client sees *why*, then close after the flush.
    respondError(client, kStatusProtocolError, what);
    closeSoon(client, what);
}

void
Server::onClosed(Client &client, const std::string &reason)
{
    if (client.dead)
        return;
    client.dead = true;
    total_pending_ -= client.pending.size();
    client.pending.clear();
    total_in_flight_ -= client.in_flight.size();
    client.in_flight.clear(); // Futures die; Session close fails them.
    if (client.session_open)
        client.session.close();
    {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.closed;
        stats_.active = clients_.size() > 0 ? clients_.size() - 1 : 0;
    }
    if (config_.verbose)
        std::printf("trngd: connection %llu closed (%s)\n",
                    static_cast<unsigned long long>(client.id),
                    reason.c_str());
}

} // namespace drange::net
