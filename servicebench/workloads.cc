#include "workloads.hh"

#include <arpa/inet.h>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <fcntl.h>
#include <future>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <stdexcept>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

#include "net/frame.hh"
#include "util/rng.hh"

namespace servicebench {

namespace {

using std::chrono::duration_cast;

Clock::duration
toDuration(double seconds)
{
    return duration_cast<Clock::duration>(
        std::chrono::duration<double>(seconds));
}

/** Warmup -> measured window -> closed, driven by one thread's clock. */
class WindowClock
{
  public:
    explicit WindowClock(const Window &window) : window_(window)
    {
        const auto now = Clock::now();
        open_at_ = now + toDuration(window.warmup_s);
        close_at_ = open_at_ + toDuration(window.seconds);
    }

    enum Phase { Warmup, Measure, Closed };

    /** Advance to @p now; fires the window callbacks on edges. */
    Phase update(Clock::time_point now)
    {
        if (phase_ == Warmup && now >= open_at_) {
            opened_ = now;
            phase_ = Measure;
            if (on_edge)
                on_edge(Measure);
            if (window_.on_open)
                window_.on_open();
        }
        if (phase_ == Measure && now >= close_at_) {
            closed_ = now;
            phase_ = Closed;
            if (on_edge)
                on_edge(Closed);
            if (window_.on_close)
                window_.on_close();
        }
        return phase_;
    }

    Phase phase() const { return phase_; }
    Clock::time_point nextEdge() const
    {
        return phase_ == Warmup ? open_at_ : close_at_;
    }
    bool inWindow(Clock::time_point t) const
    {
        return phase_ != Warmup && t >= opened_ &&
               (phase_ == Measure || t < closed_);
    }
    double seconds() const { return secondsBetween(opened_, closed_); }
    Clock::time_point opened() const { return opened_; }

    /** Workload-side hook run at each edge, before the window's own
     * callbacks. */
    std::function<void(Phase)> on_edge;

  private:
    const Window &window_;
    Clock::time_point open_at_, close_at_;
    Clock::time_point opened_, closed_;
    Phase phase_ = Warmup;
};

/** Reservoir bits a session drew, divided by its DRR weight. */
double
weightedDraw(const trng::Session &session)
{
    const trng::SessionStats st = session.stats();
    return static_cast<double>(st.reservoir_bits) /
           static_cast<double>(st.priority);
}

/** Fills Tally::session_draw from snapshots at the window edges. */
class DrawRecorder
{
  public:
    explicit DrawRecorder(const std::vector<trng::Session> &sessions)
        : sessions_(sessions)
    {
    }

    void edge(WindowClock::Phase phase, Tally &tally)
    {
        std::vector<double> now;
        for (const trng::Session &s : sessions_)
            now.push_back(s.isOpen() ? weightedDraw(s) : 0.0);
        if (phase == WindowClock::Measure) {
            start_ = now;
            return;
        }
        tally.session_draw.clear();
        for (std::size_t i = 0; i < now.size(); ++i)
            tally.session_draw.push_back(now[i] - start_[i]);
    }

  private:
    const std::vector<trng::Session> &sessions_;
    std::vector<double> start_;
};

std::uint64_t
serviceDelivered(const trng::Service &service)
{
    return service.stats().delivered_bits;
}

// -------------------------------------------------------------- bulk

constexpr std::size_t kBulkReadBits = 64 * 1024;
constexpr int kBulkSessions = 2;

} // namespace

Tally
runBulk(trng::Service &service, const Window &window, Checks &checks)
{
    const std::uint64_t delivered_before = serviceDelivered(service);
    std::vector<trng::Session> sessions;
    for (int i = 0; i < kBulkSessions; ++i)
        sessions.push_back(service.open());

    struct Client
    {
        Tally window;
        std::uint64_t total_bits = 0, attempts = 0, failures = 0;
        std::uint64_t window_failures = 0;
        std::uint64_t short_reads = 0;
        EntropySample entropy;
    };
    std::vector<Client> clients(kBulkSessions);
    std::atomic<int> phase{WindowClock::Warmup};

    // jthread joins on destruction (asking the loop to stop first), so
    // the clients never outlive the state above, exceptions included.
    std::vector<std::jthread> threads;
    for (int i = 0; i < kBulkSessions; ++i)
        threads.emplace_back([&, i](const std::stop_token &stop) {
            Client &c = clients[i];
            while (!stop.stop_requested() &&
                   phase.load(std::memory_order_acquire) !=
                       WindowClock::Closed) {
                const auto begin = Clock::now();
                ++c.attempts;
                util::BitStream bits;
                try {
                    bits = sessions[i].read(kBulkReadBits);
                } catch (const std::exception &) {
                    ++c.failures;
                    if (phase.load(std::memory_order_acquire) ==
                        WindowClock::Measure)
                        ++c.window_failures;
                    return; // A raw session has no way back.
                }
                const auto end = Clock::now();
                c.short_reads += bits.size() != kBulkReadBits;
                c.total_bits += bits.size();
                c.entropy.add(bits);
                if (phase.load(std::memory_order_acquire) ==
                    WindowClock::Measure) {
                    c.window.latency_ms.add(msBetween(begin, end), end);
                    c.window.complete(begin, end, bits.size());
                }
            }
        });

    Tally tally;
    WindowClock clock(window);
    DrawRecorder draws(sessions);
    clock.on_edge = [&](WindowClock::Phase p) {
        phase.store(p, std::memory_order_release);
        draws.edge(p, tally);
    };
    while (clock.update(Clock::now()) != WindowClock::Closed)
        std::this_thread::sleep_until(clock.nextEdge());
    threads.clear(); // Joins.

    tally.window_s = clock.seconds();
    tally.opened = clock.opened();
    EntropySample entropy;
    std::uint64_t total = 0;
    for (int i = 0; i < kBulkSessions; ++i) {
        const Client &c = clients[i];
        tally.merge(c.window);
        tally.ops_attempted += c.window.window_reads + c.window_failures;
        tally.ops_failed += c.window_failures;
        tally.attempts += c.attempts;
        tally.attempt_failures += c.failures;
        total += c.total_bits;
        entropy.bits += c.entropy.bits;
        entropy.ones += c.entropy.ones;
        checks.require(c.short_reads == 0,
                       "bulk: a read returned other than 65536 bits");
        checks.require(sessions[i].stats().delivered_bits == c.total_bits,
                       "bulk: session delivered-bit counter does not "
                       "match the bits its client received");
    }
    checks.require(serviceDelivered(service) - delivered_before == total,
                   "bulk: service delivered-bit counter does not match "
                   "the bits the clients received");
    entropy.check(checks, "bulk raw output");
    return tally;
}

// ------------------------------------------------------------ fanout

namespace {

constexpr std::size_t kFanoutReadBits = 4096;
constexpr int kFanoutSessions = 16;
constexpr int kFanoutDepth = 2;

/** How often the fanout client loop looks at every session's head: fine
 * against its ~50 ms reads, and coarse enough not to compete with the
 * service's own threads for the cores. */
constexpr auto kFanoutPoll = std::chrono::milliseconds(1);

struct Pending
{
    std::future<util::BitStream> future;
    Clock::time_point issued;
};

/** Index of the session whose head request is oldest; -1 if none. */
int
oldestHead(const std::vector<std::deque<Pending>> &queues)
{
    int best = -1;
    for (std::size_t i = 0; i < queues.size(); ++i)
        if (!queues[i].empty() &&
            (best < 0 || queues[i].front().issued <
                             queues[static_cast<std::size_t>(best)]
                                 .front()
                                 .issued))
            best = static_cast<int>(i);
    return best;
}

bool
ready(const std::future<util::BitStream> &future)
{
    return future.wait_for(std::chrono::seconds(0)) ==
           std::future_status::ready;
}

} // namespace

Tally
runFanout(trng::Service &service, PoolKind kind, const Window &window,
          Checks &checks)
{
    const std::uint64_t delivered_before = serviceDelivered(service);
    std::vector<trng::Session> sessions;
    std::vector<bool> raw;
    for (int i = 0; i < kFanoutSessions; ++i) {
        trng::SessionConfig config;
        const bool is_raw = i < kFanoutSessions / 2;
        config.priority = is_raw ? 1 : 2;
        if (!is_raw)
            config.conditioning = sha256Profile(kind);
        sessions.push_back(service.open(config));
        raw.push_back(is_raw);
    }

    Tally tally;
    std::vector<std::deque<Pending>> queues(kFanoutSessions);
    std::vector<std::uint64_t> received(kFanoutSessions, 0);
    std::vector<bool> failed(kFanoutSessions, false);
    EntropySample entropy;
    std::uint64_t short_reads = 0;

    WindowClock clock(window);
    DrawRecorder draws(sessions);
    clock.on_edge = [&](WindowClock::Phase p) { draws.edge(p, tally); };

    auto issue = [&](int i) {
        queues[i].push_back(
            {sessions[i].readAsync(kFanoutReadBits), Clock::now()});
        ++tally.attempts;
    };
    auto complete = [&](int i, Clock::time_point now) {
        Pending p = std::move(queues[i].front());
        queues[i].pop_front();
        const bool measured = clock.inWindow(now);
        tally.ops_attempted += measured;
        try {
            const util::BitStream bits = p.future.get();
            short_reads += bits.size() != kFanoutReadBits;
            received[i] += bits.size();
            if (raw[i])
                entropy.add(bits);
            if (measured) {
                tally.latency_ms.add(msBetween(p.issued, now), now);
                tally.complete(p.issued, now, bits.size());
            }
        } catch (const std::exception &) {
            ++tally.attempt_failures;
            tally.ops_failed += measured;
            failed[i] = true; // Nothing in this workload can fail it
                              // legitimately; stop driving it.
        }
    };

    for (int i = 0; i < kFanoutSessions; ++i)
        for (int d = 0; d < kFanoutDepth; ++d)
            issue(i);
    while (clock.update(Clock::now()) != WindowClock::Closed) {
        const int head = oldestHead(queues);
        if (head < 0)
            break;
        // Any session's head may finish first: wake at least every
        // kFanoutPoll so its completion time is observed promptly.
        queues[head].front().future.wait_until(
            std::min(clock.nextEdge(), Clock::now() + kFanoutPoll));
        const auto now = Clock::now();
        for (int i = 0; i < kFanoutSessions; ++i)
            while (!queues[i].empty() && ready(queues[i].front().future)) {
                complete(i, now);
                if (!failed[i])
                    issue(i);
            }
    }
    // Drain: every queued read must still complete.
    for (int i = 0; i < kFanoutSessions; ++i)
        while (!queues[i].empty()) {
            queues[i].front().future.wait();
            complete(i, Clock::now());
        }

    tally.window_s = clock.seconds();
    tally.opened = clock.opened();
    std::uint64_t total = 0;
    for (int i = 0; i < kFanoutSessions; ++i) {
        total += received[i];
        checks.require(sessions[i].stats().delivered_bits == received[i],
                       "fanout: session " + std::to_string(i) +
                           " delivered-bit counter does not match its "
                           "client");
    }
    checks.require(short_reads == 0,
                   "fanout: a read returned other than 4096 bits");
    checks.require(serviceDelivered(service) - delivered_before == total,
                   "fanout: service delivered-bit counter does not "
                   "match the bits the clients received");
    entropy.check(checks, "fanout raw output");
    return tally;
}

// -------------------------------------------------------------- keys

namespace {

/**
 * Offered load, requests per second over all connections: a quarter of
 * the ~4k req/s the pool answers closed-loop. The server notices a
 * finished request on its next wake-up, which is the next arrival or
 * its 1 ms poll; at this rate the mean gap is that poll, so the tail
 * sits on it. At 2000 req/s it sits between the two, and its spread
 * between runs of the same code was twice as wide.
 */
constexpr double kKeysRate = 1000.0;
constexpr int kKeysConnections = 4;
constexpr double kLagLimitMs = 2.0; //!< Open loop held if p99 below.

/**
 * Requests a connection (or in-process session) keeps in flight. A
 * sha256 session conditions each dispatch take -- its whole outstanding
 * demand -- into one 256-bit digest, so every request queued behind the
 * first multiplies the input the next one costs. Past a few requests
 * the harvest falls behind and the backlog never drains, so one host
 * stall would wreck the rest of the run. Requests beyond the window
 * wait in the client; their latency still counts from the due time.
 */
constexpr std::size_t kKeysWindow = 2;

/** Completion-observation granularity of the in-process keys client
 * (its reads take ~0.1 ms). */
constexpr auto kKeysPoll = std::chrono::microseconds(100);

/**
 * Key sizes: 32 bytes, except every 8th request of a connection asks
 * for 64, so a response delivered out of order shows up as a length
 * mismatch instead of passing unnoticed.
 */
std::uint32_t
keyBytes(std::uint64_t k)
{
    return (k / kKeysConnections) % 8 == 7 ? 64 : 32;
}

/** One scheduled request of the open-loop stream. */
struct KeyRequest
{
    Clock::time_point due;
    std::uint32_t bytes = 32;
    bool measured = false;
};

/**
 * The open-loop schedule: Poisson arrivals at kKeysRate, the gaps drawn
 * from the workload seed. Random gaps keep the arrivals from locking
 * into step with the server's own wake-ups, so latency is sampled at
 * every phase of them rather than at one.
 */
class Schedule
{
  public:
    Schedule(Clock::time_point start, std::uint64_t seed)
        : due_(start), state_(util::hashMix({seed, 0x6b657973}))
    {
    }

    /** Emit every request due by @p now (none once the window closed),
     * recording how late the generator released each into @p lag. */
    template <typename Sink>
    void release(Clock::time_point now, const WindowClock &clock,
                 Samples &lag, Sink &&sink)
    {
        while (clock.phase() != WindowClock::Closed && due_ <= now) {
            KeyRequest r;
            r.due = due_;
            r.bytes = keyBytes(next_);
            r.measured = clock.inWindow(r.due);
            if (r.measured)
                lag.add(msBetween(r.due, now));
            sink(static_cast<int>(next_ % kKeysConnections), r);
            ++next_;
            // Exponential gap; u in (0, 1).
            const double u =
                (static_cast<double>(util::splitmix64(state_) >> 11) + 0.5) *
                0x1p-53;
            due_ += toDuration(-std::log(u) / kKeysRate);
        }
    }

    Clock::time_point nextDue() const { return due_; }

  private:
    Clock::time_point due_;
    std::uint64_t state_;
    std::uint64_t next_ = 0;
};

/** Records a successful response against the tally. */
void
recordCompletion(Tally &tally, const WindowClock &clock,
                 const KeyRequest &r, Clock::time_point now)
{
    if (r.measured)
        tally.latency_ms.add(msBetween(r.due, now), now);
    if (clock.inWindow(now))
        tally.complete(r.due, now, 8ull * r.bytes);
}

void
finishOpenLoop(Tally &tally, const WindowClock &clock)
{
    tally.window_s = clock.seconds();
    tally.opened = clock.opened();
    tally.rate_held = tally.lag_ms.quantile(0.99) <= kLagLimitMs;
}

// ------------------------------------------------------ TCP client

int
connectLoopback(std::uint16_t port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        throw std::runtime_error("socket: " +
                                 std::string(std::strerror(errno)));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        const int err = errno;
        ::close(fd);
        throw std::runtime_error("connect: " +
                                 std::string(std::strerror(err)));
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
    return fd;
}

/** One client connection: FIFO of sent requests, unsent bytes. */
struct KeyConn
{
    int fd = -1;
    net::FrameDecoder decoder{1u << 16};
    std::deque<KeyRequest> to_send;   //!< Due, not yet encoded.
    std::deque<KeyRequest> in_flight; //!< Encoded, awaiting response.
    std::vector<std::uint8_t> out;
    std::size_t out_off = 0;
};

class TcpClient
{
  public:
    TcpClient(std::uint16_t port, Tally &tally, Checks &checks,
              const WindowClock &clock)
        : port_(port), tally_(tally), checks_(checks), clock_(clock),
          conns_(kKeysConnections)
    {
        for (KeyConn &c : conns_)
            c.fd = connectLoopback(port_);
    }

    ~TcpClient()
    {
        for (KeyConn &c : conns_)
            if (c.fd >= 0)
                ::close(c.fd);
    }

    TcpClient(const TcpClient &) = delete;
    TcpClient &operator=(const TcpClient &) = delete;

    void enqueue(int conn, const KeyRequest &r)
    {
        conns_[conn].to_send.push_back(r);
    }

    /** Requests not answered yet, sent or still queued. */
    std::size_t outstanding() const
    {
        std::size_t n = 0;
        for (const KeyConn &c : conns_)
            n += c.to_send.size() + c.in_flight.size();
        return n;
    }

    /** Send what is queued, wait for input until @p until, read it. */
    void step(Clock::time_point until)
    {
        for (KeyConn &c : conns_)
            flush(c);
        pollfd fds[kKeysConnections];
        for (int i = 0; i < kKeysConnections; ++i) {
            fds[i].fd = conns_[i].fd;
            fds[i].events = POLLIN;
            if (conns_[i].out_off < conns_[i].out.size())
                fds[i].events |= POLLOUT;
            fds[i].revents = 0;
        }
        const auto wait = std::max(Clock::duration::zero(),
                                   until - Clock::now());
        const auto ns =
            duration_cast<std::chrono::nanoseconds>(wait).count();
        timespec ts{static_cast<time_t>(ns / 1'000'000'000),
                    static_cast<long>(ns % 1'000'000'000)};
        const int n = ::ppoll(fds, kKeysConnections, &ts, nullptr);
        if (n <= 0)
            return;
        const auto now = Clock::now();
        for (int i = 0; i < kKeysConnections; ++i)
            if (fds[i].revents & (POLLIN | POLLHUP | POLLERR))
                receive(conns_[i], now);
    }

    std::uint64_t framesReceived() const { return frames_; }
    std::uint64_t payloadBytes() const { return payload_bytes_; }
    const EntropySample &entropy() const { return entropy_; }

  private:
    void flush(KeyConn &c)
    {
        while (!c.to_send.empty() && c.in_flight.size() < kKeysWindow) {
            net::FrameEncoder::appendRequest(c.out, 1,
                                             c.to_send.front().bytes);
            ++tally_.attempts;
            c.in_flight.push_back(c.to_send.front());
            c.to_send.pop_front();
        }
        while (c.out_off < c.out.size()) {
            const ssize_t n =
                ::send(c.fd, c.out.data() + c.out_off,
                       c.out.size() - c.out_off, MSG_NOSIGNAL);
            if (n <= 0)
                break; // EAGAIN: POLLOUT; errors surface on read.
            c.out_off += static_cast<std::size_t>(n);
        }
        if (c.out_off == c.out.size()) {
            c.out.clear();
            c.out_off = 0;
        }
    }

    void receive(KeyConn &c, Clock::time_point now)
    {
        std::uint8_t buf[16384];
        for (;;) {
            const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
            if (n > 0) {
                c.decoder.feed(buf, static_cast<std::size_t>(n));
                if (!drainFrames(c, now))
                    return; // Reconnected after a failed session.
                continue;
            }
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
                return;
            // EOF or reset without an error frame first.
            checks_.require(c.in_flight.empty(),
                            "keys_tcp: connection closed with " +
                                std::to_string(c.in_flight.size()) +
                                " requests unanswered (lost frames)");
            reconnect(c, 0);
            return;
        }
    }

    /** Handle decoded frames; false once the connection was replaced. */
    bool drainFrames(KeyConn &c, Clock::time_point now)
    {
        net::Frame frame;
        while (c.decoder.next(frame)) {
            ++frames_;
            if (frame.kind != net::Frame::Kind::Response) {
                checks_.require(false, "keys_tcp: request frame from "
                                       "the server");
                continue;
            }
            if (c.in_flight.empty()) {
                checks_.require(false, "keys_tcp: response frame with "
                                       "no request outstanding "
                                       "(duplicated frame)");
                continue;
            }
            const KeyRequest head = c.in_flight.front();
            if (frame.code == net::kStatusOk) {
                c.in_flight.pop_front();
                checks_.require(frame.payload.size() == head.bytes,
                                "keys_tcp: response of " +
                                    std::to_string(frame.payload.size()) +
                                    " bytes to a " +
                                    std::to_string(head.bytes) +
                                    "-byte request (reordered or "
                                    "truncated frame)");
                payload_bytes_ += frame.payload.size();
                entropy_.addBytes(frame.payload.data(),
                                  frame.payload.size());
                recordCompletion(tally_, clock_, head, now);
                continue;
            }
            checks_.require(frame.code == net::kStatusError,
                            "keys_tcp: unexpected response status " +
                                std::to_string(frame.code));
            // The session failed (latched health alarm): the server
            // answered this request and closes; the rest of the FIFO
            // dies with the connection. Retry all of it on a new one.
            reconnect(c, c.in_flight.size());
            return false;
        }
        checks_.require(c.decoder.error() ==
                            net::FrameDecoder::Error::None,
                        "keys_tcp: unframeable response stream");
        return true;
    }

    void reconnect(KeyConn &c, std::size_t failed)
    {
        tally_.attempt_failures += failed;
        ++tally_.reconnects;
        ::close(c.fd);
        std::deque<KeyRequest> retry = std::move(c.in_flight);
        retry.insert(retry.end(), c.to_send.begin(), c.to_send.end());
        c.in_flight.clear();
        c.to_send = std::move(retry);
        c.out.clear();
        c.out_off = 0;
        c.decoder.reset();
        c.fd = connectLoopback(port_);
    }

    std::uint16_t port_;
    Tally &tally_;
    Checks &checks_;
    const WindowClock &clock_;
    std::vector<KeyConn> conns_;
    std::uint64_t frames_ = 0;
    std::uint64_t payload_bytes_ = 0;
    EntropySample entropy_;
};

/**
 * How long a pass waits after its window for the requests still out.
 * A pool too slow for the offered rate leaves a backlog: what is left
 * after this counts as failed operations, and the counters, caught
 * mid-flight, are not reconciled.
 */
constexpr double kDrainTimeoutS = 10.0;

void
reportBacklog(const char *pass, std::size_t left)
{
    std::printf("  %s: %zu requests unanswered %.0f s after the window, "
                "counted as failed\n",
                pass, left, kDrainTimeoutS);
}

} // namespace

TcpPass
runKeysTcp(trng::Service &service, PoolKind kind, const Window &window,
           Checks &checks)
{
    const std::uint64_t delivered_before = serviceDelivered(service);
    net::ServerConfig config;
    config.tcp_host = "127.0.0.1";
    config.tcp_port = 0;
    trng::SessionConfig session;
    session.conditioning = keysProfile(kind);
    net::Server server(service, config, session);
    server.start();
    std::exception_ptr server_error;
    std::thread loop([&] {
        try {
            server.run();
        } catch (...) {
            server_error = std::current_exception();
        }
    });

    TcpPass pass;
    Tally &tally = pass.tally;
    std::uint64_t scheduled_in_window = 0;
    std::uint64_t frames = 0, payload = 0;
    std::size_t backlog = 0;
    EntropySample entropy;
    try {
        WindowClock clock(window);
        TcpClient client(server.tcpPort(), tally, checks, clock);
        Schedule schedule(Clock::now(), window.seed);
        while (clock.update(Clock::now()) != WindowClock::Closed) {
            schedule.release(Clock::now(), clock, tally.lag_ms,
                             [&](int conn, const KeyRequest &r) {
                                 scheduled_in_window += r.measured;
                                 client.enqueue(conn, r);
                             });
            client.step(std::min(schedule.nextDue(), clock.nextEdge()));
        }
        const auto drain_end = Clock::now() + toDuration(kDrainTimeoutS);
        while (client.outstanding() > 0 && Clock::now() < drain_end)
            client.step(Clock::now() + std::chrono::milliseconds(5));
        backlog = client.outstanding();
        finishOpenLoop(tally, clock);
        frames = client.framesReceived();
        payload = client.payloadBytes();
        entropy = client.entropy();
    } catch (...) {
        server.stop();
        loop.join();
        throw;
    }
    tally.ops_attempted = scheduled_in_window;
    tally.ops_failed =
        scheduled_in_window - std::min<std::uint64_t>(
                                  scheduled_in_window,
                                  tally.latency_ms.size());

    pass.server = server.stats();
    server.stop();
    loop.join();
    if (server_error)
        std::rethrow_exception(server_error);

    entropy.check(checks, "keys_tcp output");
    if (backlog > 0) {
        reportBacklog("keys_tcp", backlog);
        return pass;
    }
    checks.require(pass.server.responses == frames,
                   "keys_tcp: server sent " +
                       std::to_string(pass.server.responses) +
                       " responses, client received " +
                       std::to_string(frames));
    checks.require(pass.server.response_bytes == payload,
                   "keys_tcp: server payload bytes do not match the "
                   "client's");
    checks.require(serviceDelivered(service) - delivered_before ==
                       8 * payload,
                   "keys_tcp: service delivered-bit counter does not "
                   "match the payload the clients received");
    return pass;
}

Tally
runKeysInproc(trng::Service &service, PoolKind kind, const Window &window,
              Checks &checks)
{
    const std::uint64_t delivered_before = serviceDelivered(service);
    trng::SessionConfig config;
    config.conditioning = keysProfile(kind);

    struct Slot
    {
        trng::Session session;
        std::uint64_t received = 0; //!< Bits through this session.
        double draw_start = 0.0;    //!< Weighted draw at window open.
        double draw_carried = 0.0;  //!< Window draw of reopened ones.
        std::deque<KeyRequest> waiting; //!< Due, beyond the window.
        std::deque<std::pair<KeyRequest, std::future<util::BitStream>>>
            queue;
    };
    std::vector<Slot> slots(kKeysConnections);
    for (Slot &s : slots)
        s.session = service.open(config);

    Tally tally;
    std::uint64_t scheduled_in_window = 0;
    std::uint64_t total = 0, short_reads = 0;
    EntropySample entropy;
    WindowClock clock(window);
    clock.on_edge = [&](WindowClock::Phase p) {
        for (Slot &s : slots) {
            const double d = weightedDraw(s.session);
            if (p == WindowClock::Measure)
                s.draw_start = d;
            else
                tally.session_draw.push_back(s.draw_carried + d -
                                             s.draw_start);
        }
    };

    auto pump = [&](Slot &s) {
        while (!s.waiting.empty() && s.queue.size() < kKeysWindow) {
            const KeyRequest r = s.waiting.front();
            s.waiting.pop_front();
            ++tally.attempts;
            s.queue.emplace_back(r, s.session.readAsync(8ull * r.bytes));
        }
    };
    auto reconcile = [&](Slot &s) {
        checks.require(s.session.stats().delivered_bits == s.received,
                       "keys_inproc: session delivered-bit counter does "
                       "not match its client");
        total += s.received;
    };
    auto sweep = [&](Clock::time_point now) {
        for (Slot &s : slots)
            while (!s.queue.empty() && ready(s.queue.front().second)) {
                KeyRequest r = s.queue.front().first;
                try {
                    const util::BitStream bits =
                        s.queue.front().second.get();
                    s.queue.pop_front();
                    short_reads += bits.size() != 8ull * r.bytes;
                    s.received += bits.size();
                    entropy.add(bits);
                    recordCompletion(tally, clock, r, now);
                } catch (const std::exception &) {
                    // Latched health alarm: every queued read of the
                    // session fails. Reopen and retry them all.
                    tally.attempt_failures += s.queue.size();
                    ++tally.reconnects;
                    for (auto it = s.queue.rbegin(); it != s.queue.rend();
                         ++it)
                        s.waiting.push_front(it->first);
                    s.queue.clear();
                    reconcile(s);
                    if (clock.phase() == WindowClock::Measure)
                        s.draw_carried +=
                            weightedDraw(s.session) - s.draw_start;
                    s.draw_start = 0.0;
                    s.received = 0;
                    s.session = service.open(config);
                }
                pump(s);
            }
    };
    auto oldest = [&]() -> Slot * {
        Slot *best = nullptr;
        for (Slot &s : slots)
            if (!s.queue.empty() &&
                (!best ||
                 s.queue.front().first.due < best->queue.front().first.due))
                best = &s;
        return best;
    };

    Schedule schedule(Clock::now(), window.seed);
    while (clock.update(Clock::now()) != WindowClock::Closed) {
        schedule.release(Clock::now(), clock, tally.lag_ms,
                         [&](int slot, const KeyRequest &r) {
                             scheduled_in_window += r.measured;
                             slots[slot].waiting.push_back(r);
                             pump(slots[slot]);
                         });
        const auto until = std::min(
            {schedule.nextDue(), clock.nextEdge(), Clock::now() + kKeysPoll});
        if (Slot *s = oldest())
            s->queue.front().second.wait_until(until);
        else
            std::this_thread::sleep_until(until);
        sweep(Clock::now());
    }
    const auto drain_end = Clock::now() + toDuration(kDrainTimeoutS);
    while (oldest() && Clock::now() < drain_end) {
        oldest()->queue.front().second.wait_until(Clock::now() +
                                                  kKeysPoll);
        sweep(Clock::now());
    }
    std::size_t backlog = 0;
    for (const Slot &s : slots)
        backlog += s.queue.size() + s.waiting.size();
    finishOpenLoop(tally, clock);
    tally.ops_attempted = scheduled_in_window;
    tally.ops_failed = scheduled_in_window -
                       std::min<std::uint64_t>(scheduled_in_window,
                                               tally.latency_ms.size());

    checks.require(short_reads == 0,
                   "keys_inproc: a read returned other than the "
                   "requested bit count");
    entropy.check(checks, "keys_inproc output");
    if (backlog > 0) {
        reportBacklog("keys_inproc", backlog);
        return tally;
    }
    for (Slot &s : slots)
        reconcile(s);
    checks.require(serviceDelivered(service) - delivered_before == total,
                   "keys_inproc: service delivered-bit counter does not "
                   "match the bits the clients received");
    return tally;
}

} // namespace servicebench
