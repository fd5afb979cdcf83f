/**
 * @file
 * The three client loads. Each pass warms up, then measures a window,
 * then drains every outstanding request and reconciles the counters
 * against the Service's (and, for TCP, the server's) own.
 *
 *  - bulk: 2 raw sessions on 2 threads, closed loop, 64 Kibit reads.
 *  - fanout: 16 sessions on 1 thread via readAsync, 2 outstanding each,
 *    4 Kibit reads; 8 raw at priority 1, 8 sha256 at priority 2.
 *  - keys (TCP): an in-process net::Server on a loopback port, 4
 *    connections driven open-loop from 1 thread, Poisson arrivals at
 *    1000 requests/s;
 *    the same request stream can be replayed in-process (readAsync) to
 *    split network time from service time.
 */

#ifndef SERVICEBENCH_WORKLOADS_HH
#define SERVICEBENCH_WORKLOADS_HH

#include <functional>

#include "common.hh"
#include "net/server.hh"

namespace servicebench {

namespace net = drange::net;

/** Phase lengths plus callbacks fired as the window opens/closes. */
struct Window
{
    double warmup_s = 1.0;
    double seconds = 10.0;
    std::uint64_t seed = 1; //!< Seeds the load's random arrival times.
    std::function<void()> on_open;
    std::function<void()> on_close;
};

Tally runBulk(trng::Service &service, const Window &window,
              Checks &checks);

Tally runFanout(trng::Service &service, PoolKind kind,
                const Window &window, Checks &checks);

struct TcpPass
{
    Tally tally;
    net::ServerStats server; //!< Final server counters.
};

TcpPass runKeysTcp(trng::Service &service, PoolKind kind,
                   const Window &window, Checks &checks);

Tally runKeysInproc(trng::Service &service, PoolKind kind,
                    const Window &window, Checks &checks);

} // namespace servicebench

#endif // SERVICEBENCH_WORKLOADS_HH
