/**
 * @file
 * Direct probes of the harvest layers below the Service, on a private
 * device + engine built from a pool member's parameters:
 *
 *  - controller: REFs issued and trace records logged over a fixed
 *    harvest (exact counts: they repeat for a fixed seed);
 *  - core: DRangeTrng::generate() at the member chunk size and at 4096
 *    and 65536 bits (the per-call intercept), and a runRound() loop;
 *  - dram: DramDevice::refreshAll() on the device in its post-harvest
 *    state, and its share of the round loop's busy time.
 */

#ifndef SERVICEBENCH_PROBES_HH
#define SERVICEBENCH_PROBES_HH

#include <cstddef>

#include "common.hh"

namespace servicebench {

struct HarvestProbe
{
    double refresh_us_per_call = 0;
    double refresh_share = 0;
    double refs_per_mbit = 0;
    double trace_records_per_bit = 0;
    double round_ns_per_bit = 0;
    double generate_ns_per_bit = 0;
    double generate_fixed_us_per_call = 0;
};

HarvestProbe probeHarvest(const trng::Params &member,
                          std::size_t chunk_bits);

} // namespace servicebench

#endif // SERVICEBENCH_PROBES_HH
