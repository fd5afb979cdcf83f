#include "fleet/device_model.hh"

#include <utility>

#include "util/rng.hh"

namespace drange::fleet {

namespace {

Vendor
vendor(std::string name, dram::Manufacturer manufacturer)
{
    Vendor v;
    v.name = std::move(name);
    v.manufacturer = manufacturer;
    return v;
}

} // anonymous namespace

std::vector<Vendor>
Vendor::builtin()
{
    // Vendor A parts route addresses straight through (the legacy
    // single-device behaviour).
    std::vector<Vendor> v{vendor("A", dram::Manufacturer::A),
                          vendor("B", dram::Manufacturer::B),
                          vendor("C", dram::Manufacturer::C)};

    v[1].mapping.row_kind =
        dram::AddressMapping::RowKind::SubarrayReverse;
    v[1].mapping.bank_rotate = 3;

    v[2].mapping.row_kind = dram::AddressMapping::RowKind::XorScramble;
    v[2].mapping.row_xor = 0x2a5;
    v[2].mapping.word_xor = 0x5;

    return v;
}

std::uint64_t
DeviceModel::fingerprint() const
{
    std::uint64_t h = 0x66c6a4aa1cfe5d2cull;
    auto mix = [&h](std::uint64_t v) { h = util::mix64(h ^ v); };
    for (const char c : vendor)
        mix(static_cast<std::uint64_t>(c));
    mix(config.seed);
    mix(static_cast<std::uint64_t>(config.manufacturer));
    mix(static_cast<std::uint64_t>(config.mapping.row_kind));
    mix(config.mapping.row_xor);
    mix(static_cast<std::uint64_t>(config.mapping.bank_rotate));
    mix(config.mapping.word_xor);
    mix(static_cast<std::uint64_t>(config.geometry.banks));
    mix(static_cast<std::uint64_t>(config.geometry.rows_per_bank));
    mix(static_cast<std::uint64_t>(config.geometry.words_per_row));
    // Quantized density factor: two profiles of the same die agree,
    // but an override that changes the density invalidates them.
    mix(static_cast<std::uint64_t>(variability * 1e6));
    return h;
}

} // namespace drange::fleet
