/**
 * @file
 * Architecture presets from Table 3 plus the Fig. 9 PE-scaling
 * variants.
 */

#include "arch.hh"

#include <sstream>

#include "common/logging.hh"

namespace transfusion::arch
{

std::string
ArchConfig::toString() const
{
    std::ostringstream os;
    os << name << ": 2D " << pe2d.rows << "x" << pe2d.cols << ", 1D "
       << pe1d << ", buffer " << (buffer_bytes >> 20) << "MB, DRAM "
       << (dram_bytes_per_sec / 1e9) << "GB/s, clk "
       << (clock_hz / 1e6) << "MHz";
    return os.str();
}

void
ArchConfig::validate() const
{
    const auto positive = [this](double v, const char *field) {
        if (!(v > 0))
            tf_fatal("arch '", name, "': ", field,
                     " must be positive, got ", v);
    };
    positive(static_cast<double>(pe2d.rows), "pe2d.rows");
    positive(static_cast<double>(pe2d.cols), "pe2d.cols");
    positive(static_cast<double>(pe1d), "pe1d");
    positive(static_cast<double>(buffer_bytes), "buffer_bytes");
    positive(dram_bytes_per_sec, "dram_bytes_per_sec");
    positive(clock_hz, "clock_hz");
    positive(static_cast<double>(element_bytes), "element_bytes");
    positive(energy.mac_pj, "energy.mac_pj");
    positive(energy.reg_pj, "energy.reg_pj");
    positive(energy.buffer_pj, "energy.buffer_pj");
    positive(energy.dram_pj_per_byte, "energy.dram_pj_per_byte");
}

ArchConfig
cloudArch()
{
    ArchConfig a;
    a.name = "cloud";
    a.pe2d = {256, 256};
    a.pe1d = 256;
    a.buffer_bytes = std::int64_t{16} << 20;
    a.dram_bytes_per_sec = 400e9;
    a.clock_hz = 940e6; // TPU v3 core clock
    a.energy.mac_pj = 1.0;
    a.energy.reg_pj = 0.3;
    a.energy.buffer_pj = 6.0;       // 16 MB SRAM
    a.energy.dram_pj_per_byte = 31.2; // HBM-class (~3.9 pJ/bit)
    return a;
}

namespace
{

/** Shared base for the edge variants. */
ArchConfig
edgeBase()
{
    ArchConfig a;
    a.pe1d = 256;
    a.dram_bytes_per_sec = 30e9;
    a.clock_hz = 500e6; // typical mobile-NPU clock
    a.energy.mac_pj = 1.0;
    a.energy.reg_pj = 0.3;
    a.energy.buffer_pj = 3.0;        // 5 MB SRAM
    a.energy.dram_pj_per_byte = 100.0; // LPDDR-class
    return a;
}

} // namespace

ArchConfig
edgeArch()
{
    ArchConfig a = edgeBase();
    a.name = "edge";
    a.pe2d = {16, 16};
    a.buffer_bytes = std::int64_t{5} << 20;
    return a;
}

ArchConfig
edgeArch32()
{
    ArchConfig a = edgeBase();
    a.name = "edge32";
    a.pe2d = {32, 32};
    a.buffer_bytes = std::int64_t{5} << 20;
    return a;
}

ArchConfig
edgeArch64()
{
    ArchConfig a = edgeBase();
    a.name = "edge64";
    a.pe2d = {64, 64};
    // Sec. 6.2: the 64x64 configuration raises the buffer to 8 MB.
    a.buffer_bytes = std::int64_t{8} << 20;
    a.energy.buffer_pj = 4.0;
    return a;
}

ArchConfig
archByName(const std::string &name)
{
    ArchConfig a;
    if (name == "cloud")
        a = cloudArch();
    else if (name == "edge")
        a = edgeArch();
    else if (name == "edge32")
        a = edgeArch32();
    else if (name == "edge64")
        a = edgeArch64();
    else
        tf_fatal("unknown architecture preset '", name, "'");
    a.validate();
    return a;
}

} // namespace transfusion::arch
