/**
 * @file
 * Implementation of the Table 2 buffer formulas.
 */

#include "buffer_model.hh"

#include <algorithm>
#include <sstream>

#include "common/logging.hh"

namespace transfusion::tileseek
{

std::string
TileShape::toString() const
{
    std::ostringstream os;
    os << "tile{b=" << b << " d=" << d << " p=" << p << " m1=" << m1
       << " m0=" << m0 << " s=" << s << " h=" << h << " e=" << e
       << " f=" << f << " p'=" << p_prime << "}";
    return os.str();
}

std::int64_t
pPrime(std::int64_t p_tile, std::int64_t pe_rows)
{
    tf_assert(p_tile > 0 && pe_rows > 0,
              "pPrime needs positive extents");
    return std::min(p_tile, pe_rows);
}

namespace
{

void
checkShape(const TileShape &t)
{
    tf_assert(t.b > 0 && t.d > 0 && t.p > 0 && t.m1 > 0 && t.m0 > 0
              && t.s > 0 && t.h > 0 && t.e > 0 && t.f > 0
              && t.p_prime > 0,
              "tile extents must be positive: ", t.toString());
}

} // namespace

double
qkvBufferWords(const TileShape &t)
{
    checkShape(t);
    // Table 2: BD(4P + 3*M1*M0) + 3DHE + 2BHP
    const double b = static_cast<double>(t.b);
    const double d = static_cast<double>(t.d);
    const double p = static_cast<double>(t.p);
    const double ctx = static_cast<double>(t.m1)
        * static_cast<double>(t.m0);
    const double h = static_cast<double>(t.h);
    const double e = static_cast<double>(t.e);
    return b * d * (4.0 * p + 3.0 * ctx) + 3.0 * d * h * e
        + 2.0 * b * h * p;
}

double
mhaBufferWords(const TileShape &t)
{
    checkShape(t);
    // Table 2: BHE(P + 2*M1*M0) + BHP(2 + 2F) + 4*M0*P' + 18*P'
    const double b = static_cast<double>(t.b);
    const double h = static_cast<double>(t.h);
    const double e = static_cast<double>(t.e);
    const double f = static_cast<double>(t.f);
    const double p = static_cast<double>(t.p);
    const double ctx = static_cast<double>(t.m1)
        * static_cast<double>(t.m0);
    const double m0 = static_cast<double>(t.m0);
    const double pp = static_cast<double>(t.p_prime);
    return b * h * e * (p + 2.0 * ctx) + b * h * p * (2.0 + 2.0 * f)
        + 4.0 * m0 * pp + 18.0 * pp;
}

double
layerNormBufferWords(const TileShape &t)
{
    checkShape(t);
    // Table 2: 3BHFP + 4HFP'
    const double b = static_cast<double>(t.b);
    const double h = static_cast<double>(t.h);
    const double f = static_cast<double>(t.f);
    const double p = static_cast<double>(t.p);
    const double pp = static_cast<double>(t.p_prime);
    return 3.0 * b * h * f * p + 4.0 * h * f * pp;
}

double
ffnBufferWords(const TileShape &t)
{
    checkShape(t);
    // Table 2: HF(2BP + S) + S(P + 2) + 2SP'
    const double b = static_cast<double>(t.b);
    const double h = static_cast<double>(t.h);
    const double f = static_cast<double>(t.f);
    const double p = static_cast<double>(t.p);
    const double s = static_cast<double>(t.s);
    const double pp = static_cast<double>(t.p_prime);
    return h * f * (2.0 * b * p + s) + s * (p + 2.0)
        + 2.0 * s * pp;
}

double
peakBufferWords(const TileShape &t)
{
    return std::max({ qkvBufferWords(t), mhaBufferWords(t),
                      layerNormBufferWords(t), ffnBufferWords(t) });
}

bool
wordsFitBuffer(double words, const arch::ArchConfig &arch)
{
    const double bytes = words
        * static_cast<double>(arch.element_bytes);
    return bytes <= static_cast<double>(arch.buffer_bytes);
}

bool
fitsBuffer(const TileShape &t, const arch::ArchConfig &arch)
{
    return wordsFitBuffer(peakBufferWords(t), arch);
}

} // namespace transfusion::tileseek
