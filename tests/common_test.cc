#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <string>

#include "common/arena.h"
#include "common/bytes.h"
#include "common/conf.h"
#include "common/crc32.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/table.h"
#include "common/units.h"

namespace hmr {
namespace {

// ----------------------------------------------------------------- arena

TEST(ArenaTest, CopyReturnsStableIndependentSpans) {
  Arena arena;
  const Bytes a = {1, 2, 3};
  const Bytes b = {4, 5};
  auto va = arena.copy(a);
  auto vb = arena.copy(b);
  EXPECT_NE(va.data(), a.data());  // really copied
  EXPECT_EQ(Bytes(va.begin(), va.end()), a);
  EXPECT_EQ(Bytes(vb.begin(), vb.end()), b);
  EXPECT_EQ(arena.allocated_bytes(), 5u);
}

TEST(ArenaTest, ZeroLengthAllocationIsFree) {
  Arena arena;
  auto span = arena.allocate(0);
  EXPECT_TRUE(span.empty());
  EXPECT_EQ(arena.slab_count(), 0u);
}

TEST(ArenaTest, OversizeAllocationGetsDedicatedSlab) {
  Arena arena(/*slab_bytes=*/128);
  auto big = arena.allocate(1000);
  EXPECT_EQ(big.size(), 1000u);
  auto small = arena.allocate(16);
  EXPECT_EQ(small.size(), 16u);
  // Writes to both must not overlap.
  std::memset(big.data(), 0xaa, big.size());
  std::memset(small.data(), 0xbb, small.size());
  EXPECT_EQ(big[999], 0xaa);
  EXPECT_EQ(small[0], 0xbb);
}

TEST(ArenaTest, ResetReusesSlabsWithoutGrowth) {
  Arena arena(/*slab_bytes=*/256);
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 64; ++i) arena.allocate(32);
    arena.reset();
  }
  const size_t slabs_after_warmup = arena.slab_count();
  for (int i = 0; i < 64; ++i) arena.allocate(32);
  EXPECT_EQ(arena.slab_count(), slabs_after_warmup);
  EXPECT_EQ(arena.allocated_bytes(), 64u * 32u);
}

TEST(ArenaTest, ManySmallAllocationsSpanSlabs) {
  Arena arena(/*slab_bytes=*/64);
  std::vector<std::span<std::uint8_t>> spans;
  for (int i = 0; i < 100; ++i) {
    spans.push_back(arena.allocate(10));
    spans.back()[0] = std::uint8_t(i);
  }
  for (int i = 0; i < 100; ++i) EXPECT_EQ(spans[i][0], std::uint8_t(i));
  EXPECT_GT(arena.slab_count(), 1u);
}

// ---------------------------------------------------------------- status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.to_string(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("no such file");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "no such file");
  EXPECT_EQ(s.to_string(), "NOT_FOUND: no such file");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kInternal); ++c) {
    EXPECT_NE(to_string(static_cast<StatusCode>(c)), "UNKNOWN");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::InvalidArgument("bad");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  auto p = std::move(r).value();
  EXPECT_EQ(*p, 7);
}

// ----------------------------------------------------------------- units

TEST(UnitsTest, ParsesPlainBytes) {
  EXPECT_EQ(parse_bytes("1024").value(), 1024u);
  EXPECT_EQ(parse_bytes("0").value(), 0u);
}

TEST(UnitsTest, ParsesSuffixes) {
  EXPECT_EQ(parse_bytes("64K").value(), 64 * kKiB);
  EXPECT_EQ(parse_bytes("64KB").value(), 64 * kKiB);
  EXPECT_EQ(parse_bytes("256MB").value(), 256 * kMiB);
  EXPECT_EQ(parse_bytes("2GB").value(), 2 * kGiB);
  EXPECT_EQ(parse_bytes("1TB").value(), kTiB);
  EXPECT_EQ(parse_bytes("100b").value(), 100u);
}

TEST(UnitsTest, ParsesFractionsAndCase) {
  EXPECT_EQ(parse_bytes("1.5GB").value(), kGiB + kGiB / 2);
  EXPECT_EQ(parse_bytes("0.5k").value(), 512u);
  EXPECT_EQ(parse_bytes(" 64 mb ").value(), 64 * kMiB);
}

TEST(UnitsTest, RejectsGarbage) {
  EXPECT_FALSE(parse_bytes("").ok());
  EXPECT_FALSE(parse_bytes("MB").ok());
  EXPECT_FALSE(parse_bytes("12XB").ok());
  EXPECT_FALSE(parse_bytes("12MBx").ok());
}

TEST(UnitsTest, FormatRoundTripsExactMultiples) {
  EXPECT_EQ(format_bytes(256 * kMiB), "256MB");
  EXPECT_EQ(format_bytes(2 * kGiB), "2GB");
  EXPECT_EQ(format_bytes(100), "100B");
  EXPECT_EQ(format_bytes(1536), "1.50KB");
}

TEST(UnitsTest, FormatDuration) {
  EXPECT_EQ(format_duration(12.34), "12.3s");
  EXPECT_EQ(format_duration(125.0), "2m05s");
}

// ------------------------------------------------------------------ conf

TEST(ConfTest, MergeOtherWins) {
  Conf base, override_conf;
  base.set("a", "1");
  base.set("b", "2");
  override_conf.set("b", "3");
  override_conf.set_int("c", -42);
  base.merge(override_conf);
  using Items = std::vector<std::pair<std::string, std::string>>;
  EXPECT_EQ(base.items(), (Items{{"a", "1"}, {"b", "3"}, {"c", "-42"}}));
}

// ----------------------------------------------------------------- bytes

TEST(BytesTest, FixedWidthRoundTrip) {
  ByteWriter w;
  w.put_u8(0xab);
  w.put_u16(0x1234);
  w.put_u32(0xdeadbeef);
  w.put_u64(0x0123456789abcdefull);
  w.put_i64(-5);
  w.put_double(3.14159);

  ByteReader r(w.data());
  EXPECT_EQ(r.u8().value(), 0xab);
  EXPECT_EQ(r.u16().value(), 0x1234);
  EXPECT_EQ(r.u32().value(), 0xdeadbeefu);
  EXPECT_EQ(r.u64().value(), 0x0123456789abcdefull);
  EXPECT_EQ(r.i64().value(), -5);
  EXPECT_DOUBLE_EQ(r.f64().value(), 3.14159);
  EXPECT_TRUE(r.at_end());
}

TEST(BytesTest, VarintBoundaries) {
  ByteWriter w;
  const std::uint64_t values[] = {0,   1,    127,        128,
                                  300, 1u << 21, 0xffffffffull,
                                  std::numeric_limits<std::uint64_t>::max()};
  for (auto v : values) w.put_varint(v);
  ByteReader r(w.data());
  for (auto v : values) EXPECT_EQ(r.varint().value(), v);
  EXPECT_TRUE(r.at_end());
}

TEST(BytesTest, SignedVarintZigZag) {
  ByteWriter w;
  const std::int64_t values[] = {0, -1, 1, -64, 64,
                                 std::numeric_limits<std::int64_t>::min(),
                                 std::numeric_limits<std::int64_t>::max()};
  for (auto v : values) w.put_varint_signed(v);
  ByteReader r(w.data());
  for (auto v : values) EXPECT_EQ(r.varint_signed().value(), v);
}

TEST(BytesTest, StringsAndLengthPrefixed) {
  ByteWriter w;
  w.put_string("hello");
  w.put_string("");
  Bytes blob = {1, 2, 3};
  w.put_length_prefixed(blob);

  ByteReader r(w.data());
  EXPECT_EQ(r.string().value(), "hello");
  EXPECT_EQ(r.string().value(), "");
  auto got = r.length_prefixed().value();
  EXPECT_EQ(Bytes(got.begin(), got.end()), blob);
}

TEST(BytesTest, ShortReadsFailCleanly) {
  Bytes data = {0x01};
  ByteReader r(data);
  EXPECT_TRUE(r.u8().ok());
  EXPECT_FALSE(r.u8().ok());
  EXPECT_FALSE(r.u32().ok());
  EXPECT_FALSE(r.varint().ok());

  Bytes truncated_varint = {0x80, 0x80};
  ByteReader r2(truncated_varint);
  EXPECT_FALSE(r2.varint().ok());
}

TEST(BytesTest, ExternalBuffer) {
  Bytes out;
  ByteWriter w(&out);
  w.put_u32(7);
  EXPECT_EQ(out.size(), 4u);
}

// ------------------------------------------------------------------- rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, StreamsDiffer) {
  Rng a(123, "mapper"), b(123, "reducer");
  bool differs = false;
  for (int i = 0; i < 16 && !differs; ++i) differs = a.next() != b.next();
  EXPECT_TRUE(differs);
}

TEST(RngTest, StreamDerivationAvalanchesOnSeedBits) {
  // Flipping any single seed bit must rewrite the derived stream seed;
  // a linear fold (the pre-hardening XOR) fails this for the bits the
  // name hash happens to cancel.
  const std::uint64_t base = derive_stream_seed(123, "mapper");
  for (int bit = 0; bit < 64; ++bit) {
    EXPECT_NE(base, derive_stream_seed(123 ^ (1ull << bit), "mapper"))
        << "bit " << bit;
  }
}

TEST(RngTest, StreamDerivationHasNoXorStructure) {
  // The old derivation folded the name in with `seed ^ fnv1a(stream)`,
  // so the crafted seed2 = seed1 ^ h(a) ^ h(b) replayed stream `a`'s
  // values on stream `b`. The sequentially-mixed derivation must not.
  const std::uint64_t seed1 = 123;
  const std::uint64_t seed2 = seed1 ^ fnv1a("alpha") ^ fnv1a("beta");
  EXPECT_NE(derive_stream_seed(seed1, "alpha"),
            derive_stream_seed(seed2, "beta"));
  Rng a(seed1, "alpha"), b(seed2, "beta");
  bool differs = false;
  for (int i = 0; i < 16 && !differs; ++i) differs = a.next() != b.next();
  EXPECT_TRUE(differs);
}

TEST(RngTest, SlotSuffixedStreamsDecorrelate) {
  // Worker pools derive per-slot streams ("map.fault.<host>.<slot>");
  // neighbouring suffixes must produce unrelated sequences, or every
  // slot on a host rolls the same fault dice.
  std::set<std::uint64_t> firsts;
  for (int host = 1; host <= 4; ++host) {
    for (int slot = 0; slot < 4; ++slot) {
      Rng rng(1, "map.fault." + std::to_string(host) + "." +
                     std::to_string(slot));
      firsts.insert(rng.next());
    }
  }
  EXPECT_EQ(firsts.size(), 16u);  // all 16 streams open differently
}

TEST(RngTest, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(RngTest, RangeInclusive) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformMeanApproximatelyHalf) {
  Rng rng(11);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, ExponentialMeanMatches) {
  Rng rng(13);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / n, 4.0, 0.1);
}

// ----------------------------------------------------------------- stats

TEST(StatsTest, CounterBasics) {
  MetricsRegistry reg;
  reg.counter("shuffle.bytes").add(100);
  reg.counter("shuffle.bytes").add(50);
  EXPECT_EQ(reg.counter_value("shuffle.bytes"), 150);
  EXPECT_EQ(reg.counter_value("missing"), 0);
}

TEST(StatsTest, GaugeTracksHighWaterMark) {
  MetricsRegistry reg;
  Gauge& g = reg.gauge("cache.used_bytes");
  g.set(100.0);
  g.set(40.0);
  g.add(10.0);
  EXPECT_DOUBLE_EQ(reg.gauge_value("cache.used_bytes"), 50.0);
  EXPECT_DOUBLE_EQ(g.max_value(), 100.0);
}

TEST(StatsTest, FixedHistogramBucketsAndQuantiles) {
  FixedHistogram h({1.0, 10.0, 100.0});
  for (double v : {0.5, 0.7, 5.0, 50.0, 1000.0}) h.record(v);
  EXPECT_EQ(h.count(), 5u);
  ASSERT_EQ(h.counts().size(), 4u);  // three bounds + overflow
  EXPECT_EQ(h.counts()[0], 2u);
  EXPECT_EQ(h.counts()[1], 1u);
  EXPECT_EQ(h.counts()[2], 1u);
  EXPECT_EQ(h.counts()[3], 1u);  // 1000 overflows the last bound
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
  EXPECT_NEAR(h.mean(), (0.5 + 0.7 + 5.0 + 50.0 + 1000.0) / 5.0, 1e-9);
  EXPECT_LE(h.quantile(0.5), h.quantile(0.99));
}

TEST(StatsTest, LatencyHistogramRegistersOnce) {
  MetricsRegistry reg;
  FixedHistogram& h = reg.latency_histogram("rtt");
  h.record(0.01);
  EXPECT_EQ(&reg.latency_histogram("rtt"), &h);
  EXPECT_EQ(reg.find_fixed_histogram("rtt")->count(), 1u);
  const auto& bounds = latency_buckets();
  EXPECT_GE(bounds.size(), 2u);
  EXPECT_TRUE(std::is_sorted(bounds.begin(), bounds.end()));
}

TEST(StatsTest, SnapshotCarriesAllKinds) {
  MetricsRegistry reg;
  reg.counter("c").add(7);
  reg.gauge("g").set(3.5);
  reg.latency_histogram("h").record(2.0);
  reg.latency_histogram("f").record(0.25);
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter("c"), 7);
  EXPECT_EQ(snap.counter("absent"), 0);
  EXPECT_DOUBLE_EQ(snap.gauges.at("g"), 3.5);
  EXPECT_EQ(snap.histograms.at("h").count, 1u);
  EXPECT_EQ(snap.histograms.at("f").count, 1u);
  EXPECT_DOUBLE_EQ(snap.histograms.at("f").mean, 0.25);

  // The JSON form round-trips through the parser.
  const auto parsed = Json::parse(snap.to_json());
  ASSERT_TRUE(parsed.ok());
  const Json* counters = parsed->find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->find("c")->as_int(), 7);
  EXPECT_DOUBLE_EQ(parsed->find("gauges")->find("g")->as_double(), 3.5);
  EXPECT_EQ(
      parsed->find("histograms")->find("h")->find("count")->as_int(), 1);
}

// ----------------------------------------------------------------- json

TEST(JsonTest, BuildAndDump) {
  Json doc = Json::object();
  doc.set("name", Json("smoke"));
  doc.set("n", Json(std::int64_t(3)));
  doc.set("ratio", Json(0.5));
  doc.set("ok", Json(true));
  doc.set("none", Json());
  Json arr = Json::array();
  arr.push_back(Json(std::int64_t(1)));
  arr.push_back(Json("two"));
  doc.set("runs", std::move(arr));
  EXPECT_EQ(doc.dump(),
            "{\"name\":\"smoke\",\"n\":3,\"ratio\":0.5,\"ok\":true,"
            "\"none\":null,\"runs\":[1,\"two\"]}");
}

TEST(JsonTest, ParseRoundTrip) {
  const std::string text =
      "{\"a\":[1,2.5,-3],\"b\":{\"nested\":\"va\\\"lue\"},\"c\":false}";
  const auto parsed = Json::parse(text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->dump(), "{\"a\":[1,2.5,-3],\"b\":{\"nested\":"
                            "\"va\\\"lue\"},\"c\":false}");
  EXPECT_EQ(parsed->find("a")->at(1).as_double(), 2.5);
  EXPECT_EQ(parsed->find("b")->find("nested")->as_string(), "va\"lue");
}

TEST(JsonTest, ParseRejectsMalformed) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "tru", "\"unterminated", "1 2",
        "{\"a\":1,}", "nul"}) {
    EXPECT_FALSE(Json::parse(bad).ok()) << bad;
  }
}

TEST(JsonTest, SetUpsertsAndPreservesOrder) {
  Json doc = Json::object();
  doc.set("z", Json(std::int64_t(1)));
  doc.set("a", Json(std::int64_t(2)));
  doc.set("z", Json(std::int64_t(3)));  // upsert keeps position
  EXPECT_EQ(doc.dump(), "{\"z\":3,\"a\":2}");
  EXPECT_EQ(doc.find("z")->as_int(), 3);
  EXPECT_EQ(doc.find("missing"), nullptr);
}

// ----------------------------------------------------------------- table

TEST(TableTest, AsciiAndCsv) {
  Table t({"Sort Size (GB)", "IPoIB", "OSU-IB"});
  t.add_row({"20", "500.0", "350.0"});
  t.add_row({"40", "900.0", "600.0"});
  const std::string ascii = t.to_ascii();
  EXPECT_NE(ascii.find("Sort Size (GB)"), std::string::npos);
  EXPECT_NE(ascii.find("350.0"), std::string::npos);
  EXPECT_EQ(t.to_csv(),
            "Sort Size (GB),IPoIB,OSU-IB\n20,500.0,350.0\n40,900.0,600.0\n");
}

TEST(TableTest, NumFormatsPrecision) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(10.0), "10.0");
}

// ----------------------------------------------------------------- crc32

TEST(Crc32Test, KnownVectors) {
  // CRC-32C of "123456789" is 0xE3069283 (iSCSI test vector).
  EXPECT_EQ(crc32c(std::string_view("123456789")), 0xE3069283u);
  EXPECT_EQ(crc32c(std::string_view("")), 0u);
}

TEST(Crc32Test, SeedChaining) {
  const std::string all = "hello world";
  const auto direct = crc32c(std::string_view(all));
  // Passing one CRC as the next call's seed continues it: the result is
  // the CRC of the concatenation.
  const auto part = crc32c(std::string_view("hello "), 0);
  const auto chained = crc32c(std::string_view("world"), part);
  EXPECT_EQ(chained, direct);
  EXPECT_NE(direct, 0u);
}

TEST(Crc32Test, SensitiveToSingleBit) {
  Bytes a(64, 0);
  Bytes b = a;
  b[31] ^= 1;
  EXPECT_NE(crc32c(a), crc32c(b));
}

// Byte-at-a-time CRC-32C straight from the polynomial: the definition the
// sliced implementation must reproduce bit for bit.
std::uint32_t crc32c_reference(std::span<const std::uint8_t> data,
                               std::uint32_t seed) {
  std::uint32_t crc = ~seed;
  for (std::uint8_t byte : data) {
    crc ^= byte;
    for (int k = 0; k < 8; ++k) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0x82f63b78u : 0);
    }
  }
  return ~crc;
}

// Both kernels: the dispatched crc32c (SSE4.2 on hosts that have it) and
// the portable slice-by-8 fallback, so the fallback stays covered on
// x86-64 hosts too.
using Crc32Kernel = std::uint32_t (*)(std::span<const std::uint8_t>,
                                      std::uint32_t);
struct NamedKernel {
  const char* name;
  Crc32Kernel fn;
};
const NamedKernel kCrc32Kernels[] = {
    {"dispatched",
     [](std::span<const std::uint8_t> d, std::uint32_t s) {
       return crc32c(d, s);
     }},
    {"portable", detail::crc32c_portable},
};

TEST(Crc32Test, MatchesReferenceAtRandomLengthsOffsetsAndSeeds) {
  for (const auto& kernel : kCrc32Kernels) {
    Rng rng(7, "crc32.reference");
    Bytes buffer(4096 + 16);
    for (auto& byte : buffer) byte = std::uint8_t(rng.next());
    for (int trial = 0; trial < 300; ++trial) {
      const size_t len = rng.below(4097);
      const size_t offset = rng.below(16);  // unaligned starts
      const auto seed = std::uint32_t(rng.next());
      const std::span<const std::uint8_t> view(buffer.data() + offset, len);
      ASSERT_EQ(kernel.fn(view, seed), crc32c_reference(view, seed))
          << kernel.name << " len " << len << " offset " << offset;
    }
  }
}

TEST(Crc32Test, ChainedSeedEqualsWholeBuffer) {
  for (const auto& kernel : kCrc32Kernels) {
    Rng rng(11, "crc32.chain");
    Bytes buffer(1000);
    for (auto& byte : buffer) byte = std::uint8_t(rng.next());
    const std::span<const std::uint8_t> all(buffer);
    for (size_t split : {0, 1, 7, 8, 9, 500, 999, 1000}) {
      const auto head = kernel.fn(all.first(split), 0);
      EXPECT_EQ(kernel.fn(all.subspan(split), head), kernel.fn(all, 0))
          << kernel.name << " split " << split;
    }
  }
}

TEST(Crc32Test, Rfc3720Vectors) {
  // RFC 3720 (iSCSI) appendix B.4, 32-byte inputs.
  Bytes zeros(32, 0x00);
  Bytes ones(32, 0xff);
  Bytes ascending(32);
  Bytes descending(32);
  for (size_t i = 0; i < 32; ++i) {
    ascending[i] = std::uint8_t(i);
    descending[i] = std::uint8_t(31 - i);
  }
  for (const auto& kernel : kCrc32Kernels) {
    EXPECT_EQ(kernel.fn(zeros, 0), 0x8A9136AAu) << kernel.name;
    EXPECT_EQ(kernel.fn(ones, 0), 0x62A8AB43u) << kernel.name;
    EXPECT_EQ(kernel.fn(ascending, 0), 0x46DD794Eu) << kernel.name;
    EXPECT_EQ(kernel.fn(descending, 0), 0x113FDB5Cu) << kernel.name;
  }
}

}  // namespace
}  // namespace hmr
