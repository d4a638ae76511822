// Tests for the serving layer (DESIGN.md §15): wire framing, the JSON
// reader, request routing, the TCP loopback path, and — the load-bearing
// concurrency contract — snapshot-swap determinism: a reader mid-query
// sees the old epoch or the new one, never a mix, proven by the epoch /
// epoch_end pair that brackets every data response.
#include <gtest/gtest.h>

#include <netdb.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <numbers>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "core/pipeline.hpp"
#include "core/propagation.hpp"
#include "io/file.hpp"
#include "io/parse.hpp"
#include "obs/obs.hpp"
#include "serve/json.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "serve/wire.hpp"
#include "spaceweather/dst_index.hpp"
#include "spaceweather/wdc.hpp"
#include "stats/ecdf.hpp"
#include "support/make_tle.hpp"
#include "timeutil/datetime.hpp"
#include "tle/catalog.hpp"
#include "tle/tle.hpp"

namespace cosmicdance {
namespace {

using test_support::make_tle;

// ---- wire framing -----------------------------------------------------------

TEST(ServeWireTest, FrameRoundTripsThroughTheReader) {
  serve::FrameReader reader;
  reader.feed(serve::encode_frame("{\"op\":\"ping\"}"));
  const auto payload = reader.next();
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, "{\"op\":\"ping\"}");
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_EQ(reader.buffered(), 0u);
  EXPECT_FALSE(reader.error());
}

TEST(ServeWireTest, EmptyPayloadFramesAreValid) {
  serve::FrameReader reader;
  reader.feed(serve::encode_frame(""));
  const auto payload = reader.next();
  ASSERT_TRUE(payload.has_value());
  EXPECT_TRUE(payload->empty());
}

TEST(ServeWireTest, PartialReadsReassembleByteByByte) {
  const std::string frame = serve::encode_frame("hello serving world");
  serve::FrameReader reader;
  for (std::size_t i = 0; i + 1 < frame.size(); ++i) {
    reader.feed(std::string_view(frame).substr(i, 1));
    EXPECT_FALSE(reader.next().has_value()) << "frame completed early at " << i;
  }
  reader.feed(std::string_view(frame).substr(frame.size() - 1, 1));
  const auto payload = reader.next();
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, "hello serving world");
}

TEST(ServeWireTest, PipelinedFramesPopInOrder) {
  serve::FrameReader reader;
  reader.feed(serve::encode_frame("first") + serve::encode_frame("second") +
              serve::encode_frame("third"));
  EXPECT_EQ(reader.next().value(), "first");
  EXPECT_EQ(reader.next().value(), "second");
  EXPECT_EQ(reader.next().value(), "third");
  EXPECT_FALSE(reader.next().has_value());
}

TEST(ServeWireTest, OversizedLengthPrefixPoisonsTheReader) {
  serve::FrameReader reader;
  // 0xFFFFFFFF little-endian: far beyond kMaxFrameBytes.
  reader.feed(std::string(4, '\xFF'));
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_TRUE(reader.error());
  // Terminal: even a valid frame afterwards stays unread.
  reader.feed(serve::encode_frame("too late"));
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_TRUE(reader.error());
}

TEST(ServeWireTest, GarbageBytesReadAsAnOversizedPrefix) {
  // Pointing a non-protocol peer (say, an HTTP client) at the socket makes
  // the first 4 bytes a length prefix; "GET " decodes to ~0x20544547,
  // which exceeds the ceiling and poisons the reader instead of blocking
  // forever on a phantom half-gigabyte frame.
  serve::FrameReader reader;
  reader.feed("GET / HTTP/1.1\r\n");
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_TRUE(reader.error());
}

TEST(ServeWireTest, EncodeRejectsOversizedPayloads) {
  EXPECT_THROW(
      static_cast<void>(serve::encode_frame(
          std::string(serve::kMaxFrameBytes + 1, 'x'))),
      ValidationError);
}

// ---- JSON reader ------------------------------------------------------------

TEST(ServeJsonTest, ParsesRequestsAndRejectsGarbage) {
  const auto parsed =
      serve::parse_json("{\"op\":\"sat_series\",\"sat\":42,\"f\":-1.5e3}");
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->kind, serve::JsonValue::Kind::kObject);
  EXPECT_EQ(parsed->find("op")->text, "sat_series");
  EXPECT_EQ(parsed->find("sat")->integer().value(), 42);
  EXPECT_EQ(parsed->find("f")->number().value(), -1500.0);
  EXPECT_EQ(parsed->find("missing"), nullptr);

  EXPECT_FALSE(serve::parse_json("not json").has_value());
  EXPECT_FALSE(serve::parse_json("{\"op\":}").has_value());
  EXPECT_FALSE(serve::parse_json("{} trailing").has_value());
  EXPECT_FALSE(serve::parse_json("{\"a\":1,}").has_value());
  EXPECT_FALSE(serve::parse_json("").has_value());
}

TEST(ServeJsonTest, EscapeRoundTripsThroughTheParser) {
  const std::string raw = "quote \" slash \\ tab \t newline \n ctrl \x01 end";
  const auto parsed =
      serve::parse_json("\"" + serve::escape_json(raw) + "\"");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->text, raw);
}

/// printf's %.17g, the formatter json_number replaced.
std::string printf_g17(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

TEST(ServeJsonTest, NumberTokensAreThePrintfG17Bytes) {
  const double edges[] = {0.0, -0.0, 1.0, -1.0, 0.1, 1e300, -1e300, 5e-324,
                          -5e-324, std::numeric_limits<double>::min(),
                          std::numeric_limits<double>::max(),
                          std::numeric_limits<double>::lowest(),
                          std::numeric_limits<double>::epsilon(), 1e16, 1e17,
                          123456789012345678.0, 2451545.0, -63.0, 97.5};
  for (const double value : edges) {
    EXPECT_EQ(json_number(value), printf_g17(value)) << printf_g17(value);
  }
  EXPECT_EQ(json_number(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_number(-std::numeric_limits<double>::infinity()), "null");

  Rng rng(20240510);
  int mismatches = 0;
  for (int i = 0; i < 1000000; ++i) {
    const double value = std::bit_cast<double>(rng());
    if (!std::isfinite(value)) continue;
    if (json_number(value) != printf_g17(value) && ++mismatches <= 5) {
      ADD_FAILURE() << "json_number differs from %.17g for " << printf_g17(value)
                    << ": " << json_number(value);
    }
  }
  EXPECT_EQ(mismatches, 0);
}

// ---- service fixtures -------------------------------------------------------

/// An in-memory pipeline: 12 days of Dst with one clear storm and a single
/// satellite whose track holds exactly `samples` benign element sets.
core::CosmicDance make_pipeline(std::size_t samples) {
  std::vector<double> values;
  for (int h = 0; h < 12 * 24; ++h) {
    const bool storm = h >= 100 && h < 110;
    values.push_back(storm ? -80.0 : -12.0);
  }
  spaceweather::DstIndex dst(timeutil::make_datetime(2024, 5, 1),
                             std::move(values));
  tle::TleCatalog catalog;
  for (std::size_t i = 0; i < samples; ++i) {
    catalog.add(make_tle(501, 0.5 * static_cast<double>(i)));
  }
  core::PipelineConfig config;
  config.num_threads = 1;
  return core::CosmicDance(std::move(dst), std::move(catalog), config);
}

/// Parse a response and return the object (asserts well-formed JSON — every
/// service response must parse, including errors).
serve::JsonValue response_json(const std::string& response) {
  const auto parsed = serve::parse_json(response);
  EXPECT_TRUE(parsed.has_value()) << "unparseable response: " << response;
  return parsed.value_or(serve::JsonValue{});
}

long integer_field(const serve::JsonValue& object, const std::string& key) {
  const serve::JsonValue* value = object.find(key);
  if (value == nullptr) return -1;
  return value->integer().value_or(-1);
}

bool ok_field(const serve::JsonValue& object) {
  const serve::JsonValue* value = object.find("ok");
  return value != nullptr && value->kind == serve::JsonValue::Kind::kBool &&
         value->boolean;
}

// ---- request routing --------------------------------------------------------

TEST(ServeServiceTest, RoutesEveryOpAndCountsRequests) {
  obs::Metrics metrics;
  serve::Service service(make_pipeline(10), [] { return make_pipeline(10); },
                         &metrics);

  for (const char* op : {"ping", "stats", "sat_series", "storm_summary",
                         "envelope_cdf", "quality_report", "metrics"}) {
    const auto result =
        service.handle(std::string("{\"op\":\"") + op + "\"}");
    EXPECT_FALSE(result.shutdown);
    const serve::JsonValue body = response_json(result.response);
    EXPECT_TRUE(ok_field(body)) << op << " -> " << result.response;
  }

  const serve::JsonValue stats =
      response_json(service.handle("{\"op\":\"stats\"}").response);
  EXPECT_EQ(integer_field(stats, "satellites"), 1);
  EXPECT_EQ(integer_field(stats, "tles"), 10);
  EXPECT_EQ(integer_field(stats, "epoch"), 1);
  EXPECT_EQ(integer_field(stats, "epoch_end"), 1);

  const serve::JsonValue series =
      response_json(service.handle("{\"op\":\"sat_series\"}").response);
  EXPECT_EQ(integer_field(series, "sat"), 501);
  EXPECT_EQ(integer_field(series, "samples"), 10);

  const obs::MetricsReport report = metrics.snapshot();
  EXPECT_EQ(report.counters.at("serve.requests"), 9u);
  EXPECT_EQ(report.counters.count("serve.errors"), 1u);
  EXPECT_EQ(report.counters.at("serve.errors"), 0u);
}

TEST(ServeServiceTest, BadRequestsGetErrorResponsesNotCrashes) {
  obs::Metrics metrics;
  serve::Service service(make_pipeline(5), [] { return make_pipeline(5); },
                         &metrics);

  const char* bad_requests[] = {
      "not json at all",
      "",
      "[1,2,3]",
      "{\"no_op\":true}",
      "{\"op\":42}",
      "{\"op\":\"no_such_op\"}",
      "{\"op\":\"sat_series\",\"sat\":99999}",
      "{\"op\":\"sat_series\",\"sat\":\"x\"}",
      "{\"op\":\"sat_series\",\"max_samples\":1}",
      "{\"op\":\"envelope_cdf\",\"percentile\":150}",
      "{\"op\":\"envelope_cdf\",\"points\":0}",
      "{\"op\":\"storm_summary\",\"threshold\":\"deep\"}",
  };
  for (const char* request : bad_requests) {
    const auto result = service.handle(request);
    EXPECT_FALSE(result.shutdown);
    const serve::JsonValue body = response_json(result.response);
    EXPECT_FALSE(ok_field(body)) << request << " -> " << result.response;
    EXPECT_NE(body.find("error"), nullptr);
  }
  const obs::MetricsReport report = metrics.snapshot();
  EXPECT_EQ(report.counters.at("serve.errors"),
            static_cast<std::uint64_t>(std::size(bad_requests)));
}

TEST(ServeServiceTest, PropagateRejectsIdsOutsideIntRange) {
  // 2^32 + 501 and 501 - 2^32 both narrow to satellite 501 as an int; they
  // name no satellite, so they get the unknown-satellite error.
  serve::Service service(make_pipeline(5), {});
  for (const char* sat : {"4294967797", "-4294966795", "2147483648",
                          "-2147483649"}) {
    const serve::JsonValue body = response_json(
        service
            .handle(std::string("{\"op\":\"propagate\",\"sat\":") + sat + "}")
            .response);
    EXPECT_FALSE(ok_field(body)) << sat;
    ASSERT_NE(body.find("error"), nullptr) << sat;
    EXPECT_EQ(body.find("error")->text, std::string("unknown satellite ") + sat);
  }
  for (const char* request : {"{\"op\":\"propagate\",\"sat\":501}",
                              "{\"op\":\"propagate\",\"sat\":0}",
                              "{\"op\":\"propagate\"}"}) {
    const serve::JsonValue body =
        response_json(service.handle(request).response);
    EXPECT_TRUE(ok_field(body)) << request;
    EXPECT_EQ(integer_field(body, "sat"), 501) << request;
  }
}

TEST(ServeServiceTest, SatSeriesThinsWithMaxSamples) {
  serve::Service service(make_pipeline(40), {});
  const serve::JsonValue thinned = response_json(
      service.handle("{\"op\":\"sat_series\",\"max_samples\":8}").response);
  EXPECT_TRUE(ok_field(thinned));
  EXPECT_LE(integer_field(thinned, "samples"), 9);
  EXPECT_GE(integer_field(thinned, "samples"), 8);
  EXPECT_EQ(integer_field(thinned, "track_samples"), 40);
  // The thinned series still ends at the track's last epoch.
  const serve::JsonValue* epochs = thinned.find("epoch_jd");
  ASSERT_NE(epochs, nullptr);
  const serve::JsonValue full = response_json(
      service.handle("{\"op\":\"sat_series\"}").response);
  EXPECT_EQ(epochs->items.back().text,
            full.find("epoch_jd")->items.back().text);
}

TEST(ServeServiceTest, ReloadSwapsTheEpochAndFailuresKeepTheOldOne) {
  obs::Metrics metrics;
  std::atomic<bool> fail{false};
  serve::Service service(make_pipeline(10),
                         [&]() -> core::CosmicDance {
                           if (fail.load()) throw ValidationError("boom");
                           return make_pipeline(10);
                         },
                         &metrics);

  const serve::JsonValue reloaded =
      response_json(service.handle("{\"op\":\"reload\"}").response);
  EXPECT_TRUE(ok_field(reloaded));
  EXPECT_EQ(integer_field(reloaded, "epoch"), 2);

  fail.store(true);
  const serve::JsonValue failed =
      response_json(service.handle("{\"op\":\"reload\"}").response);
  EXPECT_FALSE(ok_field(failed));
  // The old snapshot keeps serving.
  const serve::JsonValue ping =
      response_json(service.handle("{\"op\":\"ping\"}").response);
  EXPECT_TRUE(ok_field(ping));
  EXPECT_EQ(integer_field(ping, "epoch"), 2);

  const obs::MetricsReport report = metrics.snapshot();
  EXPECT_EQ(report.counters.at("serve.reloads"), 1u);
  EXPECT_EQ(report.counters.at("serve.errors"), 1u);
}

TEST(ServeServiceTest, ShutdownOpRequestsShutdown) {
  serve::Service service(make_pipeline(5), {});
  const auto result = service.handle("{\"op\":\"shutdown\"}");
  EXPECT_TRUE(result.shutdown);
  EXPECT_TRUE(ok_field(response_json(result.response)));
  // Reload without a rebuild callback is an error, not a crash.
  const auto reload = service.handle("{\"op\":\"reload\"}");
  EXPECT_FALSE(ok_field(response_json(reload.response)));
}

TEST(ServeJsonTest, NestingPastTheDepthBoundIsRejected) {
  // The reader recurses once per array or object, so a frame of a million
  // '[' used to overflow the connection thread's stack and end the daemon.
  const std::string deep(1000000, '[');
  EXPECT_FALSE(serve::parse_json(deep).has_value());
  const auto arrays = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  const auto objects = [](std::size_t depth) {
    std::string text;
    for (std::size_t i = 0; i < depth; ++i) text += "{\"a\":";
    return text + "1" + std::string(depth, '}');
  };
  EXPECT_TRUE(serve::parse_json(arrays(serve::kMaxJsonDepth)).has_value());
  EXPECT_TRUE(serve::parse_json(objects(serve::kMaxJsonDepth)).has_value());
  EXPECT_FALSE(serve::parse_json(arrays(serve::kMaxJsonDepth + 1)).has_value());
  EXPECT_FALSE(
      serve::parse_json(objects(serve::kMaxJsonDepth + 1)).has_value());
  EXPECT_FALSE(serve::parse_json(arrays(1000000)).has_value());

  // The daemon answers such a frame with an error and goes on serving.
  obs::Metrics metrics;
  serve::Service service(make_pipeline(5), {}, &metrics);
  const auto result = service.handle(deep);
  EXPECT_FALSE(result.shutdown);
  const serve::JsonValue body = response_json(result.response);
  EXPECT_FALSE(ok_field(body)) << result.response;
  EXPECT_NE(body.find("error"), nullptr);
  EXPECT_TRUE(ok_field(
      response_json(service.handle("{\"op\":\"ping\"}").response)));
  EXPECT_EQ(metrics.snapshot().counters.at("serve.errors"), 1u);
}

TEST(ServeServiceTest, ResponsesPastTheFrameLimitBecomeErrors) {
  // A tolerant run over a catalog with 64,000 bad checksums quarantines
  // every one of them, and the quality_report response outgrows the 16 MiB
  // frame ceiling.  encode_frame refuses such a payload, and the throw used
  // to end the daemon from its connection thread; the service now answers
  // an error the wire can frame, and goes on serving.
  const std::string dir = ::testing::TempDir() + "cd_serve_oversized_" +
                          std::to_string(static_cast<long>(getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  io::write_file(dir + "/dst.wdc",
                 spaceweather::to_wdc(spaceweather::DstIndex(
                     timeutil::make_datetime(2024, 5, 1),
                     std::vector<double>(5 * 24, -20.0))));
  std::string tles;
  for (int i = 0; i < 10; ++i) {
    const tle::TleLines lines = tle::format_tle(make_tle(501, 0.4 * i));
    tles += lines.line1 + "\n" + lines.line2 + "\n";
  }
  for (int i = 0; i < 64000; ++i) {
    tle::TleLines lines = tle::format_tle(make_tle(1000 + i, 1.0));
    lines.line1.back() = lines.line1.back() == '0' ? '1' : '0';
    tles += lines.line1 + "\n" + lines.line2 + "\n";
  }
  io::write_file(dir + "/catalog.tle", tles);
  core::PipelineConfig config;
  config.parse_policy = diag::ParsePolicy::kTolerant;
  config.num_threads = 2;
  core::CosmicDance pipeline = core::CosmicDance::from_files(
      dir + "/dst.wdc", dir + "/catalog.tle", config);
  ASSERT_EQ(pipeline.quality_report().quarantined.size(), 64000u);
  ASSERT_GT(pipeline.quality_report().to_json().size(), serve::kMaxFrameBytes);

  obs::Metrics metrics;
  serve::Service service(std::move(pipeline), {}, &metrics);
  const auto result = service.handle("{\"op\":\"quality_report\"}");
  EXPECT_FALSE(result.shutdown);
  EXPECT_NO_THROW(static_cast<void>(serve::encode_frame(result.response)));
  const serve::JsonValue body = response_json(result.response);
  EXPECT_FALSE(ok_field(body));
  ASSERT_NE(body.find("error"), nullptr);
  EXPECT_NE(body.find("error")->text.find("exceeds the frame limit"),
            std::string::npos)
      << body.find("error")->text;
  EXPECT_EQ(metrics.snapshot().counters.at("serve.errors"), 1u);
  EXPECT_TRUE(ok_field(
      response_json(service.handle("{\"op\":\"ping\"}").response)));
  std::filesystem::remove_all(dir);
}

// ---- per-epoch results --------------------------------------------------------

/// 120 days of Dst with six storms of different peaks, and `satellites`
/// tracks (catalog numbers from `first_number`) whose altitude dips after
/// each storm by an amount that grows with the storm's peak and differs per
/// satellite.  The storm detector (-50 nT) sees all six.
core::CosmicDance storm_pipeline(int satellites, int first_number, int threads,
                                 obs::Metrics* metrics = nullptr) {
  struct Storm {
    int peak_hour;
    int half_width_hours;
    double peak_nt;
  };
  const Storm storms[] = {{12 * 24, 6, -62.0},  {30 * 24, 9, -95.0},
                          {48 * 24, 7, -140.0}, {66 * 24, 10, -230.0},
                          {84 * 24, 8, -330.0}, {100 * 24, 5, -75.0}};
  constexpr int kDays = 120;
  std::vector<double> values;
  for (int h = 0; h < kDays * 24; ++h) {
    double value = -12.0 + 8.0 * std::sin(h / 17.0);
    for (const Storm& storm : storms) {
      const int from_peak = std::abs(h - storm.peak_hour);
      if (from_peak <= storm.half_width_hours) {
        value = std::min(value, storm.peak_nt * (1.0 - 0.5 * from_peak /
                                                           storm.half_width_hours));
      }
    }
    values.push_back(value);
  }
  spaceweather::DstIndex dst(timeutil::make_datetime(2024, 5, 1),
                             std::move(values));

  tle::TleCatalog catalog;
  for (int s = 0; s < satellites; ++s) {
    const int number = first_number + s;
    const double scale = 1.0 + 0.07 * (number % 13);
    for (int i = 0; i < 2 * kDays; ++i) {
      const double day = 0.5 * i + 0.05 * s;
      double dip_km = 0.05 * std::sin(1.7 * i + s);  // tracker noise
      for (const Storm& storm : storms) {
        const double since = day - storm.peak_hour / 24.0;
        if (since > 0.0 && since < 10.0) {
          dip_km += std::fabs(storm.peak_nt) / 40.0 * scale *
                    std::sin(std::numbers::pi * since / 10.0);
        }
      }
      tle::Tle record = make_tle(number, day);
      // About 0.0033 rev/day more per km lower near 550 km.
      record.mean_motion_revday = 15.05 + 0.0033 * dip_km;
      catalog.add(record);
    }
  }
  core::PipelineConfig config;
  config.num_threads = threads;
  config.metrics = metrics;
  return core::CosmicDance(std::move(dst), std::move(catalog), config);
}

serve::JsonValue handle_json(serve::Service& service, const std::string& request) {
  return response_json(service.handle(request).response);
}

/// Every envelope_cdf and decay_summary answer of the serving epoch must
/// equal, token for token, what the pipeline's uncached paths give.
void expect_answers_match_the_pipeline(serve::Service& service) {
  const std::shared_ptr<const serve::ServeSnapshot> snap = service.snapshot();
  const core::CosmicDance& pipeline = snap->pipeline;
  // The fixture must make the storm subsets differ.
  std::set<std::size_t> subset_sizes;

  for (const double percentile : {0.0, 50.0, 80.0, 95.0, 97.5, 99.0, 100.0}) {
    const double threshold = pipeline.dst_threshold_at_percentile(percentile);
    const std::vector<double> changes =
        pipeline.altitude_changes_for_storms(threshold);
    subset_sizes.insert(changes.size());
    for (const int points : {2, 7, 64}) {
      const std::string request =
          "{\"op\":\"envelope_cdf\",\"percentile\":" +
          json_number(percentile) + ",\"points\":" + std::to_string(points) +
          "}";
      const serve::JsonValue body = handle_json(service, request);
      ASSERT_TRUE(ok_field(body)) << request;
      EXPECT_EQ(integer_field(body, "epoch"), static_cast<long>(snap->epoch));
      EXPECT_EQ(body.find("threshold_nt")->text, json_number(threshold))
          << request;
      EXPECT_EQ(integer_field(body, "samples"),
                static_cast<long>(changes.size()))
          << request;
      std::vector<std::string> expected;
      if (!changes.empty()) {
        for (const auto& [x, f] :
             stats::Ecdf(changes).points(static_cast<std::size_t>(points))) {
          expected.push_back(json_number(x));
          expected.push_back(json_number(f));
        }
      }
      std::vector<std::string> actual;
      for (const serve::JsonValue& step : body.find("cdf")->items) {
        for (const serve::JsonValue& token : step.items) {
          actual.push_back(token.text);
        }
      }
      EXPECT_EQ(actual, expected) << request;
    }
  }
  EXPECT_GE(subset_sizes.size(), 3u);

  const tle::TleCatalog& catalog = pipeline.catalog();
  for (const int days : {1, 7, 30}) {
    for (const int step_hours : {6, 24}) {
      core::PropagationOptions options;
      options.start_jd = catalog.last_epoch_jd();
      options.end_jd = options.start_jd + days;
      options.step_hours = step_hours;
      options.num_threads = pipeline.config().num_threads;
      const core::PropagationReport report =
          core::propagate_catalog(catalog, options);
      const std::string request =
          "{\"op\":\"decay_summary\",\"days\":" + std::to_string(days) +
          ",\"step_hours\":" + std::to_string(step_hours) + "}";
      const serve::JsonValue body = handle_json(service, request);
      ASSERT_TRUE(ok_field(body)) << request;
      EXPECT_EQ(integer_field(body, "satellites"),
                static_cast<long>(report.series.size()));
      EXPECT_EQ(integer_field(body, "samples"),
                static_cast<long>(report.epochs_jd.size()));
      EXPECT_EQ(integer_field(body, "init_failures"),
                static_cast<long>(report.init_failures.size()));
      EXPECT_EQ(integer_field(body, "cells_ok"),
                static_cast<long>(report.ok_cells));
      EXPECT_EQ(integer_field(body, "cells_decayed"),
                static_cast<long>(report.decayed_cells));
      EXPECT_EQ(integer_field(body, "cells_error"),
                static_cast<long>(report.error_cells));
      std::vector<std::string> expected;
      for (const core::PropagationSeries* series :
           core::fastest_decaying(report, 10)) {
        expected.push_back(std::to_string(series->catalog_number));
        expected.push_back(json_number(series->decay_rate_km_per_day));
        expected.push_back(json_number(series->first_altitude_km));
        expected.push_back(json_number(series->last_altitude_km));
        expected.push_back(series->decayed ? "true" : "false");
      }
      std::vector<std::string> actual;
      for (const serve::JsonValue& row : body.find("fastest_decaying")->items) {
        for (const char* key : {"sat", "decay_rate_km_per_day",
                                "first_altitude_km", "last_altitude_km"}) {
          actual.push_back(row.find(key)->text);
        }
        actual.push_back(row.find("decayed")->boolean ? "true" : "false");
      }
      EXPECT_FALSE(expected.empty()) << request;
      EXPECT_EQ(actual, expected) << request;
    }
  }
}

class ServeMemoTest : public ::testing::TestWithParam<int> {};

TEST_P(ServeMemoTest, AnswersEqualTheUncachedPathsAcrossAReload) {
  const int threads = GetParam();
  serve::Service service(storm_pipeline(6, 700, threads),
                         [threads] { return storm_pipeline(4, 806, threads); });
  expect_answers_match_the_pipeline(service);
  ASSERT_EQ(service.reload(), 2u);
  ASSERT_EQ(service.snapshot()->pipeline.catalog().satellites().front(), 806);
  expect_answers_match_the_pipeline(service);
}

INSTANTIATE_TEST_SUITE_P(Threads, ServeMemoTest, ::testing::Values(1, 4));

TEST(ServePrecomputeTest, RequestsAddNoCorrelatorWork) {
  // The correlator scans run once per epoch, in serve.precompute; no
  // envelope_cdf or decay_summary adds a correlator cell or scan.
  obs::Metrics metrics;
  serve::Service service(
      storm_pipeline(6, 700, 4, &metrics),
      [&metrics] { return storm_pipeline(6, 700, 4, &metrics); }, &metrics);
  const auto phase_calls = [&metrics](const char* name) -> std::uint64_t {
    const obs::MetricsReport report = metrics.snapshot();
    const auto phase = report.phases.find(name);
    return phase == report.phases.end() ? 0 : phase->second.calls;
  };
  const auto correlator_work = [&metrics, &phase_calls] {
    const obs::MetricsReport report = metrics.snapshot();
    const auto cells = report.counters.find("correlator.cells");
    return std::pair(cells == report.counters.end() ? 0 : cells->second,
                     phase_calls("correlator.altitude_scan"));
  };
  const auto precompute_calls = [&phase_calls] {
    return phase_calls("serve.precompute");
  };
  const auto before = correlator_work();
  EXPECT_GT(before.first, 0u);
  EXPECT_EQ(precompute_calls(), 1u);

  const double percentiles[] = {0.0, 10.0, 50.0, 80.0, 90.0,
                                95.0, 97.5, 99.0, 99.9, 100.0};
  for (int i = 0; i < 200; ++i) {
    const std::string request =
        "{\"op\":\"envelope_cdf\",\"percentile\":" +
        json_number(percentiles[i % std::size(percentiles)]) + "}";
    EXPECT_TRUE(ok_field(handle_json(service, request))) << request;
  }
  for (int i = 0; i < 20; ++i) {
    const std::string request = "{\"op\":\"decay_summary\",\"days\":" +
                                std::to_string(1 + i % 7) + "}";
    EXPECT_TRUE(ok_field(handle_json(service, request))) << request;
  }
  EXPECT_EQ(correlator_work(), before);
  EXPECT_EQ(precompute_calls(), 1u);

  ASSERT_EQ(service.reload(), 2u);
  EXPECT_EQ(precompute_calls(), 2u);
  const auto after_reload = correlator_work();
  EXPECT_EQ(after_reload.first, 2 * before.first);
  EXPECT_TRUE(ok_field(handle_json(service, "{\"op\":\"envelope_cdf\"}")));
  EXPECT_EQ(correlator_work(), after_reload);
}

// ---- snapshot-swap determinism ----------------------------------------------

TEST(ServeSwapTest, ReadersSeeWholeEpochsNeverAMix) {
  // Epoch 1 serves the 10-sample catalog; every reload alternates to 20
  // and back.  Concurrent readers hammer sat_series while the main thread
  // swaps; every response must be internally consistent — epoch==epoch_end
  // and the sample count that belongs to that epoch — even when the swap
  // lands mid-query.
  std::atomic<int> rebuilds{0};
  serve::Service service(make_pipeline(10), [&] {
    const int n = rebuilds.fetch_add(1) + 1;
    return make_pipeline(n % 2 == 1 ? 20 : 10);
  });

  constexpr int kReaders = 4;
  constexpr int kQueriesPerReader = 150;
  std::atomic<int> inconsistencies{0};
  std::atomic<bool> start{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      while (!start.load()) {
      }
      for (int i = 0; i < kQueriesPerReader; ++i) {
        const auto result = service.handle("{\"op\":\"sat_series\"}");
        const auto parsed = serve::parse_json(result.response);
        if (!parsed.has_value()) {
          inconsistencies.fetch_add(1);
          continue;
        }
        const long epoch = integer_field(*parsed, "epoch");
        const long epoch_end = integer_field(*parsed, "epoch_end");
        const long samples = integer_field(*parsed, "samples");
        const long expected = epoch % 2 == 1 ? 10 : 20;
        if (!ok_field(*parsed) || epoch != epoch_end ||
            samples != expected) {
          inconsistencies.fetch_add(1);
        }
      }
    });
  }
  start.store(true);
  for (int swap = 0; swap < 20; ++swap) {
    service.reload();
  }
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(inconsistencies.load(), 0);
  EXPECT_GE(service.snapshot()->epoch, 21u);
}

// ---- TCP loopback -----------------------------------------------------------

TEST(ServeServerTest, LoopbackRoundTripsEveryOp) {
  serve::Service service(make_pipeline(10), [] { return make_pipeline(10); });
  serve::Server server(service, "127.0.0.1", 0);
  server.start();
  ASSERT_GT(server.port(), 0);

  serve::Client client("127.0.0.1", server.port());
  for (const char* op : {"ping", "stats", "sat_series", "storm_summary",
                         "envelope_cdf", "quality_report", "reload"}) {
    const std::string response =
        client.request(std::string("{\"op\":\"") + op + "\"}");
    EXPECT_TRUE(ok_field(response_json(response))) << op << " -> " << response;
  }

  // A garbage payload is an error response, not a dropped connection: the
  // same client keeps working afterwards.
  EXPECT_FALSE(ok_field(response_json(client.request("garbage"))));
  EXPECT_TRUE(ok_field(response_json(client.request("{\"op\":\"ping\"}"))));

  server.shutdown();
}

TEST(ServeServerTest, FramingViolationGetsOneErrorFrameThenClose) {
  serve::Service service(make_pipeline(5), {});
  serve::Server server(service, "127.0.0.1", 0);
  server.start();

  // Raw socket: speak garbage at the framing layer (huge length prefix).
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* addrs = nullptr;
  ASSERT_EQ(::getaddrinfo("127.0.0.1",
                          std::to_string(server.port()).c_str(), &hints,
                          &addrs),
            0);
  const int fd = ::socket(addrs->ai_family, addrs->ai_socktype,
                          addrs->ai_protocol);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::connect(fd, addrs->ai_addr, addrs->ai_addrlen), 0);
  ::freeaddrinfo(addrs);

  const std::string garbage(8, '\xFF');
  ASSERT_EQ(::send(fd, garbage.data(), garbage.size(), 0),
            static_cast<ssize_t>(garbage.size()));

  // The server answers with exactly one framed error payload, then closes.
  serve::FrameReader reader;
  char buffer[1024];
  std::optional<std::string> payload;
  bool closed = false;
  while (!payload.has_value() || !closed) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) {
      closed = true;
      break;
    }
    reader.feed(std::string_view(buffer, static_cast<std::size_t>(n)));
    if (!payload.has_value()) payload = reader.next();
  }
  ::close(fd);
  ASSERT_TRUE(payload.has_value()) << "no error frame before close";
  const serve::JsonValue body = response_json(*payload);
  EXPECT_FALSE(ok_field(body));
  EXPECT_TRUE(closed);

  server.shutdown();
}

TEST(ServeServerTest, ShutdownOpUnblocksWaitAndJoinsCleanly) {
  serve::Service service(make_pipeline(5), {});
  serve::Server server(service, "127.0.0.1", 0);
  server.start();

  std::thread waiter([&] { server.wait(); });
  {
    serve::Client client("127.0.0.1", server.port());
    EXPECT_TRUE(
        ok_field(response_json(client.request("{\"op\":\"shutdown\"}"))));
  }
  waiter.join();  // wait() must return once the shutdown op lands
  server.shutdown();
}

TEST(ServeServerTest, ConcurrentClientsOverTcpStayConsistent) {
  std::atomic<int> rebuilds{0};
  serve::Service service(make_pipeline(10), [&] {
    const int n = rebuilds.fetch_add(1) + 1;
    return make_pipeline(n % 2 == 1 ? 20 : 10);
  });
  serve::Server server(service, "127.0.0.1", 0);
  server.start();

  constexpr int kClients = 4;
  constexpr int kQueriesPerClient = 50;
  std::atomic<int> inconsistencies{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      serve::Client client("127.0.0.1", server.port());
      for (int i = 0; i < kQueriesPerClient; ++i) {
        const auto parsed =
            serve::parse_json(client.request("{\"op\":\"sat_series\"}"));
        if (!parsed.has_value()) {
          inconsistencies.fetch_add(1);
          continue;
        }
        const long epoch = integer_field(*parsed, "epoch");
        const long samples = integer_field(*parsed, "samples");
        if (!ok_field(*parsed) ||
            epoch != integer_field(*parsed, "epoch_end") ||
            samples != (epoch % 2 == 1 ? 10 : 20)) {
          inconsistencies.fetch_add(1);
        }
      }
    });
  }
  serve::Client reloader("127.0.0.1", server.port());
  for (int swap = 0; swap < 10; ++swap) {
    EXPECT_TRUE(
        ok_field(response_json(reloader.request("{\"op\":\"reload\"}"))));
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(inconsistencies.load(), 0);
  server.shutdown();
}

// ---- connection churn ---------------------------------------------------------

/// This process's VmSize in kB, or -1 when /proc has no such line.
long vm_size_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) {
      return io::parse_leading_long(std::string_view(line).substr(7)).value_or(-1);
    }
  }
  return -1;
}

std::size_t task_count() {
  return static_cast<std::size_t>(
      std::distance(std::filesystem::directory_iterator("/proc/self/task"),
                    std::filesystem::directory_iterator{}));
}

TEST(ServeSoakTest, ConnectionChurnKeepsThreadsAndAddressSpaceFlat) {
  // A long-lived daemon sees an unbounded number of connections.  Each
  // one-shot connection used to get its own thread, whose 8 MB stack stayed
  // mapped until shutdown, so VmSize grew without bound and the daemon
  // died once the kernel's map count ran out.  The connection workers
  // must keep the thread count and the address space flat while every op
  // and periodic reloads keep answering whole epochs.
  obs::Metrics metrics;
  serve::Service service(make_pipeline(10), [] { return make_pipeline(10); },
                         &metrics);
  serve::Server server(service, "127.0.0.1", 0);
  server.start();

  const char* const ops[] = {"ping",          "stats",          "sat_series",
                             "storm_summary", "envelope_cdf",   "propagate",
                             "decay_summary", "quality_report", "metrics"};
  int bad_responses = 0;
  int requests = 0;
  const auto churn = [&](int connections) {
    for (int i = 0; i < connections; ++i) {
      const bool reload = ++requests % 1000 == 0;
      const std::string op = reload ? "reload" : ops[requests % std::size(ops)];
      serve::Client client("127.0.0.1", server.port());
      const auto parsed =
          serve::parse_json(client.request("{\"op\":\"" + op + "\"}"));
      const bool whole =
          parsed.has_value() && ok_field(*parsed) &&
          (parsed->find("epoch") == nullptr ||
           integer_field(*parsed, "epoch") == integer_field(*parsed, "epoch_end"));
      if (!whole) ++bad_responses;
    }
  };

  // Warm-up: hold kConnectionWorkers connections open at once so every
  // worker the server may ever start has started and allocated, then run
  // the rest of the first 1,000 connections one at a time.
  {
    std::deque<serve::Client> held;
    for (std::size_t i = 0; i < serve::Server::kConnectionWorkers; ++i) {
      held.emplace_back("127.0.0.1", server.port());
    }
    for (serve::Client& client : held) {
      ++requests;
      if (!ok_field(response_json(client.request("{\"op\":\"stats\"}")))) {
        ++bad_responses;
      }
    }
  }
  churn(1000 - static_cast<int>(serve::Server::kConnectionWorkers));
  const long vm_before_kb = vm_size_kb();
  const std::size_t tasks_before = task_count();
  ASSERT_GT(vm_before_kb, 0);
  churn(10000);
  const long vm_after_kb = vm_size_kb();
  const std::size_t tasks_after = task_count();
  server.shutdown();

  EXPECT_EQ(bad_responses, 0);
  EXPECT_EQ(metrics.snapshot().counters.at("serve.requests"), 11000u);
  EXPECT_EQ(metrics.snapshot().counters.at("serve.reloads"), 11u);
  EXPECT_EQ(service.snapshot()->epoch, 12u);
  EXPECT_EQ(tasks_after, tasks_before);
  EXPECT_LE(vm_after_kb - vm_before_kb, 64L * 1024)
      << "VmSize grew from " << vm_before_kb << " kB to " << vm_after_kb
      << " kB over 10,000 connections";
}

}  // namespace
}  // namespace cosmicdance
