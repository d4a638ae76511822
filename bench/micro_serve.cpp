// Load generator for the serving daemon (DESIGN.md §15): an in-process
// serve::Server over the bench dataset, hammered by concurrent TCP clients
// with the real query mix while one reload swaps the snapshot mid-load.
//
// Every response is validated: "ok" must be true and the leading "epoch"
// must equal the trailing "epoch_end" — the wire-visible proof that the
// atomic snapshot swap never tears an in-flight response.  Each client sends
// at least --requests requests and keeps sending until one of its requests
// went out after the reload was answered, so the swap always lands under
// load however fast the host serves; a request sent after that answer must
// come back from the new epoch.  Any violation is fatal (exit 1), so the
// bench doubles as a concurrency regression check.
//
//   ./micro_serve [--clients N] [--requests N] [--threads N] [--bench-out F]
//
// Default output: BENCH_serve.json in the working directory, carrying
// queries_per_s, tail latency and responses_after_swap (responses served
// by the reloaded epoch) in "throughput" and the daemon's metrics registry
// (serve.requests / serve.errors / serve.reloads) in "metrics"; tier-1
// asserts on both.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/pipeline.hpp"
#include "io/parse.hpp"
#include "serve/server.hpp"
#include "spaceweather/wdc.hpp"
#include "tle/catalog.hpp"

namespace {

using namespace cosmicdance;

struct BenchDataset {
  std::string dst_path;
  std::string tle_path;
};

/// The bench inputs, in this run's own directory (removed at exit).
BenchDataset write_dataset() {
  static const bench::RunDir run_dir("cd_micro_serve");
  const std::string& dir = run_dir.path();
  const spaceweather::DstIndex dst = bench::paper_dst();
  const tle::TleCatalog catalog = bench::paper_catalog(dst, 2, 30.0);
  BenchDataset data{dir + "/dst.wdc", dir + "/catalog.tle"};
  spaceweather::write_wdc_file(data.dst_path, dst);
  io::write_file(data.tle_path, catalog.to_text());
  return data;
}

/// The serving query mix.  envelope_cdf filters and sorts the epoch's
/// precomputed storm samples (DESIGN.md §15), still the costliest read
/// here, so it appears once per rotation — expensive queries should be in
/// the mix, not dominate it.
const char* query_for(std::size_t index) {
  static const char* const kQueries[] = {
      "{\"op\":\"ping\"}",
      "{\"op\":\"stats\"}",
      "{\"op\":\"sat_series\",\"max_samples\":128}",
      "{\"op\":\"storm_summary\"}",
      "{\"op\":\"ping\"}",
      "{\"op\":\"stats\"}",
      "{\"op\":\"sat_series\",\"max_samples\":128}",
      "{\"op\":\"envelope_cdf\",\"points\":16}",
  };
  return kQueries[index % (sizeof(kQueries) / sizeof(kQueries[0]))];
}

/// Extract the integer after `"key":` — the responses are builder-generated
/// so a plain scan is reliable.  Returns -1 when absent.
long field_value(const std::string& response, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = response.find(needle);
  if (at == std::string::npos) return -1;
  const auto parsed = io::parse_leading_long(
      std::string_view(response).substr(at + needle.size()));
  return parsed.value_or(-1);
}

struct ClientStats {
  std::vector<double> latencies_us;
  std::size_t errors = 0;        ///< "ok":false responses
  std::size_t torn_epochs = 0;   ///< epoch != epoch_end — must stay zero
  std::size_t stale_epochs = 0;  ///< old epoch after the reload's answer
  std::size_t after_swap = 0;    ///< responses from the reloaded epoch
};

/// `reloaded_epoch` is the reload's outcome as the clients see it: 0
/// while it is in flight, then the new epoch, or -1 when it failed.
ClientStats run_client(const std::string& host, std::uint16_t port,
                       std::size_t requests, std::size_t offset,
                       const std::atomic<long>& reloaded_epoch) {
  ClientStats stats;
  stats.latencies_us.reserve(requests);
  serve::Client client(host, port);
  bool sent_after_answer = false;
  for (std::size_t i = 0;; ++i) {
    // Read before sending: a request sent once the reload was answered
    // must be served by the new epoch.
    const long answered_epoch = reloaded_epoch.load();
    if (i >= requests && (sent_after_answer || answered_epoch < 0)) break;
    const auto begin = std::chrono::steady_clock::now();
    const std::string response = client.request(query_for(offset + i));
    const auto end = std::chrono::steady_clock::now();
    stats.latencies_us.push_back(
        std::chrono::duration<double, std::micro>(end - begin).count());
    if (answered_epoch > 0) sent_after_answer = true;
    if (response.rfind("{\"ok\":true", 0) != 0) {
      ++stats.errors;
      continue;
    }
    const long epoch = field_value(response, "epoch");
    const long epoch_end = field_value(response, "epoch_end");
    if (epoch > 0 && epoch != epoch_end) ++stats.torn_epochs;
    if (epoch > 1) ++stats.after_swap;
    if (answered_epoch > 0 && epoch > 0 && epoch < answered_epoch) {
      ++stats.stale_epochs;
    }
  }
  return stats;
}

double percentile(std::vector<double>& sorted, double p) {
  const std::size_t at = static_cast<std::size_t>(
      p / 100.0 * static_cast<double>(sorted.size() - 1));
  return sorted[at];
}

}  // namespace

int main(int argc, char** argv) {
  const io::ArgParser args(argc, argv);
  const std::string bench_out = args.option_or("bench-out", "BENCH_serve.json");
  const auto clients =
      static_cast<std::size_t>(args.nonnegative_integer_or("clients", 8));
  const auto requests =
      static_cast<std::size_t>(args.nonnegative_integer_or("requests", 1000));

  const BenchDataset data = write_dataset();
  obs::Metrics metrics;
  core::PipelineConfig config;
  config.num_threads =
      static_cast<int>(args.nonnegative_integer_or("threads", 0));
  config.metrics = &metrics;
  auto rebuild = [&data, config] {
    return core::CosmicDance::from_files(data.dst_path, data.tle_path, config);
  };

  serve::Service service(rebuild(), rebuild, &metrics);
  serve::Server server(service, "127.0.0.1", 0);
  server.start();

  std::vector<ClientStats> results(clients);
  std::atomic<long> reloaded_epoch{0};
  std::string reload_response;
  const auto begin = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> workers;
    workers.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c) {
      workers.emplace_back([&, c] {
        results[c] = run_client("127.0.0.1", server.port(), requests, c,
                                reloaded_epoch);
      });
    }
    // One snapshot swap in the thick of the load: clients must keep
    // getting whole-epoch responses across it.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    serve::Client reloader("127.0.0.1", server.port());
    reload_response = reloader.request("{\"op\":\"reload\"}");
    const bool reloaded = reload_response.rfind("{\"ok\":true", 0) == 0;
    reloaded_epoch.store(reloaded ? field_value(reload_response, "epoch") : -1);
    for (std::thread& worker : workers) worker.join();
  }
  const auto end = std::chrono::steady_clock::now();
  server.shutdown();
  if (reloaded_epoch.load() != 2) {
    std::fprintf(stderr, "mid-load reload failed: %s\n",
                 reload_response.c_str());
    return 1;
  }

  std::vector<double> latencies;
  std::size_t errors = 0, torn = 0, stale = 0, after_swap = 0;
  for (const ClientStats& r : results) {
    latencies.insert(latencies.end(), r.latencies_us.begin(),
                     r.latencies_us.end());
    errors += r.errors;
    torn += r.torn_epochs;
    stale += r.stale_epochs;
    after_swap += r.after_swap;
  }
  std::sort(latencies.begin(), latencies.end());
  const double elapsed_s =
      std::chrono::duration<double>(end - begin).count();
  const double qps = static_cast<double>(latencies.size()) / elapsed_s;

  std::printf("micro_serve: %zu clients x %zu+ requests (%zu sent) in %.2fs"
              " = %.0f q/s\n",
              clients, requests, latencies.size(), elapsed_s, qps);
  std::printf("  latency p50 %.0fus  p95 %.0fus  p99 %.0fus\n",
              percentile(latencies, 50), percentile(latencies, 95),
              percentile(latencies, 99));
  std::printf("  errors %zu  torn epochs %zu  stale epochs %zu"
              "  responses after swap %zu\n",
              errors, torn, stale, after_swap);
  if (errors > 0 || torn > 0 || stale > 0) {
    std::fprintf(stderr,
                 "micro_serve: FAILED — errors, torn or stale epochs under "
                 "load\n");
    return 1;
  }

  bench::write_bench_record(
      bench_out, "micro_serve", config.num_threads, "paper",
      {{"queries_per_s", qps},
       {"latency_p50_us", percentile(latencies, 50)},
       {"latency_p95_us", percentile(latencies, 95)},
       {"latency_p99_us", percentile(latencies, 99)},
       {"responses_after_swap", static_cast<double>(after_swap)}},
      metrics);
  return 0;
}
