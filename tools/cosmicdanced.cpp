// cosmicdanced — the long-running serving daemon (DESIGN.md §15).
//
// Loads one Dst + TLE input pair (through the same snapshot cache as the
// CLI, so a warm start is a binary load, not a TLE text parse) and serves
// concurrent queries over length-prefixed JSON-over-TCP:
//
//   cosmicdanced --listen 127.0.0.1:0 --dst dst.wdc --tles catalog.tle
//                [--threads N] [--parse-policy strict|tolerant]
//                [--cache-dir DIR] [--port-file F] [--metrics-out F]
//   cosmicdanced query --host 127.0.0.1 (--port N | --port-file F)
//                --json '{"op":"storm_summary"}'
//
// Ops: ping, stats, sat_series, storm_summary, envelope_cdf, propagate,
// decay_summary, quality_report, metrics, reload, shutdown.  The propagate
// family runs the batch SGP4 engine against the serving snapshot's catalog:
// "propagate" returns one satellite's altitude-from-state series over a
// request-scoped epoch grid, "decay_summary" ranks the fleet's fastest
// decayers by fitted decay rate.  A "reload" re-ingests the inputs off to
// the side (appended TLE records ride the delta fast path when a cache dir
// is set) and atomically swaps the serving snapshot; in-flight queries
// finish against the epoch they started on.
#include <cstdint>
#include <iostream>

#include "common/error.hpp"
#include "core/pipeline.hpp"
#include "diag/diag.hpp"
#include "io/args.hpp"
#include "io/file.hpp"
#include "io/parse.hpp"
#include "obs/obs.hpp"
#include "serve/server.hpp"

using namespace cosmicdance;

namespace {

int usage() {
  std::cout <<
      "cosmicdanced — CosmicDance serving daemon\n"
      "\n"
      "serve (default):\n"
      "  cosmicdanced --listen HOST:PORT --dst F --tles F\n"
      "               [--threads N] [--parse-policy strict|tolerant]\n"
      "               [--cache-dir DIR] [--port-file F] [--metrics-out F]\n"
      "    PORT 0 binds an ephemeral port; --port-file writes the actual\n"
      "    port once the daemon is accepting connections.  --metrics-out\n"
      "    dumps the metrics registry (serve.* counters included) as JSON\n"
      "    at shutdown.  Runs until a client sends {\"op\":\"shutdown\"}.\n"
      "\n"
      "query:\n"
      "  cosmicdanced query [--host H] (--port N | --port-file F) --json J\n"
      "    sends one request payload and prints the response JSON.\n"
      "\n"
      "ops: ping stats sat_series storm_summary envelope_cdf propagate\n"
      "     decay_summary quality_report metrics reload shutdown\n";
  return 2;
}

std::string require(const io::ArgParser& args, const std::string& name) {
  const auto value = args.option(name);
  if (!value.has_value()) {
    throw ParseError("missing required option --" + name);
  }
  return *value;
}

/// Split "HOST:PORT" at the last colon (IPv6 hosts contain colons).
std::pair<std::string, std::uint16_t> split_listen(const std::string& spec) {
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon + 1 == spec.size()) {
    throw ParseError("--listen expects HOST:PORT, got '" + spec + "'");
  }
  const auto port = io::parse_long(std::string_view(spec).substr(colon + 1));
  if (!port || *port < 0 || *port > 65535) {
    throw ParseError("--listen port must be in [0, 65535], got '" + spec +
                     "'");
  }
  return {spec.substr(0, colon), static_cast<std::uint16_t>(*port)};
}

core::PipelineConfig pipeline_config(const io::ArgParser& args,
                                     obs::Metrics* metrics) {
  core::PipelineConfig config;
  config.num_threads =
      static_cast<int>(args.nonnegative_integer_or("threads", 0));
  config.parse_policy = diag::parse_policy_from_string(
      args.option_or("parse-policy", "strict"));
  config.cache_dir = args.option_or("cache-dir", "");
  config.metrics = metrics;
  return config;
}

int cmd_serve(const io::ArgParser& args) {
  args.check_known({"listen", "dst", "tles", "threads", "parse-policy",
                    "cache-dir", "port-file", "metrics-out"});
  const auto [host, port] = split_listen(require(args, "listen"));
  const std::string dst_path = require(args, "dst");
  const std::string tle_path = require(args, "tles");

  obs::Metrics metrics;
  const core::PipelineConfig config = pipeline_config(args, &metrics);
  auto rebuild = [dst_path, tle_path, config] {
    return core::CosmicDance::from_files(dst_path, tle_path, config);
  };

  serve::Service service(rebuild(), rebuild, &metrics);
  serve::Server server(service, host, port);
  server.start();
  if (const auto port_file = args.option("port-file")) {
    io::write_file(*port_file, std::to_string(server.port()) + "\n");
  }
  std::cout << "cosmicdanced listening on " << host << ":" << server.port()
            << "\n";

  server.wait();      // until a client sends {"op":"shutdown"}
  server.shutdown();
  if (const auto metrics_out = args.option("metrics-out")) {
    io::write_file(*metrics_out, metrics.snapshot().to_json());
  }
  std::cout << "cosmicdanced stopped\n";
  return 0;
}

int cmd_query(const io::ArgParser& args) {
  args.check_known({"host", "port", "port-file", "json"});
  const std::string host = args.option_or("host", "127.0.0.1");
  long port = args.nonnegative_integer_or("port", 0);
  if (port == 0) {
    const std::string port_file = require(args, "port-file");
    const auto parsed = io::parse_leading_long(io::read_file(port_file));
    if (!parsed || *parsed <= 0 || *parsed > 65535) {
      throw ParseError("port file '" + port_file +
                       "' does not contain a port number");
    }
    port = *parsed;
  }
  serve::Client client(host, static_cast<std::uint16_t>(port));
  std::cout << client.request(require(args, "json")) << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const io::ArgParser args(argc, argv);
    if (args.command() == "query") return cmd_query(args);
    if (args.command().empty() && args.option("listen").has_value()) {
      return cmd_serve(args);
    }
    return usage();
  } catch (const std::exception& error) {
    std::cerr << "cosmicdanced: " << error.what() << "\n";
    return 1;
  }
}
