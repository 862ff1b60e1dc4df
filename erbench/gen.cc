// erbench_gen: drives one benchmark run against erbench_host over TCP
// loopback and prints its metrics as one JSON line.
//
//   erbench_gen --workload <name> --seed <n> --seconds <s> --trace 0|1
//               --host <erbench_host> --work <dir> [--plant-wrong]
//
// A run: build the answer oracle; start the host several times on fresh
// directories (setup_s is the median spawn -> first answered statement);
// warm up for kWarmupS; measure for --seconds with /metrics and /proc
// snapshots around the window; check the answers that need a quiet
// server; SIGKILL the host and restart it on the same directory, several
// times (durability.recovery_s is the fastest), then check that every
// acknowledged row survived. With --trace 1 the seeded stream is also
// replayed in-process with spans (replay.cc). --plant-wrong corrupts one
// expected answer; the run must then fail its oracle.

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "erbench.h"
#include "server/client.h"

namespace erbench {
namespace {

using erbium::Result;
using erbium::Status;
using erbium::api::StatementOutcome;
using erbium::server::Client;

/// Set-up and recovery are timed repeatedly, until at least `min_times`
/// times and `min_total_s` seconds (at most kMaxRepeats times).
struct Repeats {
  int min_times;
  double min_total_s;
};
constexpr Repeats kSetupRepeats = {3, 1.0};
constexpr Repeats kRecoveryRepeats = {3, 1.0};
constexpr int kMaxRepeats = 25;
constexpr double kWarmupS = 1.5;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string host_bin;
  std::string work;
  bool plant_wrong = false;
};

void SleepUntil(uint64_t ns) {
  uint64_t now = NowNs();
  if (ns > now) std::this_thread::sleep_for(std::chrono::nanoseconds(ns - now));
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size()) - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(rank),
                   values.end());
  return values[rank];
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// p99 robust to one bad burst: the window is cut into up to 10 equal
/// sub-windows of at least 1000 samples each (so that at least ten lie
/// beyond each p99), and the median of their p99s is reported. With
/// fewer than 2000 samples this is the plain p99 of the window.
double WindowedP99(const std::vector<double>& latency,
                   const std::vector<uint64_t>& at, uint64_t start,
                   uint64_t end) {
  size_t parts = std::clamp<size_t>(latency.size() / 1000, 1, 10);
  std::vector<std::vector<double>> split(parts);
  for (size_t i = 0; i < latency.size(); ++i) {
    uint64_t offset = std::clamp(at[i], start, end - 1) - start;
    split[offset * parts / (end - start)].push_back(latency[i]);
  }
  std::vector<double> p99s;
  for (const auto& part : split) p99s.push_back(Percentile(part, 0.99));
  return Percentile(p99s, 0.5);
}

Result<std::unique_ptr<Client>> Connect(int port, const std::string& name) {
  Client::Options options;
  options.port = port;
  options.name = name;
  options.connect_retries = 20;
  options.connect_retry_pause_ms = 50;
  return Client::Connect(options);
}

/// Per-connection tallies. Latency samples and server-timing sums cover
/// the measured window only; attempts, failures and acknowledged inserts
/// cover warm-up too, since every answer is checked.
struct Tally {
  bool keep_fields = false;  // keep acknowledged inserts' values, not just keys
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t window_done = 0;    // answered in the window
  uint64_t window_inserts = 0;  // acknowledged inserts in the window
  std::vector<double> latency_us;
  std::vector<uint64_t> latency_at;  // when each sample was sent
  double queue_wait_us = 0, execute_us = 0, outside_us = 0;
  uint64_t timed = 0;
  std::vector<Stmt> acked;

  void Merge(Tally&& other) {
    attempted += other.attempted;
    failed += other.failed;
    window_done += other.window_done;
    window_inserts += other.window_inserts;
    latency_us.insert(latency_us.end(), other.latency_us.begin(),
                      other.latency_us.end());
    latency_at.insert(latency_at.end(), other.latency_at.begin(),
                      other.latency_at.end());
    queue_wait_us += other.queue_wait_us;
    execute_us += other.execute_us;
    outside_us += other.outside_us;
    timed += other.timed;
    for (Stmt& s : other.acked) acked.push_back(std::move(s));
  }
};

/// One statement's answer, checked and tallied; it was sent at `start_ns`
/// and answered at `end_ns`.
void Record(const Oracle& oracle, const Stmt& stmt,
            const Client::BatchItem& item, bool in_window, uint64_t start_ns,
            uint64_t end_ns, Tally* tally) {
  ++tally->attempted;
  bool ok = oracle.Check(stmt, item.status, item.outcome);
  if (!ok) {
    ++tally->failed;
    if (tally->failed <= 3) {
      std::fprintf(stderr, "erbench: wrong answer or error for '%.80s': %s\n",
                   stmt.text.c_str(), item.status.ToString().c_str());
    }
  }
  if (ok && stmt.kind == StmtKind::kInsert) {
    Stmt acked;
    acked.entity = stmt.entity;
    acked.key = stmt.key;
    if (tally->keep_fields) acked.fields = stmt.fields;
    tally->acked.push_back(std::move(acked));
    if (in_window) ++tally->window_inserts;
  }
  if (!in_window || !ok) return;
  ++tally->window_done;
  tally->latency_us.push_back(static_cast<double>(end_ns - start_ns) / 1e3);
  tally->latency_at.push_back(start_ns);
  if (item.timing.present) {
    double q = static_cast<double>(item.timing.queue_wait_us);
    double e = static_cast<double>(item.timing.execute_us);
    tally->queue_wait_us += q;
    tally->execute_us += e;
    tally->outside_us += static_cast<double>(end_ns - start_ns) / 1e3 - q - e;
    ++tally->timed;
  }
}

/// Sends one statement as a one-item batch, the request whose answer
/// carries the server-timing footer. A transport failure becomes the
/// item's status.
Client::BatchItem Send(Client* client, const std::string& text) {
  Result<std::vector<Client::BatchItem>> batch = client->ExecuteBatch({text});
  if (batch.ok()) return std::move((*batch)[0]);
  Client::BatchItem failed;
  failed.status = batch.status();
  return failed;
}

struct Window {
  uint64_t start = 0;
  uint64_t end = 0;
};

/// Closed loop: one statement in flight; phase 0 (warm-up) until the
/// window opens, phase 1 until it closes.
Tally ClosedLoopConnection(const WorkloadSpec& spec, const Oracle& oracle,
                           uint64_t seed, int port, int conn, Window w) {
  Tally tally;
  // Only sharded_mixed replays its inserts into a reference database.
  tally.keep_fields = spec.mix == Mix::kMixed;
  auto client = Connect(port, "erbench-" + std::to_string(conn));
  if (!client.ok()) {
    std::fprintf(stderr, "erbench: connect: %s\n",
                 client.status().ToString().c_str());
    tally.attempted = tally.failed = 1;
    return tally;
  }
  for (int phase = 0; phase < 2; ++phase) {
    StatementStream stream(spec, seed, phase, conn);
    uint64_t until = phase == 0 ? w.start : w.end;
    while (NowNs() < until) {
      Stmt stmt = stream.Next();
      uint64_t sent = NowNs();
      Client::BatchItem item = Send(client->get(), stmt.text);
      Record(oracle, stmt, item, phase == 1, sent, NowNs(), &tally);
      if (item.status.code() == erbium::StatusCode::kIOError) return tally;
    }
  }
  return tally;
}

/// Runs `texts` on a fresh connection; a failed statement comes back as
/// its error.
std::vector<Result<StatementOutcome>> RunAll(int port,
                                             const std::vector<std::string>& texts) {
  std::vector<Result<StatementOutcome>> out;
  auto client = Connect(port, "erbench-check");
  for (const std::string& text : texts) {
    if (client.ok()) {
      out.push_back((*client)->Execute(text));
    } else {
      out.push_back(client.status());
    }
  }
  return out;
}

/// Times `once()` several times; the single times go to stderr. Returns
/// them sorted.
Result<std::vector<double>> Repeat(const char* what, Repeats repeats,
                                   const std::function<Result<double>()>& once) {
  std::vector<double> times;
  double total = 0;
  while (static_cast<int>(times.size()) < kMaxRepeats &&
         (static_cast<int>(times.size()) < repeats.min_times ||
          total < repeats.min_total_s)) {
    ERBIUM_ASSIGN_OR_RETURN(double t, once());
    times.push_back(t);
    total += t;
  }
  std::string list;
  for (double t : times) list += " " + std::to_string(t);
  std::fprintf(stderr, "erbench: %s times (s):%s\n", what, list.c_str());
  std::sort(times.begin(), times.end());
  return times;
}

/// Spawn -> first answered statement, in seconds.
Result<double> TimeToFirstAnswer(const std::vector<std::string>& argv,
                                 HostProcess* host) {
  uint64_t start = NowNs();
  ERBIUM_ASSIGN_OR_RETURN(*host, SpawnHost(argv, 120));
  ERBIUM_ASSIGN_OR_RETURN(auto client, Connect(host->port, "erbench-probe"));
  ERBIUM_RETURN_NOT_OK(client->Execute("SELECT count(*) AS n FROM S").status());
  return static_cast<double>(NowNs() - start) / 1e9;
}

double Diff(const std::map<std::string, double>& after,
            const std::map<std::string, double>& before,
            const std::string& name) {
  auto a = after.find(name);
  auto b = before.find(name);
  return (a == after.end() ? 0 : a->second) - (b == before.end() ? 0 : b->second);
}

/// Sum of the diffs of every sample whose name starts with `prefix` and
/// ends with `suffix`.
double DiffMatching(const std::map<std::string, double>& after,
                    const std::map<std::string, double>& before,
                    const std::string& prefix, const std::string& suffix,
                    std::vector<double>* each = nullptr) {
  double total = 0;
  for (const auto& [name, value] : after) {
    if (name.rfind(prefix, 0) != 0 || name.size() < prefix.size() + suffix.size() ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
      continue;
    }
    double d = Diff(after, before, name);
    total += d;
    if (each != nullptr) each->push_back(d);
  }
  return total;
}

int Run(const Args& args) {
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "erbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  auto oracle_or = Oracle::Create(*spec, args.seed, args.plant_wrong);
  if (!oracle_or.ok()) {
    std::fprintf(stderr, "erbench: oracle: %s\n",
                 oracle_or.status().ToString().c_str());
    return 1;
  }
  Oracle& oracle = **oracle_or;
  std::map<std::string, Metric> m;
  auto fail = [](const std::string& what, const Status& st) {
    std::fprintf(stderr, "erbench: %s: %s\n", what.c_str(), st.ToString().c_str());
    return 1;
  };

  // ---- Set-up: fresh process and directory each time; keep the last
  // directory.
  const std::string dir = args.work + "/data";
  auto host_argv = [&](bool build) {
    std::vector<std::string> argv = {args.host_bin, "--dir", dir, "--shards",
                                     std::to_string(spec->shards)};
    if (build) {
      argv.insert(argv.end(), {"--build-rows", std::to_string(spec->preload_r),
                               std::to_string(spec->preload_s)});
    }
    return argv;
  };
  HostProcess host;
  auto setup = Repeat("set-up", kSetupRepeats, [&] {
    StopHost(&host, SIGKILL);
    std::filesystem::remove_all(dir);
    return TimeToFirstAnswer(host_argv(true), &host);
  });
  if (!setup.ok()) {
    StopHost(&host, SIGKILL);
    return fail("set-up", setup.status());
  }
  m["setup_s"] = {(*setup)[setup->size() / 2], "s"};  // median
  // The measured server is a fresh process that only attached the
  // directory, so that its memory peak is not the data build's.
  StopHost(&host, SIGKILL);
  if (auto started = TimeToFirstAnswer(host_argv(false), &host); !started.ok()) {
    StopHost(&host, SIGKILL);
    return fail("start", started.status());
  }

  // ---- Warm-up, then the measured window.
  Window w;
  w.start = NowNs() + static_cast<uint64_t>(kWarmupS * 1e9);
  w.end = w.start + static_cast<uint64_t>(args.seconds * 1e9);
  Tally tally;
  std::map<std::string, double> scrape[2];
  ProcSample proc[2];
  SystemCpu sys[2];
  double self_cpu[2] = {0, 0};
  Status scraped = Status::OK();
  std::thread sampler([&] {
    for (int i = 0; i < 2; ++i) {
      SleepUntil(i == 0 ? w.start : w.end);
      proc[i] = SampleProcess(host.pid);
      sys[i] = SampleSystemCpu();
      self_cpu[i] = SelfCpuSeconds();
      auto s = ScrapeMetrics(host.metrics_port);
      if (s.ok()) {
        scrape[i] = std::move(s).value();
      } else {
        scraped = s.status();
      }
    }
  });
  {
    std::vector<Tally> per(static_cast<size_t>(spec->connections));
    std::vector<std::thread> threads;
    for (int c = 0; c < spec->connections; ++c) {
      threads.emplace_back([&, c] {
        per[static_cast<size_t>(c)] =
            ClosedLoopConnection(*spec, oracle, args.seed, host.port, c, w);
      });
    }
    for (std::thread& t : threads) t.join();
    for (Tally& t : per) tally.Merge(std::move(t));
  }
  sampler.join();
  if (!scraped.ok()) {
    StopHost(&host, SIGKILL);
    return fail("scrape", scraped);
  }
  const double window_s = static_cast<double>(w.end - w.start) / 1e9;

  // ---- Answers that need a quiet server: scatter statements against an
  // unsharded reference holding the same acknowledged inserts.
  uint64_t attempted = tally.attempted;
  uint64_t failed = tally.failed;
  if (spec->mix == Mix::kMixed) {
    auto expected = oracle.ScatterDigests(tally.acked);
    auto answers = RunAll(host.port, ScatterQueries());
    for (size_t i = 0; i < answers.size(); ++i) {
      ++attempted;
      if (!expected.ok() || !answers[i].ok() ||
          Digest(answers[i]->result) != (*expected)[i]) {
        ++failed;
        std::fprintf(stderr, "erbench: scatter answer %zu differs from the "
                     "unsharded reference\n", i);
      }
    }
  }
  // ingest_durable ends with a CHECKPOINT, so that its footprint, memory
  // peak and recovery cover all its rows in a snapshot rather than a WAL
  // tail of random length behind a checkpoint at a random moment.
  if (spec->mix == Mix::kIngest) {
    ++attempted;
    auto checkpoint = RunAll(host.port, {"CHECKPOINT"});
    if (!checkpoint[0].ok()) {
      ++failed;
      std::fprintf(stderr, "erbench: final CHECKPOINT: %s\n",
                   checkpoint[0].status().ToString().c_str());
    }
  }
  m["rss_peak_mb"] = {SampleProcess(host.pid).hwm_mb, "MB"};
  const double rows = static_cast<double>(oracle.preload_entities()) +
                      static_cast<double>(tally.acked.size());
  m["disk_bytes_per_row"] = {Ratio(DirBytes(dir), rows), "B"};

  // ---- Crash and recovery on the same directory; each restart recovers
  // the same state.
  auto recovery = Repeat("recovery", kRecoveryRepeats, [&] {
    StopHost(&host, SIGKILL);
    return TimeToFirstAnswer(host_argv(false), &host);
  });
  if (!recovery.ok()) {
    StopHost(&host, SIGKILL);
    return fail("recovery", recovery.status());
  }
  // Restart noise on a shared machine only ever adds time (page faults,
  // scheduling), so the fastest restart of the same state is the steady
  // measure of the recovery work; the single times are on stderr.
  m["durability.recovery_s"] = {recovery->front(), "s"};
  {
    std::vector<std::string> texts;
    for (const char* from : {"R", "S", "S1", "S2"}) {
      texts.push_back(std::string("SELECT count(*) AS n FROM ") + from);
    }
    if (spec->mix == Mix::kIngest) {
      texts.insert(texts.end(), AckedKeyQueries().begin(), AckedKeyQueries().end());
    }
    auto answers = RunAll(host.port, texts);
    int64_t count = 0;
    bool ok = true;
    std::vector<StatementOutcome> reads;
    for (size_t i = 0; i < answers.size(); ++i) {
      if (!answers[i].ok()) {
        ok = false;
        continue;
      }
      if (i < 4) {
        count += answers[i]->result.rows.at(0).at(0).as_int64();
      } else {
        reads.push_back(*answers[i]);
      }
    }
    ++attempted;
    if (!ok || count != static_cast<int64_t>(rows)) {
      ++failed;
      std::fprintf(stderr, "erbench: recovered %lld entity rows, expected %.0f\n",
                   static_cast<long long>(count), rows);
    }
    if (spec->mix == Mix::kIngest) {
      ++attempted;
      int64_t missing = ok ? MissingAckedKeys(tally.acked, reads, oracle.plant_wrong())
                           : 1;
      if (missing > 0) {
        ++failed;
        std::fprintf(stderr, "erbench: %lld acknowledged keys missing after "
                     "recovery\n", static_cast<long long>(missing));
      }
    }
  }
  StopHost(&host, SIGKILL);

  // ---- End-to-end metrics.
  const double done = static_cast<double>(tally.window_done);
  m["stmts_per_s"] = {done / window_s, "1/s"};
  m["p50_us"] = {Percentile(tally.latency_us, 0.50), "us"};
  m["p99_us"] = {WindowedP99(tally.latency_us, tally.latency_at, w.start, w.end), "us"};
  m["failed_ratio"] = {Ratio(static_cast<double>(failed),
                             static_cast<double>(attempted)), "ratio"};
  m["server_cpu_ms_per_kstmt"] = {Ratio(proc[1].cpu_ms - proc[0].cpu_ms, done / 1e3),
                                  "ms"};

  // ---- Live per-layer metrics: footer means and the /metrics diff.
  const auto& a = scrape[1];
  const auto& b = scrape[0];
  const double timed = static_cast<double>(tally.timed);
  const double inserts = static_cast<double>(tally.window_inserts);
  auto hist_mean = [&](const std::string& name) {
    return Ratio(Diff(a, b, name + "_sum"), Diff(a, b, name + "_count"));
  };
  m["server.queue_wait_us.mean"] = {Ratio(tally.queue_wait_us, timed), "us"};
  m["server.execute_us.mean"] = {Ratio(tally.execute_us, timed), "us"};
  m["server.outside_us.mean"] = {Ratio(tally.outside_us, timed), "us"};
  m["server.loop_lag_us.mean"] = {hist_mean("erbium_server_loop_lag_us"), "us"};
  m["server.write_stall_us.mean"] = {hist_mean("erbium_server_write_stall_us"), "us"};
  m["server.bytes_out_per_stmt"] = {Ratio(Diff(a, b, "erbium_server_bytes_out"), done),
                                    "B"};
  m["api.lock_wait_us.sum"] = {Diff(a, b, "erbium_statement_lock_wait_us_sum"), "us"};
  m["api.lock_contended"] = {Diff(a, b, "erbium_statement_lock_contended"), "count"};
  const double hits = Diff(a, b, "erbium_plan_cache_hits");
  const double misses = Diff(a, b, "erbium_plan_cache_misses");
  m["erql.plan_cache.hit_ratio"] = {Ratio(hits, hits + misses), "ratio"};
  m["erql.plan_cache.evictions"] = {Diff(a, b, "erbium_plan_cache_evictions"), "count"};
  m["storage.table_inserts_per_row"] = {
      Ratio(DiffMatching(a, b, "erbium_table_", "_inserts"), inserts), "ratio"};
  m["durability.wal_bytes_per_row"] = {Ratio(Diff(a, b, "erbium_wal_bytes"), inserts), "B"};
  m["durability.wal_appends_per_row"] = {
      Ratio(Diff(a, b, "erbium_wal_appends"), inserts), "ratio"};
  m["durability.write_bytes_per_row"] = {
      Ratio(proc[1].write_bytes - proc[0].write_bytes, inserts), "B"};
  m["durability.checkpoints"] = {Diff(a, b, "erbium_checkpoint_count"), "count"};
  m["durability.checkpoint_bytes"] = {Diff(a, b, "erbium_checkpoint_bytes"), "B"};
  m["shard.route.single_shard"] = {Diff(a, b, "erbium_shard_route_single_shard"), "count"};
  m["shard.route.scatter_gather"] = {Diff(a, b, "erbium_shard_route_scatter_gather"),
                                     "count"};
  m["shard.route.local_join"] = {Diff(a, b, "erbium_shard_route_shard_local"), "count"};
  std::vector<double> shard_inserts;
  double all_shards = DiffMatching(a, b, "erbium_shard_", "_inserts", &shard_inserts);
  double max_shard = shard_inserts.empty()
                         ? 0
                         : *std::max_element(shard_inserts.begin(), shard_inserts.end());
  m["shard.insert_skew"] = {
      Ratio(max_shard, all_shards / static_cast<double>(std::max<size_t>(1, shard_inserts.size()))),
      "ratio"};
  m["bench.client_cpu_s"] = {self_cpu[1] - self_cpu[0], "s"};
  m["bench.steal_pct"] = {100 * Ratio(sys[1].steal - sys[0].steal, sys[1].total - sys[0].total),
                          "%"};

  // ---- Traced replay.
  if (args.trace) {
    auto traced = TracedReplay(*spec, args.seed, args.work + "/replay",
                               args.work + "/spans.tsv", std::min(args.seconds, 3.0));
    if (!traced.ok()) return fail("traced replay", traced.status());
    for (auto& [name, metric] : *traced) m[name] = std::move(metric);
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              failed == 0 ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  bool first = true;
  for (const auto& [name, metric] : m) {
    std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}", first ? "" : ", ",
                name.c_str(), std::isfinite(metric.value) ? metric.value : 0.0,
                metric.unit.c_str());
    first = false;
  }
  std::printf("}, \"info\": {\"workload\": \"%s\", \"seed\": %llu, \"shards\": %d, "
              "\"sync\": \"%s\", \"connections\": %d, "
              "\"nproc\": %ld, \"window_s\": %.3f, \"samples\": %zu}}\n",
              spec->name.c_str(), static_cast<unsigned long long>(args.seed),
              spec->shards, "none",
              spec->connections, sysconf(_SC_NPROCESSORS_ONLN), window_s,
              tally.latency_us.size());
  return 0;
}

}  // namespace
}  // namespace erbench

int main(int argc, char** argv) {
  erbench::Args args;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      args.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      args.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--host" && has_value) {
      args.host_bin = argv[++i];
    } else if (arg == "--work" && has_value) {
      args.work = argv[++i];
    } else if (arg == "--plant-wrong") {
      args.plant_wrong = true;
    } else {
      std::fprintf(stderr, "erbench_gen: unknown or incomplete flag %s\n", arg.c_str());
      return 2;
    }
  }
  if (args.workload.empty() || args.host_bin.empty() || args.work.empty() ||
      !(args.seconds > 0)) {
    std::fprintf(stderr, "erbench_gen: --workload, --host, --work and "
                 "--seconds > 0 are required\n");
    return 2;
  }
  // A client socket whose server was just killed must fail, not signal.
  signal(SIGPIPE, SIG_IGN);
  std::filesystem::create_directories(args.work);
  return erbench::Run(args);
}
