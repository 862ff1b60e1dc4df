// erbench_host: runs one ErbiumDB server::Server in its own process for
// the benchmark, attached to a data directory.
//
//   erbench_host --dir <d> [--shards n] [--build-rows num_r num_s]
//
// --build-rows first writes a fresh database into <d>: the paper's
// Figure 4 schema under M1 plus the seeded synthetic data of
// PopulateFigure4 (num_r = 0 leaves it empty), checkpointed into a
// snapshot. The server then attaches <d> exactly as it would attach any
// existing directory, so a restart without --build-rows is a recovery of
// the same state. The shipped erbium_server cannot do that: its --figure4
// preload lives in memory and is dropped by --attach. Every
// ServerOptions / StatementRunner::Options field keeps its default,
// except attach_dir, shards and metrics_port (an ephemeral port).
//
// Prints "READY <port> <metrics_port>" once the server accepts
// connections, then serves until SIGTERM / SIGINT (graceful Stop).

#include <signal.h>
#include <sys/prctl.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "durability/durable_db.h"
#include "server/server.h"
#include "shard/router.h"
#include "workload/figure4.h"

namespace {

using erbium::IndexKey;
using erbium::Result;
using erbium::Status;
using erbium::Value;
using erbium::durability::DurableDatabase;

DurableDatabase::Options BuildOptions() {
  DurableDatabase::Options options;
  options.spec = erbium::MappingSpec::Normalized("m1");
  options.initial_ddl = erbium::Figure4Ddl();
  // Relationship edges may name an entity that lives on a sibling shard;
  // the generated stream is valid by construction, so trust it (the
  // server's own recovery does the same).
  options.remote_check = [](const std::string&,
                            const IndexKey&) -> Result<bool> { return true; };
  return options;
}

/// Writes the Figure 4 database into `dir` in the layout the server's
/// ATTACH expects: the directory itself at one shard; at n shards a
/// SHARDS manifest plus shard-<k>/ per shard, each entity routed by the
/// same co-partitioning the server uses.
Status BuildDatabase(const std::string& dir, int shards, int num_r,
                     int num_s) {
  std::filesystem::create_directories(dir);
  erbium::Figure4Config config;
  config.num_r = num_r;
  config.num_s = num_s;
  std::vector<std::unique_ptr<DurableDatabase>> dbs;
  // The generated rows go straight into the tables, not through the WAL:
  // the closing checkpoint snapshots them all.
  auto open_db = [&](const std::string& path) -> Status {
    ERBIUM_ASSIGN_OR_RETURN(auto db, DurableDatabase::Open(path, BuildOptions()));
    db->db()->set_durability_hook(nullptr);
    dbs.push_back(std::move(db));
    return Status::OK();
  };
  if (shards == 1) {
    ERBIUM_RETURN_NOT_OK(open_db(dir));
    if (num_r > 0) {
      ERBIUM_RETURN_NOT_OK(erbium::PopulateFigure4(dbs[0]->db(), config));
    }
  } else {
    std::ofstream(dir + "/SHARDS") << shards << "\n";
    for (int k = 0; k < shards; ++k) {
      ERBIUM_RETURN_NOT_OK(open_db(dir + "/shard-" + std::to_string(k)));
    }
    ERBIUM_ASSIGN_OR_RETURN(
        auto router, erbium::shard::ShardRouter::Create(
                         dbs[0]->schema(), dbs[0]->spec(), shards));
    erbium::Figure4Sinks sinks;
    sinks.insert_entity = [&](const std::string& cls, Value fields) -> Status {
      ERBIUM_ASSIGN_OR_RETURN(int s, router->RouteInsert(cls, fields));
      return dbs[s]->db()->InsertEntity(cls, fields);
    };
    sinks.insert_relationship = [&](const std::string& rel, IndexKey left,
                                    IndexKey right, Value attrs) -> Status {
      ERBIUM_ASSIGN_OR_RETURN(int s,
                              router->RouteRelationship(rel, left, right));
      return dbs[s]->db()->InsertRelationship(rel, left, right, attrs);
    };
    if (num_r > 0) ERBIUM_RETURN_NOT_OK(erbium::PopulateFigure4(sinks, config));
  }
  for (auto& db : dbs) ERBIUM_RETURN_NOT_OK(db->Checkpoint().status());
  return Status::OK();
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "erbench_host: %s\n", message.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Never outlive the generator that started us.
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  erbium::server::ServerOptions options;
  options.metrics_port = 0;
  int build_r = -1;
  int build_s = 0;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    bool has_value = i + 1 < argc;
    if (arg == "--dir" && has_value) {
      options.runner.attach_dir = argv[++i];
    } else if (arg == "--shards" && has_value) {
      options.runner.shards = std::atoi(argv[++i]);
    } else if (arg == "--build-rows" && i + 2 < argc) {
      build_r = std::atoi(argv[++i]);
      build_s = std::atoi(argv[++i]);
    } else {
      return Fail("unknown or incomplete flag " + arg);
    }
  }
  if (options.runner.attach_dir.empty()) return Fail("--dir is required");
  if (options.runner.shards < 1) return Fail("--shards must be positive");

  // SIGTERM/SIGINT go to sigwait below; block them before any thread
  // starts so every server thread inherits the mask.
  sigset_t signals;
  sigemptyset(&signals);
  sigaddset(&signals, SIGINT);
  sigaddset(&signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &signals, nullptr);

  if (build_r >= 0) {
    Status built = BuildDatabase(options.runner.attach_dir,
                                 options.runner.shards, build_r, build_s);
    if (!built.ok()) return Fail("build: " + built.ToString());
  }
  auto server = erbium::server::Server::Start(options);
  if (!server.ok()) return Fail("start: " + server.status().ToString());
  std::printf("READY %d %d\n", (*server)->port(), (*server)->metrics_port());
  std::fflush(stdout);

  int sig = 0;
  sigwait(&signals, &sig);
  Status stopped = (*server)->Stop();
  if (!stopped.ok()) return Fail("stop: " + stopped.ToString());
  return 0;
}
