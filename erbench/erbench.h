// Shared pieces of erbench_gen: the four workloads, their seeded
// statement streams, the answer oracle, process/proc accounting, the
// /metrics scrape, and the traced in-process replay.
#ifndef ERBENCH_ERBENCH_H_
#define ERBENCH_ERBENCH_H_

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "api/statement_runner.h"
#include "common/status.h"
#include "common/value.h"
#include "mapping/database.h"

namespace erbench {

uint64_t NowNs();

/// One reported figure.
struct Metric {
  double value = 0;
  std::string unit;
};

// ---- Workloads --------------------------------------------------------------

/// Figure 4 preload of the read workloads (r_id = 1..kPreloadR).
constexpr int kPreloadR = 20000;
constexpr int kPreloadS = 6000;

/// Which statements a workload's stream draws.
enum class Mix { kPointRead, kAnalytic, kIngest, kMixed };

struct WorkloadSpec {
  std::string name;
  Mix mix = Mix::kPointRead;
  int preload_r = 0;  // 0: empty Figure 4 schema
  int preload_s = 0;
  int shards = 1;
  int connections = 4;  // closed loop: one statement in flight each
};

/// Looks a workload up by name; nullptr when unknown.
const WorkloadSpec* FindWorkload(const std::string& name);

/// er_analytic's six Section 6 shapes, in round-robin order.
const std::vector<std::string>& AnalyticQueries();
/// sharded_mixed's scatter-gather statements.
const std::vector<std::string>& ScatterQueries();

enum class StmtKind { kPointRead, kAnalytic, kInsert, kCheckpoint, kScatter };

struct Stmt {
  StmtKind kind = StmtKind::kPointRead;
  std::string text;
  int64_t key = 0;   // point read: r_id; insert: the entity's key
  int index = 0;     // analytic / scatter: query index
  std::string entity;     // insert: entity set
  erbium::Value fields;   // insert: the entity instance
};

/// The seeded statement stream of one connection. The same (workload,
/// seed, phase, connection) always yields the same statements; INSERT
/// keys are disjoint across seeds, phases and connections.
class StatementStream {
 public:
  StatementStream(const WorkloadSpec& spec, uint64_t seed, int phase,
                  int connection);
  Stmt Next();

 private:
  Stmt Insert(const std::string& entity);

  const WorkloadSpec& spec_;
  std::mt19937_64 rng_;
  uint64_t seed_;
  int phase_;
  int connection_;
  uint64_t count_ = 0;
  uint64_t inserts_ = 0;
  uint64_t scatters_ = 0;
  bool checkpointed_ = false;
  int64_t last_s_id_ = 0;
};

/// sharded_mixed: one statement in this many is a scatter-gather one.
constexpr uint64_t kScatterEvery = 1000;

/// ingest_durable: connection 0 issues CHECKPOINT after every this many
/// of its own inserts.
constexpr uint64_t kCheckpointEvery = 10000;

// ---- Answer oracle ------------------------------------------------------------

/// Expected answers, built in-process from the same seeded Figure 4 data.
/// Check() is safe to call from several threads at once.
class Oracle {
 public:
  /// `plant_wrong` corrupts one expectation that every run exercises (the
  /// first point read or analytic shape of connection 0), so the run must
  /// then report a wrong answer.
  static erbium::Result<std::unique_ptr<Oracle>> Create(
      const WorkloadSpec& spec, uint64_t seed, bool plant_wrong);

  /// True when the statement's answer is right (errors are never right).
  bool Check(const Stmt& stmt, const erbium::Status& status,
             const erbium::api::StatementOutcome& outcome) const;

  /// Applies the acknowledged inserts to the unsharded reference and
  /// returns the digests ScatterQueries() must then have.
  erbium::Result<std::vector<size_t>> ScatterDigests(
      const std::vector<Stmt>& acked);

  /// Entity instances the preload holds (R hierarchy, S, S1, S2).
  int64_t preload_entities() const { return preload_entities_; }
  bool plant_wrong() const { return plant_wrong_; }

 private:
  Oracle() = default;

  bool plant_wrong_ = false;
  std::shared_ptr<erbium::ERSchema> schema_m1_, schema_alt_;
  std::unique_ptr<erbium::MappedDatabase> m1_, alt_;
  std::vector<int64_t> r_a1_;    // expected r_a1, indexed by r_id
  std::vector<size_t> digests_;  // per AnalyticQueries() or ScatterQueries() entry
  int64_t preload_entities_ = 0;
};

/// Digest of an answer: hash of QueryResult::ToCanonicalString().
size_t Digest(const erbium::erql::QueryResult& result);

/// Statements that read back every acknowledged key (R hierarchy, S, S1).
const std::vector<std::string>& AckedKeyQueries();
/// Acknowledged keys absent from the answers to AckedKeyQueries(), plus
/// one for a planted phantom key.
int64_t MissingAckedKeys(
    const std::vector<Stmt>& acked,
    const std::vector<erbium::api::StatementOutcome>& reads,
    bool plant_phantom);

// ---- Processes, /proc and /metrics ------------------------------------------

/// One erbench_host process.
struct HostProcess {
  pid_t pid = -1;
  int port = 0;
  int metrics_port = 0;
};

/// Starts the host and waits for its READY line (up to `timeout_s`).
erbium::Result<HostProcess> SpawnHost(const std::vector<std::string>& argv,
                                      double timeout_s);
/// Sends `sig` and reaps the process.
void StopHost(HostProcess* host, int sig);

struct ProcSample {
  double cpu_ms = 0;        // utime + stime
  double write_bytes = 0;   // /proc/<pid>/io
  double hwm_mb = 0;        // VmHWM
};
ProcSample SampleProcess(pid_t pid);

struct SystemCpu {
  double total = 0;
  double steal = 0;
};
SystemCpu SampleSystemCpu();

/// This process's user + system CPU seconds.
double SelfCpuSeconds();

/// Total size of the regular files under `dir`.
double DirBytes(const std::string& dir);

/// GET /metrics, validated with obs::PrometheusFormatError, parsed into
/// sample name -> value (histogram buckets dropped; _sum/_count kept).
erbium::Result<std::map<std::string, double>> ScrapeMetrics(int port);

// ---- Traced replay --------------------------------------------------------------

/// Replays the workload's seeded statement stream in-process on one
/// thread through the layers' public functions, once untraced and once
/// with spans, and returns the traced per-layer metrics. Spans are
/// written to `spans_path`.
erbium::Result<std::map<std::string, Metric>> TracedReplay(
    const WorkloadSpec& spec, uint64_t seed, const std::string& work_dir,
    const std::string& spans_path, double budget_s);

}  // namespace erbench

#endif  // ERBENCH_ERBENCH_H_
