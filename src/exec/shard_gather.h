#ifndef ERBIUM_EXEC_SHARD_GATHER_H_
#define ERBIUM_EXEC_SHARD_GATHER_H_

#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "exec/aggregate.h"
#include "exec/operator.h"

namespace erbium {

class RowExchange;

// Cross-shard execution operators. A sharded SELECT compiles into one
// branch pipeline per shard (branch k's driver scan bound to shard k's
// database, non-local scans unioned across shards); these two operators
// sit at the coordinator and combine the branches. Both open every
// branch serially on the statement thread — the MVCC snapshot contract
// (exec/snapshot.h) requires all version resolution to happen there —
// and then drain the branches on the shared thread pool. Branch
// pipelines are translated serially (num_threads = 1), so they never
// contain a nested GatherOp: pool tasks never wait on pool tasks.

/// Bag union of the branch pipelines through the same bounded exchange
/// GatherOp uses, one producer per shard branch. Used for non-aggregate
/// sharded SELECTs; row order across branches is unspecified (the
/// coordinator's Sort, if any, runs above).
class ShardGatherOp : public Operator {
 public:
  explicit ShardGatherOp(std::vector<OperatorPtr> branches);
  ~ShardGatherOp() override;

  Status OpenImpl() override;
  bool NextImpl(Row* out) override;
  std::string name() const override;
  std::vector<const Operator*> children() const override;
  size_t EstimatedRowCount() const override;
  void StopProducers() override { Shutdown(); }

  const std::vector<OperatorPtr>& branches() const { return branches_; }

 private:
  void WorkerMain(size_t branch);
  void Shutdown();
  void DropPins();

  std::vector<OperatorPtr> branches_;
  std::unique_ptr<RowExchange> exchange_;
  std::vector<std::future<void>> futures_;
  /// Keeps every version the branches resolved at Open alive until the
  /// last producer finishes — a consumer that stops early (LIMIT) leaves
  /// detached producers running past the statement's snapshot scope.
  std::mutex pins_mu_;
  std::vector<std::shared_ptr<const void>> pins_;
  std::vector<Row> current_batch_;
  size_t batch_pos_ = 0;
};

/// Partial-aggregate merge across shards: each branch pipeline produces
/// its shard's pre-aggregation rows, a pool task per branch accumulates
/// them into a branch-local AggGroupTable, and Open() merges the partials
/// (sum of counts, min of mins, ...) exactly the way the morsel-parallel
/// ParallelHashAggregateOp merges worker partials. Finalizing per shard
/// and re-aggregating would be wrong (avg of avgs); merging accumulator
/// state is exact. Output layout matches HashAggregateOp.
class ShardMergeAggregateOp : public Operator {
 public:
  ShardMergeAggregateOp(std::vector<OperatorPtr> branches,
                        std::vector<ExprPtr> group_exprs,
                        std::vector<std::string> group_names,
                        std::vector<AggregateSpec> aggregates);
  ~ShardMergeAggregateOp() override;

  Status OpenImpl() override;
  bool NextImpl(Row* out) override;
  std::string name() const override;
  std::vector<const Operator*> children() const override;

  const std::vector<OperatorPtr>& branches() const { return branches_; }

 private:
  std::vector<OperatorPtr> branches_;
  std::vector<ExprPtr> group_exprs_;
  std::vector<AggregateSpec> aggregates_;
  std::unique_ptr<AggGroupTable> merged_;
  size_t next_group_ = 0;
};

}  // namespace erbium

#endif  // ERBIUM_EXEC_SHARD_GATHER_H_
