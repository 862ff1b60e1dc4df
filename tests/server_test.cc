// Network server integration tests: remote statement execution, session
// observability (SHOW SESSIONS / SHOW QUERIES attribution), admission
// backpressure, idle and request deadlines, graceful shutdown with a
// final checkpoint, and a 32-client mixed-workload hammer across the
// paper's mappings M1-M6 checked against a serial oracle. Runs under
// TSan in CI (the `server` label).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/statement_runner.h"
#include "gtest/gtest.h"
#include "server/client.h"
#include "server/server.h"

namespace erbium {
namespace server {
namespace {

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/erbium_server_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

ServerOptions Figure4ServerOptions() {
  ServerOptions options;
  options.port = 0;
  options.runner.figure4 = true;
  options.runner.figure4_num_r = 200;
  options.runner.figure4_num_s = 80;
  return options;
}

Client::Options ClientFor(const Server& server, const std::string& name) {
  Client::Options options;
  options.port = server.port();
  options.name = name;
  return options;
}

/// Index of `column` in the result, or -1.
int ColumnIndex(const erql::QueryResult& result, const std::string& column) {
  auto it = std::find(result.columns.begin(), result.columns.end(), column);
  return it == result.columns.end()
             ? -1
             : static_cast<int>(it - result.columns.begin());
}

TEST(ServerTest, StartsOnEphemeralPortAndStops) {
  auto server = Server::Start(ServerOptions{});
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  EXPECT_GT((*server)->port(), 0);
  EXPECT_TRUE((*server)->Stop().ok());
  // Idempotent.
  EXPECT_TRUE((*server)->Stop().ok());
}

TEST(ServerTest, RemoteStatementsExecute) {
  auto server = Server::Start(Figure4ServerOptions());
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto client = Client::Connect(ClientFor(**server, "exec"));
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_GT((*client)->session_id(), 0u);

  auto rows = (*client)->Execute("SELECT r_id, r_a1 FROM R WHERE r_id < 4");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->shape, api::OutputShape::kTable);
  EXPECT_EQ(rows->result.rows.size(), 3u);

  auto insert = (*client)->Execute(
      "INSERT R (r_id = 90001, r_a1 = 41, r_a2 = 0.5, r_a3 = 'wire', "
      "r_a4 = 2)");
  ASSERT_TRUE(insert.ok()) << insert.status().ToString();
  EXPECT_EQ(insert->shape, api::OutputShape::kMessage);

  auto read_back =
      (*client)->Execute("SELECT r_a1 FROM R WHERE r_id = 90001");
  ASSERT_TRUE(read_back.ok());
  ASSERT_EQ(read_back->result.rows.size(), 1u);
  EXPECT_EQ(read_back->result.rows[0][0].as_int64(), 41);

  auto explain = (*client)->Execute("EXPLAIN SELECT r_id FROM R");
  ASSERT_TRUE(explain.ok());
  EXPECT_EQ(explain->shape, api::OutputShape::kLines);
  EXPECT_FALSE(explain->result.rows.empty());

  // A remap travels the same path; queries keep answering afterwards.
  auto remap = (*client)->Execute("REMAP m3");
  ASSERT_TRUE(remap.ok()) << remap.status().ToString();
  auto after = (*client)->Execute("SELECT r_a1 FROM R WHERE r_id = 90001");
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->result.rows.size(), 1u);
  EXPECT_EQ(after->result.rows[0][0].as_int64(), 41);
}

TEST(ServerTest, RemoteErrorsKeepTheirStatusCode) {
  auto server = Server::Start(Figure4ServerOptions());
  ASSERT_TRUE(server.ok());
  auto client = Client::Connect(ClientFor(**server, "errs"));
  ASSERT_TRUE(client.ok());

  auto parse = (*client)->Execute("SELECT FROM WHERE");
  ASSERT_FALSE(parse.ok());
  EXPECT_EQ(parse.status().code(), StatusCode::kParseError);

  auto unknown = (*client)->Execute("FROBNICATE EVERYTHING");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidArgument);

  auto missing = (*client)->Execute("SELECT nope FROM R");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kAnalysisError);

  // The connection survives statement errors.
  EXPECT_TRUE((*client)->Ping().ok());
}

TEST(ServerTest, PipelinedBatchExecutesInOrder) {
  auto server = Server::Start(Figure4ServerOptions());
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto client = Client::Connect(ClientFor(**server, "pipeline"));
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  // Write-then-read within one batch: in-order execution makes the
  // read observe the write that preceded it in the pipeline.
  auto batch = (*client)->ExecuteBatch({
      "INSERT R (r_id = 80001, r_a1 = 5, r_a2 = 0.5, r_a3 = 'p', r_a4 = 1)",
      "SELECT r_a1 FROM R WHERE r_id = 80001",
      "SELECT FROM WHERE",  // mid-batch failure must not kill the batch
      "SELECT r_id FROM R WHERE r_id = 80001",
  });
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->size(), 4u);
  EXPECT_TRUE((*batch)[0].status.ok()) << (*batch)[0].status.ToString();
  ASSERT_TRUE((*batch)[1].status.ok());
  ASSERT_EQ((*batch)[1].outcome.result.rows.size(), 1u);
  EXPECT_EQ((*batch)[1].outcome.result.rows[0][0].as_int64(), 5);
  EXPECT_EQ((*batch)[2].status.code(), StatusCode::kParseError);
  ASSERT_TRUE((*batch)[3].status.ok());
  EXPECT_EQ((*batch)[3].outcome.result.rows.size(), 1u);

  // The connection survives per-statement failures and stays usable for
  // both pipelined and classic one-at-a-time requests.
  EXPECT_TRUE((*client)->Ping().ok());
  EXPECT_TRUE((*client)->Execute("SELECT r_id FROM R WHERE r_id < 4").ok());
}

TEST(ServerTest, LargePipelinedBatchKeepsSequence) {
  auto server = Server::Start(Figure4ServerOptions());
  ASSERT_TRUE(server.ok());
  auto client = Client::Connect(ClientFor(**server, "pipeline-large"));
  ASSERT_TRUE(client.ok());

  // Well past max_pipeline_depth would stall without backpressure
  // handling; 100+ statements also cross several socket buffers.
  std::vector<std::string> statements;
  for (int i = 0; i < 120; ++i) {
    statements.push_back("SELECT r_id FROM R WHERE r_id = " +
                         std::to_string(i % 50));
  }
  auto batch = (*client)->ExecuteBatch(statements);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->size(), statements.size());
  for (size_t i = 0; i < batch->size(); ++i) {
    ASSERT_TRUE((*batch)[i].status.ok()) << "statement " << i;
    // r_id 0 does not exist (ids start at 1); everything else does.
    EXPECT_EQ((*batch)[i].outcome.result.rows.size(),
              (i % 50) == 0 ? 0u : 1u)
        << "statement " << i;
  }
}

TEST(ServerTest, ConcurrentPipelinedClientsReadTheirOwnWrites) {
  auto server = Server::Start(Figure4ServerOptions());
  ASSERT_TRUE(server.ok());
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      auto client = Client::Connect(
          ClientFor(**server, "pipe-" + std::to_string(t)));
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      int base = 81000 + t * 100;
      std::vector<std::string> statements;
      for (int i = 0; i < 8; ++i) {
        int id = base + i;
        statements.push_back(
            "INSERT R (r_id = " + std::to_string(id) + ", r_a1 = " +
            std::to_string(id) + ", r_a2 = 0.5, r_a3 = 'c', r_a4 = 1)");
        statements.push_back("SELECT r_a1 FROM R WHERE r_id = " +
                             std::to_string(id));
      }
      auto batch = (*client)->ExecuteBatch(statements);
      if (!batch.ok() || batch->size() != statements.size()) {
        failures.fetch_add(1);
        return;
      }
      for (size_t i = 1; i < batch->size(); i += 2) {
        const auto& item = (*batch)[i];
        int id = base + static_cast<int>(i / 2);
        if (!item.status.ok() || item.outcome.result.rows.size() != 1 ||
            item.outcome.result.rows[0][0].as_int64() != id) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ServerTest, ShowSessionsListsRemoteClients) {
  auto server = Server::Start(Figure4ServerOptions());
  ASSERT_TRUE(server.ok());
  auto alice = Client::Connect(ClientFor(**server, "alice"));
  auto bob = Client::Connect(ClientFor(**server, "bob"));
  ASSERT_TRUE(alice.ok());
  ASSERT_TRUE(bob.ok());

  ASSERT_TRUE((*alice)->Execute("SELECT r_id FROM R WHERE r_id = 1").ok());

  auto sessions = (*bob)->Execute("SHOW SESSIONS");
  ASSERT_TRUE(sessions.ok()) << sessions.status().ToString();
  int name_col = ColumnIndex(sessions->result, "session");
  int peer_col = ColumnIndex(sessions->result, "peer");
  int stmts_col = ColumnIndex(sessions->result, "statements");
  ASSERT_GE(name_col, 0);
  ASSERT_GE(peer_col, 0);
  ASSERT_GE(stmts_col, 0);

  bool saw_alice = false, saw_bob = false;
  for (const Row& row : sessions->result.rows) {
    const std::string& name = row[name_col].as_string();
    if (name == "alice") {
      saw_alice = true;
      EXPECT_EQ(row[stmts_col].as_int64(), 1);
      EXPECT_NE(row[peer_col].as_string().find("127.0.0.1"),
                std::string::npos);
    }
    if (name == "bob") saw_bob = true;
  }
  EXPECT_TRUE(saw_alice);
  EXPECT_TRUE(saw_bob);

  // A departed session disappears.
  (*alice)->Close();
  // The server processes the goodbye asynchronously; poll briefly.
  bool gone = false;
  for (int i = 0; i < 50 && !gone; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    auto again = (*bob)->Execute("SHOW SESSIONS");
    ASSERT_TRUE(again.ok());
    gone = true;
    for (const Row& row : again->result.rows) {
      if (row[name_col].as_string() == "alice") gone = false;
    }
  }
  EXPECT_TRUE(gone);
}

TEST(ServerTest, ShowQueriesAttributesStatementsToSessions) {
  auto server = Server::Start(Figure4ServerOptions());
  ASSERT_TRUE(server.ok());
  auto alice = Client::Connect(ClientFor(**server, "alice"));
  auto bob = Client::Connect(ClientFor(**server, "bob"));
  ASSERT_TRUE(alice.ok());
  ASSERT_TRUE(bob.ok());

  ASSERT_TRUE((*alice)->Execute("SELECT r_a1 FROM R WHERE r_id = 7").ok());

  auto queries = (*bob)->Execute("SHOW QUERIES LIMIT 10");
  ASSERT_TRUE(queries.ok()) << queries.status().ToString();
  int session_col = ColumnIndex(queries->result, "session");
  int query_col = ColumnIndex(queries->result, "query");
  ASSERT_GE(session_col, 0);
  ASSERT_GE(query_col, 0);
  bool attributed = false;
  for (const Row& row : queries->result.rows) {
    if (row[session_col].as_string() == "alice" &&
        row[query_col].as_string().find("r_id = 7") != std::string::npos) {
      attributed = true;
    }
  }
  EXPECT_TRUE(attributed);
}

TEST(ServerTest, PingPong) {
  auto server = Server::Start(ServerOptions{});
  ASSERT_TRUE(server.ok());
  auto client = Client::Connect(ClientFor(**server, "pinger"));
  ASSERT_TRUE(client.ok());
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE((*client)->Ping().ok());
  }
}

TEST(ServerTest, MaxConnectionsGetTypedBackpressure) {
  ServerOptions options;
  options.port = 0;
  options.max_connections = 2;
  auto server = Server::Start(std::move(options));
  ASSERT_TRUE(server.ok());

  auto first = Client::Connect(ClientFor(**server, "c1"));
  auto second = Client::Connect(ClientFor(**server, "c2"));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());

  auto third = Client::Connect(ClientFor(**server, "c3"));
  ASSERT_FALSE(third.ok());
  EXPECT_EQ(third.status().code(), StatusCode::kUnavailable)
      << third.status().ToString();
  EXPECT_NE(third.status().message().find("limit"), std::string::npos);

  // Releasing a slot lets the next connection in (retry covers the
  // server's asynchronous goodbye processing).
  (*first)->Close();
  Client::Options retry = ClientFor(**server, "c4");
  retry.connect_retries = 25;
  retry.connect_retry_pause_ms = 100;
  auto fourth = [&] {
    for (int i = 0; i < 25; ++i) {
      auto attempt = Client::Connect(retry);
      if (attempt.ok()) return attempt;
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    return Client::Connect(retry);
  }();
  EXPECT_TRUE(fourth.ok()) << fourth.status().ToString();
}

TEST(ServerTest, IdleConnectionsAreClosed) {
  ServerOptions options;
  options.port = 0;
  options.idle_timeout_ms = 150;
  auto server = Server::Start(std::move(options));
  ASSERT_TRUE(server.ok());
  auto client = Client::Connect(ClientFor(**server, "sleepy"));
  ASSERT_TRUE(client.ok());

  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  auto late = (*client)->Execute("SHOW METRICS LIKE 'server.*'");
  ASSERT_FALSE(late.ok());
  // Either the typed idle-timeout error frame arrived, or the close beat
  // our request; both are clean outcomes, a hang or crash is not.
  EXPECT_TRUE(late.status().code() == StatusCode::kDeadlineExceeded ||
              late.status().code() == StatusCode::kUnavailable ||
              late.status().code() == StatusCode::kIOError)
      << late.status().ToString();
}

TEST(ServerTest, RequestDeadlineReturnsTypedError) {
  ServerOptions options = Figure4ServerOptions();
  options.runner.figure4_num_r = 1500;
  options.runner.figure4_num_s = 400;
  options.request_deadline_ms = 1;
  auto server = Server::Start(std::move(options));
  ASSERT_TRUE(server.ok());
  auto client = Client::Connect(ClientFor(**server, "deadline"));
  ASSERT_TRUE(client.ok());

  // A three-way join over the preloaded data takes well over 1 ms.
  auto heavy = (*client)->Execute(
      "SELECT r.r_id, s.s_id, rs_a1 FROM R r JOIN S s ON RS");
  ASSERT_FALSE(heavy.ok());
  EXPECT_EQ(heavy.status().code(), StatusCode::kDeadlineExceeded)
      << heavy.status().ToString();
  EXPECT_NE(heavy.status().message().find("deadline"), std::string::npos);

  // The connection survives a deadline miss.
  EXPECT_TRUE((*client)->Ping().ok());
}

TEST(ServerTest, OversizedResultIsATypedErrorAndKeepsTheConnection) {
  auto server = Server::Start(Figure4ServerOptions());
  ASSERT_TRUE(server.ok());
  auto client = Client::Connect(ClientFor(**server, "oversized"));
  ASSERT_TRUE(client.ok());

  // 20 rows of 1 MB: their projection encodes past kMaxFramePayloadBytes.
  const std::string big(1u << 20, 'x');
  for (int i = 0; i < 20; ++i) {
    auto insert = (*client)->Execute(
        "INSERT R (r_id = " + std::to_string(95000 + i) +
        ", r_a1 = 1, r_a2 = 0.5, r_a3 = '" + big + "', r_a4 = 2)");
    ASSERT_TRUE(insert.ok()) << insert.status().ToString();
  }
  auto large = (*client)->Execute("SELECT r_id, r_a3 FROM R WHERE r_a1 = 1");
  ASSERT_FALSE(large.ok());
  EXPECT_EQ(large.status().code(), StatusCode::kInvalidArgument)
      << large.status().ToString();
  EXPECT_NE(large.status().message().find("frame limit"), std::string::npos)
      << large.status().ToString();

  // The next statement on the same connection still gets its answer.
  auto count = (*client)->Execute("SELECT count(*) FROM R");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  ASSERT_EQ(count->result.rows.size(), 1u);
  EXPECT_EQ(count->result.rows[0][0].as_int64(), 200 + 20);
}

TEST(ServerTest, GracefulShutdownDrainsAndCheckpoints) {
  std::string dir = FreshDir("shutdown");
  ServerOptions options = Figure4ServerOptions();
  options.runner.attach_dir = dir;
  auto server = Server::Start(std::move(options));
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  auto client = Client::Connect(ClientFor(**server, "writer"));
  ASSERT_TRUE(client.ok());
  for (int i = 0; i < 20; ++i) {
    auto insert = (*client)->Execute(
        "INSERT R (r_id = " + std::to_string(70000 + i) + ", r_a1 = " +
        std::to_string(i) + ", r_a2 = 1.0, r_a3 = 'd', r_a4 = 0)");
    ASSERT_TRUE(insert.ok()) << insert.status().ToString();
  }

  // Fire one more statement from a thread while Stop() runs, to exercise
  // the drain path. Depending on timing it completes or sees the close;
  // either way nothing may crash or hang.
  std::thread racer([&] {
    (void)(*client)->Execute("SELECT r_id FROM R WHERE r_id >= 70000");
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_TRUE((*server)->Stop().ok());
  racer.join();
  server->reset();

  // Reopen the directory: every acknowledged insert is there, and the
  // shutdown checkpoint collapsed the WAL (nothing to replay).
  api::StatementRunner::Options reopen;
  reopen.attach_dir = dir;
  auto runner = api::StatementRunner::Create(std::move(reopen));
  ASSERT_TRUE(runner.ok()) << runner.status().ToString();
  const auto& info = (*runner)->durable()->recovery_info();
  EXPECT_TRUE(info.had_snapshot);
  EXPECT_EQ(info.records_replayed, 0u);
  auto rows = (*runner)->Execute("SELECT r_id FROM R WHERE r_id >= 70000");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->result.rows.size(), 20u);
}

// ---- The hammer -----------------------------------------------------------

/// 32 concurrent clients firing mixed INSERT / point-SELECT /
/// SHOW SESSIONS / CHECKPOINT traffic at one server, for each mapping
/// preset M1-M6. Every client checks read-your-writes on its own keys
/// (disjoint key ranges make the serial oracle per key exact), and at
/// the end a fresh client verifies the full set of acknowledged inserts
/// is visible — the engine-level statement lock must have serialized
/// writers correctly under every physical mapping.
TEST(ServerHammerTest, MixedWorkloadAcrossMappingsM1ToM6) {
  const std::vector<std::string> presets = {"m1", "m2", "m3",
                                            "m4", "m5", "m6"};
  constexpr int kClients = 32;
  constexpr int kInsertsPerClient = 3;
  for (const std::string& preset : presets) {
    SCOPED_TRACE("mapping " + preset);
    ServerOptions options;
    options.port = 0;
    options.max_connections = kClients + 4;
    options.runner.figure4 = true;
    options.runner.figure4_num_r = 60;
    options.runner.figure4_num_s = 30;
    options.runner.spec = api::StatementRunner::PresetByName(preset);
    options.runner.attach_dir = FreshDir("hammer_" + preset);
    auto server = Server::Start(std::move(options));
    ASSERT_TRUE(server.ok()) << server.status().ToString();

    std::atomic<int> failures{0};
    std::vector<std::set<int64_t>> acked(kClients);
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int i = 0; i < kClients; ++i) {
      clients.emplace_back([&, i] {
        Client::Options copt = ClientFor(**server, "h" + std::to_string(i));
        copt.connect_retries = 20;
        auto client = Client::Connect(copt);
        if (!client.ok()) {
          ++failures;
          return;
        }
        for (int k = 0; k < kInsertsPerClient; ++k) {
          int64_t id = 100000 + i * 100 + k;
          auto insert = (*client)->Execute(
              "INSERT R (r_id = " + std::to_string(id) + ", r_a1 = " +
              std::to_string(i) + ", r_a2 = 0.5, r_a3 = 'h', r_a4 = 1)");
          if (!insert.ok()) {
            ++failures;
            continue;
          }
          acked[i].insert(id);
          // Read-your-writes: this key is ours alone, so the point read
          // must see exactly the acknowledged value.
          auto read = (*client)->Execute("SELECT r_a1 FROM R WHERE r_id = " +
                                         std::to_string(id));
          if (!read.ok() || read->result.rows.size() != 1 ||
              read->result.rows[0][0].as_int64() != i) {
            ++failures;
          }
        }
        if (i % 5 == 0) {
          if (!(*client)->Execute("SHOW SESSIONS").ok()) ++failures;
        }
        if (i % 8 == 0) {
          if (!(*client)->Execute("CHECKPOINT").ok()) ++failures;
        }
      });
    }
    for (std::thread& t : clients) t.join();
    EXPECT_EQ(failures.load(), 0);

    // Serial oracle: a fresh session must see the union of everything
    // acknowledged, exactly once each.
    std::set<int64_t> expected;
    for (const auto& per_client : acked) {
      expected.insert(per_client.begin(), per_client.end());
    }
    auto oracle = Client::Connect(ClientFor(**server, "oracle"));
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    auto rows =
        (*oracle)->Execute("SELECT r_id FROM R WHERE r_id >= 100000");
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    std::set<int64_t> got;
    for (const Row& row : rows->result.rows) {
      got.insert(row[0].as_int64());
    }
    EXPECT_EQ(got, expected);
    EXPECT_EQ(rows->result.rows.size(), expected.size()) << "duplicate rows";

    ASSERT_TRUE((*server)->Stop().ok());
  }
}

}  // namespace
}  // namespace server
}  // namespace erbium
