#ifndef ERBIUM_ERQL_PARSER_H_
#define ERBIUM_ERQL_PARSER_H_

#include <string>

#include "common/lexer.h"
#include "common/status.h"
#include "erql/ast.h"

namespace erbium {
namespace erql {

/// Recursive-descent parser for the ERQL dialect:
///
///   [EXPLAIN [ANALYZE] | TRACE [INTO '<file>']]
///   SELECT [DISTINCT] item [AS name], ...
///   FROM <entity> [alias]
///     [JOIN <entity> [alias] ON <relationship-name or expr>] ...
///   [WHERE expr]
///   [GROUP BY expr, ...]          -- optional: inferred from SELECT
///   [ORDER BY expr [ASC|DESC], ...]
///   [LIMIT n]
///
/// Expressions: comparison/arithmetic/boolean operators, IS [NOT] NULL,
/// IN (literal, ...), function calls (scalar builtins, aggregates with
/// optional DISTINCT, unnest), struct(name: expr, ...) constructors for
/// nested outputs, count(*), literals ('str', 123, 4.5, true, false,
/// null), and [lit, lit, ...] array literals.
///
/// Telemetry introspection statements (see StatementKind in ast.h):
///   SHOW METRICS [LIKE '<glob>'];
///   SHOW QUERIES [SLOW] [LIMIT n];
class Parser {
 public:
  static Result<Query> Parse(const std::string& text);
  /// Parses an already tokenized statement. Literal tokens that carry a
  /// parameter slot (PlanCache::Shape) fill Query::params, and each
  /// standalone one becomes a kLiteral tagged with its slot.
  static Result<Query> Parse(std::vector<Token> tokens);
};

}  // namespace erql
}  // namespace erbium

#endif  // ERBIUM_ERQL_PARSER_H_
