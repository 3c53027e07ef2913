// Subscription inspector: a developer tool over the library's front-end.
//
// Takes a subscription expression (or uses the paper's Fig. 1 example) and
// reports everything the engines would do with it: the parsed tree, the cost
// of canonicalising it (DNF blow-up — exactly what a conjunctive-only system
// pays), its byte encoding, and the simplified form.
//
//   $ ./examples/subscription_inspector
//   $ ./examples/subscription_inspector 'a > 1 and (b == 2 or b == 3)'
#include <cinttypes>
#include <cstdio>

#include "subscription/dnf.h"
#include "subscription/encoded_tree.h"
#include "subscription/parser.h"
#include "subscription/printer.h"
#include "subscription/simplify.h"

namespace {

void print_tree(const ncps::ast::Node& node, const ncps::PredicateTable& table,
                const ncps::AttributeRegistry& attrs, int depth) {
  using ncps::ast::NodeKind;
  std::printf("%*s", depth * 2, "");
  switch (node.kind) {
    case NodeKind::Leaf:
      std::printf("%s  [id(p)=%u]\n",
                  table.get(node.pred).to_display_string(attrs).c_str(),
                  node.pred.value());
      return;
    case NodeKind::And: std::printf("AND\n"); break;
    case NodeKind::Or: std::printf("OR\n"); break;
    case NodeKind::Not: std::printf("NOT\n"); break;
  }
  for (const auto& c : node.children) print_tree(*c, table, attrs, depth + 1);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ncps;

  const char* text = argc > 1
                         ? argv[1]
                         : "(a > 10 or a <= 5 or b == 1) and "
                           "(c <= 20 or c == 30 or d == 5)";

  AttributeRegistry attrs;
  PredicateTable table;
  ast::Expr expr;
  try {
    expr = parse_subscription(text, attrs, table);
  } catch (const ParseError& e) {
    std::fprintf(stderr, "parse error: %s\n", e.what());
    return 1;
  }

  std::printf("input:       %s\n", text);
  std::printf("canonical:   %s\n",
              print_expression(expr.root(), table, attrs).c_str());
  std::printf("\nsubscription tree (%zu nodes, %zu predicates, depth %zu):\n",
              ast::node_count(expr.root()), ast::leaf_count(expr.root()),
              ast::depth(expr.root()));
  print_tree(expr.root(), table, attrs, 1);

  const DnfSize blowup = estimate_dnf_size(expr.root());
  std::printf("\ncanonicalisation cost (what a conjunctive-only engine pays):\n");
  std::printf("  DNF disjuncts:       %" PRIu64 "%s\n", blowup.disjuncts,
              blowup.saturated() ? " (saturated!)" : "");
  std::printf("  DNF literal entries: %" PRIu64 "\n", blowup.literal_entries);

  std::vector<std::byte> v1;
  encode_tree(expr.root(), v1);
  std::printf("\nencoding (what the non-canonical tree engine stores):\n");
  std::printf("  v1 (paper layout): %zu bytes\n", v1.size());

  const ast::Expr slim = simplify(expr.root(), table);
  std::printf("\nsimplified:  %s\n",
              print_expression(slim.root(), table, attrs).c_str());
  if (ast::node_count(slim.root()) < ast::node_count(expr.root())) {
    std::printf("  (%zu → %zu nodes)\n", ast::node_count(expr.root()),
                ast::node_count(slim.root()));
  } else {
    std::printf("  (already minimal)\n");
  }
  return 0;
}
