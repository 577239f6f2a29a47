#include "checks.h"

#include <cstring>
#include <functional>
#include <unordered_set>
#include <utility>

#include "ishare/harness/result_compare.h"
#include "ishare/workload/tpch.h"

namespace perfbench {

using ishare::Value;

namespace {

const BaseTable& Table(const BaseTables& tables, const char* name) {
  auto it = tables.find(name);
  CHECK(it != tables.end()) << "no base table " << name;
  return it->second;
}

int Col(const BaseTable& t, const char* name) {
  return t.schema.IndexOfOrDie(name);
}

// The cells RowsEquivalent compares exactly (strings and integers), as a
// byte string: rows that can match share this key.
std::string ExactKey(const Row& row) {
  std::string key;
  for (const Value& v : row) {
    if (v.is_string()) {
      key += 's';
      key += v.AsString();
      key += '\0';
    } else if (v.is_int()) {
      int64_t i = v.AsInt();
      key += 'i';
      key.append(reinterpret_cast<const char*>(&i), sizeof(i));
    } else {
      key += 'f';
    }
  }
  return key;
}

}  // namespace

BaseTables ReadBaseTables(ishare::StreamSource* source) {
  BaseTables out;
  source->Reset();
  CHECK(source->AdvanceTo(1.0).ok());
  for (const std::string& name : source->TableNames()) {
    const ishare::DeltaBuffer* buf = source->buffer(name);
    BaseTable t{buf->schema(), {}};
    t.rows.reserve(buf->log().size());
    for (const ishare::DeltaTuple& d : buf->log()) {
      CHECK(d.weight == 1) << "base table " << name << " holds a non-insert";
      t.rows.push_back(d.row);
    }
    out.emplace(name, std::move(t));
  }
  source->Reset();
  return out;
}

QueryResult PlainQ4(const BaseTables& tables) {
  const BaseTable& orders = Table(tables, "orders");
  const BaseTable& line = Table(tables, "lineitem");
  const int o_key = Col(orders, "o_orderkey");
  const int o_date = Col(orders, "o_orderdate");
  const int o_prio = Col(orders, "o_orderpriority");
  const int l_key = Col(line, "l_orderkey");
  const int l_commit = Col(line, "l_commitdate");
  const int l_receipt = Col(line, "l_receiptdate");

  std::unordered_set<int64_t> late;  // orders with a late lineitem
  for (const Row& r : line.rows) {
    if (r[l_commit].AsInt() < r[l_receipt].AsInt()) {
      late.insert(r[l_key].AsInt());
    }
  }
  const int64_t lo = ishare::TpchDate(1993, 7, 1);
  const int64_t hi = ishare::TpchDate(1993, 10, 1);
  std::map<std::string, int64_t> counts;
  for (const Row& r : orders.rows) {
    int64_t d = r[o_date].AsInt();
    if (d >= lo && d < hi && late.count(r[o_key].AsInt()) > 0) {
      ++counts[r[o_prio].AsString()];
    }
  }
  QueryResult out;
  for (const auto& [prio, n] : counts) {
    out[Row{Value(prio), Value(n)}] = 1;
  }
  return out;
}

QueryResult PlainQ9(const BaseTables& tables) {
  const BaseTable& part = Table(tables, "part");
  const BaseTable& line = Table(tables, "lineitem");
  const BaseTable& supp = Table(tables, "supplier");
  const BaseTable& ps = Table(tables, "partsupp");
  const BaseTable& orders = Table(tables, "orders");
  const BaseTable& nation = Table(tables, "nation");
  const int p_key = Col(part, "p_partkey");
  const int p_name = Col(part, "p_name");
  const int l_order = Col(line, "l_orderkey");
  const int l_part = Col(line, "l_partkey");
  const int l_supp = Col(line, "l_suppkey");
  const int l_qty = Col(line, "l_quantity");
  const int l_price = Col(line, "l_extendedprice");
  const int l_disc = Col(line, "l_discount");
  const int s_key = Col(supp, "s_suppkey");
  const int s_nation = Col(supp, "s_nationkey");
  const int ps_part = Col(ps, "ps_partkey");
  const int ps_supp = Col(ps, "ps_suppkey");
  const int ps_cost = Col(ps, "ps_supplycost");
  const int o_key = Col(orders, "o_orderkey");
  const int o_date = Col(orders, "o_orderdate");
  const int n_key = Col(nation, "n_nationkey");
  const int n_name = Col(nation, "n_name");

  // Every join key is a primary key of the generated tables, so each
  // lineitem row meets at most one row of each other table.
  std::unordered_set<int64_t> green;
  for (const Row& r : part.rows) {
    if (r[p_name].AsString().find("green") != std::string::npos) {
      CHECK(green.insert(r[p_key].AsInt()).second);
    }
  }
  auto index = [](const BaseTable& t, int key, int val) {
    std::unordered_map<int64_t, Value> out;
    for (const Row& r : t.rows) {
      CHECK(out.emplace(r[key].AsInt(), r[val]).second) << "duplicate key";
    }
    return out;
  };
  const auto supp_nation = index(supp, s_key, s_nation);
  const auto order_date = index(orders, o_key, o_date);
  const auto nation_name = index(nation, n_key, n_name);
  std::map<std::pair<int64_t, int64_t>, double> cost;
  for (const Row& r : ps.rows) {
    CHECK(cost.emplace(std::pair(r[ps_part].AsInt(), r[ps_supp].AsInt()),
                       r[ps_cost].AsDouble())
              .second);
  }

  std::map<std::pair<std::string, int64_t>, double> profit;
  for (const Row& r : line.rows) {
    const int64_t pk = r[l_part].AsInt(), sk = r[l_supp].AsInt();
    if (green.count(pk) == 0) continue;
    auto c = cost.find({pk, sk});
    auto sn = supp_nation.find(sk);
    auto od = order_date.find(r[l_order].AsInt());
    if (c == cost.end() || sn == supp_nation.end() || od == order_date.end()) {
      continue;
    }
    auto nn = nation_name.find(sn->second.AsInt());
    if (nn == nation_name.end()) continue;
    // The engine's Revenue() - ps_supplycost * l_quantity, term by term.
    const double amount =
        r[l_price].AsDouble() * (1.0 - r[l_disc].AsDouble()) -
        c->second * r[l_qty].AsDouble();
    const int64_t year = od->second.AsInt() / 365 + 1992;  // dates are >= 0
    profit[{nn->second.AsString(), year}] += amount;
  }
  QueryResult out;
  for (const auto& [key, sum] : profit) {
    out[Row{Value(key.first), Value(key.second), Value(sum)}] += 1;
  }
  return out;
}

std::string CheckResult(const std::string& what, const QueryResult& got,
                        const QueryResult& want) {
  if (got.size() != want.size()) {
    return what + ": " + std::to_string(got.size()) + " rows, expected " +
           std::to_string(want.size());
  }
  std::unordered_map<std::string, std::vector<std::pair<const Row*, int64_t>>>
      pending;
  for (const auto& [row, n] : want) pending[ExactKey(row)].push_back({&row, n});
  for (const auto& [row, n] : got) {
    auto it = pending.find(ExactKey(row));
    bool found = false;
    if (it != pending.end()) {
      auto& cands = it->second;
      for (size_t i = 0; i < cands.size(); ++i) {
        if (cands[i].second == n &&
            ishare::RowsEquivalent(row, *cands[i].first)) {
          cands[i] = cands.back();
          cands.pop_back();
          found = true;
          break;
        }
      }
    }
    if (!found) {
      return what + ": unexpected row " + ishare::RowToString(row) + " x" +
             std::to_string(n);
    }
  }
  return "";
}

std::string CheckPaces(const SubplanGraph& graph, const PaceConfig& paces,
                       int max_pace) {
  if (static_cast<int>(paces.size()) != graph.num_subplans()) {
    return std::to_string(paces.size()) + " paces for " +
           std::to_string(graph.num_subplans()) + " subplans";
  }
  for (int s = 0; s < graph.num_subplans(); ++s) {
    if (paces[s] < 1 || paces[s] > max_pace) {
      return "subplan " + std::to_string(s) + " has pace " +
             std::to_string(paces[s]) + " outside [1, " +
             std::to_string(max_pace) + "]";
    }
    for (int c : graph.subplan(s).children) {
      if (paces[s] > paces[c]) {
        return "subplan " + std::to_string(s) + " pace " +
               std::to_string(paces[s]) + " exceeds child " +
               std::to_string(c) + " pace " + std::to_string(paces[c]);
      }
    }
  }
  return "";
}

Fingerprint Digest(const std::string& state) {
  return Fingerprint{state.size(), std::hash<std::string>()(state)};
}

std::string CheckFingerprint(const Fingerprint& got, const Fingerprint& want) {
  if (got.bytes == want.bytes && got.hash == want.hash) return "";
  return "state fingerprint differs: " + std::to_string(got.bytes) +
         " bytes, hash " + std::to_string(got.hash) + ", expected " +
         std::to_string(want.bytes) + " bytes, hash " +
         std::to_string(want.hash);
}

std::string CheckIdentical(const std::string& what,
                           const std::vector<double>& values) {
  for (size_t i = 1; i < values.size(); ++i) {
    if (std::memcmp(&values[i], &values[0], sizeof(double)) != 0) {
      return what + " differs between windows: " + std::to_string(values[0]) +
             " vs " + std::to_string(values[i]);
    }
  }
  return "";
}

}  // namespace perfbench
