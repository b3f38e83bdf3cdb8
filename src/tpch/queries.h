// The names of the 22 TPC-H queries. The queries themselves are logical
// plans (tpch/plans.h) and run through plan::QuerySession, the only
// query runner (plan/query_session.h).
#ifndef MA_TPCH_QUERIES_H_
#define MA_TPCH_QUERIES_H_

namespace ma::tpch {

inline constexpr int kNumQueries = 22;

/// Short description of query `q` (1-based).
const char* QueryName(int q);

}  // namespace ma::tpch

#endif  // MA_TPCH_QUERIES_H_
