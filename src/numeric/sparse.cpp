#include "numeric/sparse.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <queue>

#include "obs/metrics.h"

namespace rlcsim::numeric {
namespace {

double magnitude(double v) { return std::fabs(v); }
double magnitude(const std::complex<double>& v) { return std::abs(v); }

}  // namespace

// ------------------------------------------------------------------ pattern

SparsePatternPtr build_pattern(int n, const std::vector<std::pair<int, int>>& entries,
                               std::vector<int>* slots) {
  if (n < 0) throw std::invalid_argument("build_pattern: negative dimension");
  for (const auto& [r, c] : entries)
    if (r < 0 || r >= n || c < 0 || c >= n)
      throw std::out_of_range("build_pattern: entry outside matrix");

  std::vector<int> order(entries.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return entries[a] < entries[b];
  });

  auto pattern = std::make_shared<SparsePattern>();
  pattern->n = n;
  pattern->row_ptr.assign(static_cast<std::size_t>(n) + 1, 0);
  pattern->col_idx.reserve(entries.size());
  if (slots) slots->assign(entries.size(), -1);

  int prev_row = -1, prev_col = -1;
  for (int k : order) {
    const auto [r, c] = entries[static_cast<std::size_t>(k)];
    if (r != prev_row || c != prev_col) {
      pattern->col_idx.push_back(c);
      ++pattern->row_ptr[static_cast<std::size_t>(r) + 1];
      prev_row = r;
      prev_col = c;
    }
    if (slots)
      (*slots)[static_cast<std::size_t>(k)] = static_cast<int>(pattern->col_idx.size()) - 1;
  }
  for (int i = 0; i < n; ++i) pattern->row_ptr[i + 1] += pattern->row_ptr[i];
  return pattern;
}

// --------------------------------------------------------------------- CSR

template <typename T>
SparseMatrix<T>::SparseMatrix(int n, const std::vector<Triplet<T>>& triplets) {
  std::vector<std::pair<int, int>> positions(triplets.size());
  for (std::size_t k = 0; k < triplets.size(); ++k)
    positions[k] = {triplets[k].row, triplets[k].col};
  std::vector<int> slots;
  pattern_ = build_pattern(n, positions, &slots);
  values_.assign(static_cast<std::size_t>(pattern_->nnz()), T{});
  for (std::size_t k = 0; k < triplets.size(); ++k)
    values_[static_cast<std::size_t>(slots[k])] += triplets[k].value;
}

template <typename T>
std::vector<T> SparseMatrix<T>::multiply(const std::vector<T>& x) const {
  const int n = size();
  if (x.size() != static_cast<std::size_t>(n))
    throw std::invalid_argument("SparseMatrix::multiply: size mismatch");
  std::vector<T> y(static_cast<std::size_t>(n), T{});
  for (int r = 0; r < n; ++r) {
    T acc{};
    for (int p = pattern_->row_ptr[r]; p < pattern_->row_ptr[r + 1]; ++p)
      acc += values_[static_cast<std::size_t>(p)] *
             x[static_cast<std::size_t>(pattern_->col_idx[static_cast<std::size_t>(p)])];
    y[static_cast<std::size_t>(r)] = acc;
  }
  return y;
}

template <typename T>
Matrix<T> SparseMatrix<T>::to_dense() const {
  const int n = size();
  Matrix<T> m(static_cast<std::size_t>(n), static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r)
    for (int p = pattern_->row_ptr[r]; p < pattern_->row_ptr[r + 1]; ++p)
      m(static_cast<std::size_t>(r),
        static_cast<std::size_t>(pattern_->col_idx[static_cast<std::size_t>(p)])) +=
          values_[static_cast<std::size_t>(p)];
  return m;
}

template class SparseMatrix<double>;
template class SparseMatrix<std::complex<double>>;

// ---------------------------------------------------------------- ordering

namespace {

// Symmetrized adjacency (pattern union its transpose, self-loops dropped).
std::vector<std::vector<int>> symmetric_adjacency(const SparsePattern& pattern) {
  const int n = pattern.n;
  std::vector<std::vector<int>> adj(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    for (int p = pattern.row_ptr[r]; p < pattern.row_ptr[r + 1]; ++p) {
      const int c = pattern.col_idx[static_cast<std::size_t>(p)];
      if (c == r) continue;
      adj[static_cast<std::size_t>(r)].push_back(c);
      adj[static_cast<std::size_t>(c)].push_back(r);
    }
  }
  for (auto& nbrs : adj) {
    std::sort(nbrs.begin(), nbrs.end());
    nbrs.erase(std::unique(nbrs.begin(), nbrs.end()), nbrs.end());
  }
  return adj;
}

// BFS from `start`; returns a minimum-degree vertex of the last level
// (a pseudo-peripheral candidate).
int bfs_farthest(const std::vector<std::vector<int>>& adj, int start,
                 std::vector<int>& level_buf) {
  std::fill(level_buf.begin(), level_buf.end(), -1);
  std::queue<int> q;
  q.push(start);
  level_buf[static_cast<std::size_t>(start)] = 0;
  int last_level = 0;
  std::vector<int> last_nodes{start};
  while (!q.empty()) {
    const int v = q.front();
    q.pop();
    const int lv = level_buf[static_cast<std::size_t>(v)];
    if (lv > last_level) {
      last_level = lv;
      last_nodes.clear();
    }
    if (lv == last_level) last_nodes.push_back(v);
    for (int w : adj[static_cast<std::size_t>(v)]) {
      if (level_buf[static_cast<std::size_t>(w)] < 0) {
        level_buf[static_cast<std::size_t>(w)] = lv + 1;
        q.push(w);
      }
    }
  }
  int best = last_nodes.front();
  for (int v : last_nodes)
    if (adj[static_cast<std::size_t>(v)].size() < adj[static_cast<std::size_t>(best)].size())
      best = v;
  return best;
}

}  // namespace

std::vector<int> rcm_ordering(const SparsePattern& pattern) {
  const int n = pattern.n;
  const auto adj = symmetric_adjacency(pattern);

  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(n));
  std::vector<char> visited(static_cast<std::size_t>(n), 0);
  std::vector<int> level_buf(static_cast<std::size_t>(n), -1);
  std::vector<int> nbrs;

  for (int seed = 0; seed < n; ++seed) {
    if (visited[static_cast<std::size_t>(seed)]) continue;
    // Lowest-degree unvisited vertex of this component would be ideal; the
    // double-BFS pseudo-peripheral refinement below makes the exact seed
    // unimportant.
    int start = bfs_farthest(adj, seed, level_buf);
    start = bfs_farthest(adj, start, level_buf);

    // Cuthill-McKee BFS with neighbors enqueued in ascending degree order.
    std::queue<int> q;
    q.push(start);
    visited[static_cast<std::size_t>(start)] = 1;
    while (!q.empty()) {
      const int v = q.front();
      q.pop();
      order.push_back(v);
      nbrs.clear();
      for (int w : adj[static_cast<std::size_t>(v)])
        if (!visited[static_cast<std::size_t>(w)]) nbrs.push_back(w);
      std::sort(nbrs.begin(), nbrs.end(), [&](int a, int b) {
        return adj[static_cast<std::size_t>(a)].size() < adj[static_cast<std::size_t>(b)].size();
      });
      for (int w : nbrs) {
        visited[static_cast<std::size_t>(w)] = 1;
        q.push(w);
      }
    }
  }

  std::reverse(order.begin(), order.end());
  return order;
}

// ------------------------------------------------------------------- stats

namespace {

struct LuCounters {
  obs::Counter symbolic{"lu.symbolic"};
  obs::Counter numeric{"lu.numeric"};
  obs::Counter ejected_lanes{"lu.ejected_lanes"};
};

const LuCounters& lu_counters() {
  static const LuCounters counters;
  return counters;
}

}  // namespace

SparseLuStats sparse_lu_stats() {
  const LuCounters& c = lu_counters();
  return {c.symbolic.this_thread_value(), c.numeric.this_thread_value(),
          c.ejected_lanes.this_thread_value()};
}

void count_lu_work(const SparseLuStats& work) {
  const LuCounters& c = lu_counters();
  c.symbolic.add_always(work.symbolic);
  c.numeric.add_always(work.numeric);
  c.ejected_lanes.add_always(work.ejected_lanes);
}

// --------------------------------------------------------------------- LU

template <typename T>
SparseLu<T>::SparseLu(const SparseMatrix<T>& a) {
  n_ = a.size();
  if (n_ == 0) throw std::invalid_argument("SparseLu: empty matrix");
  pattern_ = a.pattern_ptr();

  if (n_ > 2) {
    perm_ = rcm_ordering(*pattern_);
  } else {
    perm_.resize(static_cast<std::size_t>(n_));
    std::iota(perm_.begin(), perm_.end(), 0);
  }
  inv_perm_.resize(static_cast<std::size_t>(n_));
  for (int i = 0; i < n_; ++i) inv_perm_[static_cast<std::size_t>(perm_[i])] = i;

  build_csc(a);
  work_.assign(static_cast<std::size_t>(n_), T{});
  full_factor(a);
}

template <typename T>
void SparseLu<T>::build_csc(const SparseMatrix<T>& a) {
  const auto& pattern = a.pattern();
  const int nnz = pattern.nnz();
  csc_ptr_.assign(static_cast<std::size_t>(n_) + 1, 0);
  csc_row_.resize(static_cast<std::size_t>(nnz));
  csc_src_.resize(static_cast<std::size_t>(nnz));

  for (int p = 0; p < nnz; ++p)
    ++csc_ptr_[static_cast<std::size_t>(
                    inv_perm_[static_cast<std::size_t>(pattern.col_idx[p])]) +
                1];
  for (int j = 0; j < n_; ++j) csc_ptr_[j + 1] += csc_ptr_[j];

  std::vector<int> fill(csc_ptr_.begin(), csc_ptr_.end() - 1);
  for (int r = 0; r < n_; ++r) {
    const int r2 = inv_perm_[static_cast<std::size_t>(r)];
    for (int p = pattern.row_ptr[r]; p < pattern.row_ptr[r + 1]; ++p) {
      const int j2 = inv_perm_[static_cast<std::size_t>(pattern.col_idx[p])];
      const int pos = fill[static_cast<std::size_t>(j2)]++;
      csc_row_[static_cast<std::size_t>(pos)] = r2;
      csc_src_[static_cast<std::size_t>(pos)] = p;
    }
  }
}

template <typename T>
void SparseLu<T>::full_factor(const SparseMatrix<T>& a) {
  const auto& av = a.values();
  const std::size_t reserve = 4 * static_cast<std::size_t>(a.nnz()) +
                              2 * static_cast<std::size_t>(n_);

  lp_.assign(1, 0);
  up_.assign(1, 0);
  li_.clear();
  ui_.clear();
  lx_.clear();
  ux_.clear();
  li_.reserve(reserve);
  lx_.reserve(reserve);
  ui_.reserve(reserve);
  ux_.reserve(reserve);
  pivot_inv_.assign(static_cast<std::size_t>(n_), -1);

  std::vector<T> x(static_cast<std::size_t>(n_), T{});
  std::vector<char> marked(static_cast<std::size_t>(n_), 0);
  std::vector<int> xi(static_cast<std::size_t>(n_));
  std::vector<int> dfs_stack(static_cast<std::size_t>(n_));
  std::vector<int> pos_stack(static_cast<std::size_t>(n_));

  // Iterative DFS through L's structure: the pattern of L\A2(:,j) is the set
  // of rows reachable from A2(:,j)'s rows. Emits into xi[top..n) in
  // topological order. Row indices are A2 (pre-pivot) rows; pivot_inv_ maps
  // a row to its L column once it has been chosen as a pivot.
  const auto dfs = [&](int start, int top) {
    int head = 0;
    dfs_stack[0] = start;
    while (head >= 0) {
      const int i = dfs_stack[static_cast<std::size_t>(head)];
      const int jl = pivot_inv_[static_cast<std::size_t>(i)];
      if (!marked[static_cast<std::size_t>(i)]) {
        marked[static_cast<std::size_t>(i)] = 1;
        pos_stack[static_cast<std::size_t>(head)] = (jl < 0) ? 0 : lp_[jl];
      }
      bool done = true;
      const int p_end = (jl < 0) ? 0 : lp_[jl + 1];
      for (int p = pos_stack[static_cast<std::size_t>(head)]; p < p_end; ++p) {
        const int child = li_[static_cast<std::size_t>(p)];
        if (marked[static_cast<std::size_t>(child)]) continue;
        pos_stack[static_cast<std::size_t>(head)] = p + 1;
        dfs_stack[static_cast<std::size_t>(++head)] = child;
        done = false;
        break;
      }
      if (done) {
        --head;
        xi[static_cast<std::size_t>(--top)] = i;
      }
    }
    return top;
  };

  for (int j = 0; j < n_; ++j) {
    // --- symbolic: reachability of column j ------------------------------
    int top = n_;
    for (int p = csc_ptr_[j]; p < csc_ptr_[j + 1]; ++p) {
      const int i = csc_row_[static_cast<std::size_t>(p)];
      if (!marked[static_cast<std::size_t>(i)]) top = dfs(i, top);
    }

    // --- numeric: x = L \ A2(:,j) ---------------------------------------
    for (int p = top; p < n_; ++p) x[static_cast<std::size_t>(xi[p])] = T{};
    for (int p = csc_ptr_[j]; p < csc_ptr_[j + 1]; ++p)
      x[static_cast<std::size_t>(csc_row_[p])] += av[static_cast<std::size_t>(csc_src_[p])];
    for (int p = top; p < n_; ++p) {
      const int i = xi[static_cast<std::size_t>(p)];
      marked[static_cast<std::size_t>(i)] = 0;  // reset for the next column
      const int jl = pivot_inv_[static_cast<std::size_t>(i)];
      if (jl < 0) continue;
      const T xi_val = x[static_cast<std::size_t>(i)];
      if (xi_val == T{}) continue;
      for (int q = lp_[jl] + 1; q < lp_[jl + 1]; ++q)
        x[static_cast<std::size_t>(li_[q])] -= lx_[static_cast<std::size_t>(q)] * xi_val;
    }

    // --- pivot: largest magnitude among not-yet-pivotal rows -------------
    int pivot_row = -1;
    double pivot_mag = -1.0;
    for (int p = top; p < n_; ++p) {
      const int i = xi[static_cast<std::size_t>(p)];
      if (pivot_inv_[static_cast<std::size_t>(i)] >= 0) continue;
      const double m = magnitude(x[static_cast<std::size_t>(i)]);
      if (m > pivot_mag) {
        pivot_mag = m;
        pivot_row = i;
      }
    }
    if (pivot_row < 0 || pivot_mag <= 0.0)
      throw std::runtime_error("SparseLu: matrix is singular");
    const T pivot = x[static_cast<std::size_t>(pivot_row)];

    // --- emit U(:,j) in discovery (topological) order, pivot last --------
    for (int p = top; p < n_; ++p) {
      const int i = xi[static_cast<std::size_t>(p)];
      const int jl = pivot_inv_[static_cast<std::size_t>(i)];
      if (jl < 0) continue;
      ui_.push_back(jl);
      ux_.push_back(x[static_cast<std::size_t>(i)]);
    }
    ui_.push_back(j);
    ux_.push_back(pivot);
    up_.push_back(static_cast<int>(ui_.size()));

    // --- emit L(:,j): unit diagonal first --------------------------------
    pivot_inv_[static_cast<std::size_t>(pivot_row)] = j;
    li_.push_back(pivot_row);
    lx_.push_back(T{1});
    for (int p = top; p < n_; ++p) {
      const int i = xi[static_cast<std::size_t>(p)];
      if (pivot_inv_[static_cast<std::size_t>(i)] >= 0) continue;
      li_.push_back(i);
      lx_.push_back(x[static_cast<std::size_t>(i)] / pivot);
    }
    lp_.push_back(static_cast<int>(li_.size()));
  }

  // Remap L's rows from A2 space into pivot space so the solves and the
  // refactorization replay work entirely in final row order.
  for (auto& i : li_) i = pivot_inv_[static_cast<std::size_t>(i)];

  count_lu_work({.symbolic = 1, .numeric = 1});
}

template <typename T>
bool SparseLu<T>::numeric_refactor(const SparseMatrix<T>& a) {
  const auto& av = a.values();
  std::vector<T>& x = work_;

  for (int j = 0; j < n_; ++j) {
    for (int q = up_[j]; q < up_[j + 1]; ++q) x[static_cast<std::size_t>(ui_[q])] = T{};
    for (int q = lp_[j]; q < lp_[j + 1]; ++q) x[static_cast<std::size_t>(li_[q])] = T{};
    for (int p = csc_ptr_[j]; p < csc_ptr_[j + 1]; ++p)
      x[static_cast<std::size_t>(pivot_inv_[static_cast<std::size_t>(csc_row_[p])])] +=
          av[static_cast<std::size_t>(csc_src_[p])];

    // Replay the recorded elimination sequence (stored topologically).
    for (int q = up_[j]; q < up_[j + 1] - 1; ++q) {
      const int k = ui_[static_cast<std::size_t>(q)];
      const T ukj = x[static_cast<std::size_t>(k)];
      ux_[static_cast<std::size_t>(q)] = ukj;
      if (ukj == T{}) continue;
      for (int r = lp_[k] + 1; r < lp_[k + 1]; ++r)
        x[static_cast<std::size_t>(li_[r])] -= lx_[static_cast<std::size_t>(r)] * ukj;
    }

    const T pivot = x[static_cast<std::size_t>(j)];
    if (pivot == T{}) return false;  // stale pivot order: caller re-pivots
    ux_[static_cast<std::size_t>(up_[j + 1]) - 1] = pivot;
    lx_[static_cast<std::size_t>(lp_[j])] = T{1};
    for (int r = lp_[j] + 1; r < lp_[j + 1]; ++r)
      lx_[static_cast<std::size_t>(r)] = x[static_cast<std::size_t>(li_[r])] / pivot;
  }

  count_lu_work({.numeric = 1});
  return true;
}

template <typename T>
void SparseLu<T>::refactor(const SparseMatrix<T>& a) {
  if (a.pattern_ptr() != pattern_) {
    // Structurally identical patterns are as good as pointer-identical ones:
    // the recorded CSC scatter map (csc_src_) indexes CSR value positions,
    // which depend only on the structure. Adopting the caller's pattern
    // pointer makes every later refactor against it an O(1) check. This is
    // what lets a sweep reuse one symbolic analysis across circuits that are
    // rebuilt per grid point with identical topology.
    if (!a.pattern_ptr() || !pattern_ || !same_structure(a.pattern(), *pattern_))
      throw std::invalid_argument("SparseLu::refactor: pattern mismatch");
    pattern_ = a.pattern_ptr();
  }
  if (!numeric_refactor(a)) full_factor(a);
}

template <typename T>
std::vector<T> SparseLu<T>::solve(const std::vector<T>& b) const {
  std::vector<T> x = b;
  solve_in_place(x);
  return x;
}

template <typename T>
void SparseLu<T>::solve_in_place(std::vector<T>& x) const {
  if (x.size() != static_cast<std::size_t>(n_))
    throw std::invalid_argument("SparseLu::solve: rhs size mismatch");
  std::vector<T>& w = work_;

  // A2 = A(perm,perm) and P2 A2 = L U, so w = P2 * (b permuted by perm).
  for (int i = 0; i < n_; ++i)
    w[static_cast<std::size_t>(pivot_inv_[i])] = x[static_cast<std::size_t>(perm_[i])];

  for (int j = 0; j < n_; ++j) {  // L: unit diagonal stored first per column
    const T xj = w[static_cast<std::size_t>(j)];
    if (xj == T{}) continue;
    for (int p = lp_[j] + 1; p < lp_[j + 1]; ++p)
      w[static_cast<std::size_t>(li_[p])] -= lx_[static_cast<std::size_t>(p)] * xj;
  }
  for (int j = n_ - 1; j >= 0; --j) {  // U: pivot stored last per column
    const T xj = (w[static_cast<std::size_t>(j)] /=
                  ux_[static_cast<std::size_t>(up_[j + 1]) - 1]);
    if (xj == T{}) continue;
    for (int p = up_[j]; p < up_[j + 1] - 1; ++p)
      w[static_cast<std::size_t>(ui_[p])] -= ux_[static_cast<std::size_t>(p)] * xj;
  }

  for (int j = 0; j < n_; ++j)
    x[static_cast<std::size_t>(perm_[j])] = w[static_cast<std::size_t>(j)];
}

template class SparseLu<double>;
template class SparseLu<std::complex<double>>;

// ----------------------------------------------------------- symbolic reuse

bool same_structure(const SparsePattern& a, const SparsePattern& b) {
  return &a == &b ||
         (a.n == b.n && a.row_ptr == b.row_ptr && a.col_idx == b.col_idx);
}

RealSparseLu factor_reusing(const RealSparse& a, SymbolicRecord* record,
                            SymbolicRecord* local) {
  if (local && local->symbolic) record = local;  // a later factorization
  if (record && record->symbolic && !same_structure(*record->pattern, a.pattern())) {
    OBS_COUNTER_ADD("reuse.mismatch", 1);
    record = nullptr;  // factor fresh; the record stays as it was
  }

  if (record && record->symbolic) {
    RealSparseLu lu(*record->symbolic);  // copy the factors: reuse the symbolic
    lu.refactor(a);
    if (record != local) {
      ++record->hits;
      OBS_COUNTER_ADD("reuse.hits", 1);
      if (local) *local = {a.pattern_ptr(), record->symbolic};
    }
    return lu;
  }

  OBS_COUNTER_ADD("reuse.misses", 1);
  RealSparseLu lu(a);
  if (record || local) {
    const SymbolicRecord seeded{a.pattern_ptr(),
                                std::make_shared<const RealSparseLu>(lu)};
    if (record) *record = seeded;
    if (local) *local = seeded;
  }
  return lu;
}

}  // namespace rlcsim::numeric
