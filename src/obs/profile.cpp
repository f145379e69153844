#include "obs/profile.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace spectra::obs {

namespace detail {

// One node of a thread's timing tree. Nodes are created on first entry
// and leaked (threads may outlive main during shutdown; report code may
// walk a tree while its owner is still recording).
struct ProfileNode {
  const char* name = nullptr;
  ProfileNode* parent = nullptr;
  std::vector<ProfileNode*> children;
  std::uint64_t calls = 0;
  std::uint64_t incl_ns = 0;
  double flops = 0.0;
  double bytes = 0.0;
};

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace detail

namespace {

using detail::ProfileNode;
using detail::steady_now_ns;

// Per-thread tree. Mutations come only from the owning thread; the mutex
// exists so report/reset can read from other threads. Uncontended in the
// hot path (same discipline as the trace buffers).
struct ThreadTree {
  Mutex mutex SG_ACQUIRED_AFTER(lock_order::obs)
      SG_ACQUIRED_BEFORE(lock_order::fft_cache);
  ProfileNode root SG_GUARDED_BY(mutex);
  ProfileNode* current SG_GUARDED_BY(mutex) = &root;
  // Subtrees profile_reset detached from root. Open scopes may still
  // point into them, so they stay allocated, and reachable from here.
  std::vector<ProfileNode*> detached SG_GUARDED_BY(mutex);
};

struct ProfileState {
  Mutex mutex SG_ACQUIRED_AFTER(lock_order::obs)
      SG_ACQUIRED_BEFORE(lock_order::fft_cache);
  std::vector<ThreadTree*> trees SG_GUARDED_BY(mutex);  // leaked; one per thread ever seen
  // Wall-clock origin of the report in steady-clock nanoseconds.
  // Atomic, not guarded: profile_reset rewrites it while a report on
  // another thread may read it.
  std::atomic<std::int64_t> origin_ns{steady_now_ns()};
};

ProfileState& state() {
  // sg-lint: allow(mutable-static) leaked profiler singleton: worker threads may still record during exit
  static ProfileState* s = new ProfileState();
  return *s;
}

ThreadTree& thread_tree() {
  // sg-lint: allow(mutable-static) per-thread profile tree, leaked so report can walk it after thread exit
  thread_local ThreadTree* tree = [] {
    auto* t = new ThreadTree();
    ProfileState& s = state();
    MutexLock lock(s.mutex);
    s.trees.push_back(t);
    return t;
  }();
  return *tree;
}

// --- merged report tree -------------------------------------------------

// Aggregate of same-path nodes across threads.
struct MergedNode {
  const char* name = nullptr;
  std::uint64_t calls = 0;
  std::uint64_t incl_ns = 0;
  double flops = 0.0;
  double bytes = 0.0;
  std::vector<MergedNode> children;
};

MergedNode& merged_child(MergedNode& parent, const char* name) {
  for (MergedNode& child : parent.children) {
    if (child.name == name || std::strcmp(child.name, name) == 0) return child;
  }
  parent.children.emplace_back();
  parent.children.back().name = name;
  return parent.children.back();
}

// `tree->mutex` must be held by the caller for the root of the walk.
void merge_into(MergedNode& dst, const ProfileNode& src) {
  dst.calls += src.calls;
  dst.incl_ns += src.incl_ns;
  dst.flops += src.flops;
  dst.bytes += src.bytes;
  for (const ProfileNode* child : src.children) {
    merge_into(merged_child(dst, child->name), *child);
  }
}

// Snapshot every thread's tree into one merged root (name == nullptr).
MergedNode merged_snapshot() {
  MergedNode root;
  ProfileState& s = state();
  MutexLock registry_lock(s.mutex);
  for (ThreadTree* tree : s.trees) {
    MutexLock lock(tree->mutex);
    merge_into(root, tree->root);
  }
  return root;
}

std::uint64_t children_incl_ns(const MergedNode& node) {
  std::uint64_t total = 0;
  for (const MergedNode& child : node.children) total += child.incl_ns;
  return total;
}

// Exclusive time: inclusive minus children's inclusive (clamped — a
// child's open scope can momentarily exceed its parent's recorded time).
std::uint64_t excl_ns(const MergedNode& node) {
  const std::uint64_t children = children_incl_ns(node);
  return node.incl_ns > children ? node.incl_ns - children : 0;
}

void format_text(const MergedNode& node, int depth, std::ostringstream& out) {
  const double incl_s = static_cast<double>(node.incl_ns) * 1e-9;
  char row[256];
  std::string label(static_cast<std::size_t>(2 * depth), ' ');
  label += node.name;
  std::snprintf(row, sizeof(row), "%-42s %9llu %11.6f %11.6f", label.c_str(),
                static_cast<unsigned long long>(node.calls),
                incl_s, static_cast<double>(excl_ns(node)) * 1e-9);
  out << row;
  if (node.flops > 0.0) {
    std::snprintf(row, sizeof(row), " %9.3f", incl_s > 0.0 ? node.flops / incl_s * 1e-9 : 0.0);
    out << row;
    if (node.bytes > 0.0) {
      std::snprintf(row, sizeof(row), " %8.2f", node.flops / node.bytes);
      out << row;
    }
  }
  out << '\n';
  for (const MergedNode& child : node.children) format_text(child, depth + 1, out);
}

void format_json(const MergedNode& node, std::ostringstream& out) {
  const double incl_s = static_cast<double>(node.incl_ns) * 1e-9;
  out << "{\"name\":\"" << json_escape(node.name) << "\",\"calls\":" << node.calls
      << ",\"incl_seconds\":" << incl_s
      << ",\"excl_seconds\":" << static_cast<double>(excl_ns(node)) * 1e-9
      << ",\"flops\":" << node.flops << ",\"bytes\":" << node.bytes;
  if (node.flops > 0.0 && incl_s > 0.0) {
    out << ",\"gflops\":" << node.flops / incl_s * 1e-9;
  }
  out << ",\"children\":[";
  for (std::size_t i = 0; i < node.children.size(); ++i) {
    if (i != 0) out << ',';
    format_json(node.children[i], out);
  }
  out << "]}";
}

double wall_seconds() {
  const std::int64_t elapsed_ns =
      steady_now_ns() - state().origin_ns.load(std::memory_order_relaxed);
  return static_cast<double>(elapsed_ns) * 1e-9;
}

// Descend into (find-or-create) the named child of the calling thread's
// current node and make it current.
ProfileNode* enter_node(const char* name) {
  ThreadTree& tree = thread_tree();
  MutexLock lock(tree.mutex);
  ProfileNode* parent = tree.current;
  for (ProfileNode* child : parent->children) {
    // String literals make pointer identity the common case; the strcmp
    // covers the same name spelled in two translation units.
    if (child->name == name || std::strcmp(child->name, name) == 0) {
      tree.current = child;
      return child;
    }
  }
  auto* node = new ProfileNode();  // leaked with the tree
  node->name = name;
  node->parent = parent;
  parent->children.push_back(node);
  tree.current = node;
  return node;
}

// Record one call of `elapsed_ns` into `node` and pop back to its parent.
void exit_node(ProfileNode* node, std::int64_t elapsed_ns) {
  ThreadTree& tree = thread_tree();
  MutexLock lock(tree.mutex);
  node->calls += 1;
  node->incl_ns += static_cast<std::uint64_t>(elapsed_ns);
  // Pop to the scope's own parent (not current->parent) so an exit after
  // profile_reset or mismatched nesting cannot walk off the tree.
  tree.current = node->parent != nullptr ? node->parent : &tree.root;
}

}  // namespace

namespace detail {

std::atomic<unsigned> g_probes{0};

void set_probe(unsigned bit, bool enabled) {
  if (enabled) {
    g_probes.fetch_or(bit, std::memory_order_relaxed);
  } else {
    g_probes.fetch_and(~bit, std::memory_order_relaxed);
  }
}

}  // namespace detail

void profile_set_enabled(bool enabled) { detail::set_probe(detail::kProfileBit, enabled); }

void ProfileScope::open(const char* name, unsigned probes) {
  name_ = name;
  trace_ = (probes & detail::kTraceBit) != 0;
  if ((probes & detail::kProfileBit) != 0) node_ = enter_node(name);
  start_ns_ = steady_now_ns();
}

void ProfileScope::close() {
  const std::int64_t end_ns = steady_now_ns();
  if (node_ != nullptr) exit_node(node_, end_ns - start_ns_);
  if (trace_) detail::trace_record(name_, start_ns_, end_ns);
}

void profile_add_work(double flops, double bytes) {
  if (!profile_enabled()) return;
  ThreadTree& tree = thread_tree();
  MutexLock lock(tree.mutex);
  if (tree.current == &tree.root) return;  // no open scope on this thread
  tree.current->flops += flops;
  tree.current->bytes += bytes;
}

std::string profile_report_text() {
  const MergedNode root = merged_snapshot();
  std::ostringstream out;
  char row[256];
  std::snprintf(row, sizeof(row), "# profile tree — wall %.6f s\n%-42s %9s %11s %11s %9s %8s\n",
                wall_seconds(), "scope", "calls", "incl(s)", "excl(s)", "GFLOP/s", "f/B");
  out << row;
  for (const MergedNode& child : root.children) format_text(child, 0, out);
  return out.str();
}

std::string profile_report_json() {
  const MergedNode root = merged_snapshot();
  std::ostringstream out;
  out << "{\"wall_seconds\":" << wall_seconds() << ",\"tree\":[";
  for (std::size_t i = 0; i < root.children.size(); ++i) {
    if (i != 0) out << ',';
    format_json(root.children[i], out);
  }
  out << "]}";
  return out.str();
}

void profile_dump(const std::string& path) {
  std::ofstream out(path);
  if (!out) return;
  out << profile_report_json() << '\n';
}

void profile_reset() {
  ProfileState& s = state();
  {
    MutexLock registry_lock(s.mutex);
    for (ThreadTree* tree : s.trees) {
      MutexLock lock(tree->mutex);
      // Children stay allocated (scopes may hold pointers); detach them
      // from the tree but keep them reachable.
      tree->detached.insert(tree->detached.end(), tree->root.children.begin(),
                            tree->root.children.end());
      tree->root.children.clear();
      tree->current = &tree->root;
    }
  }
  s.origin_ns.store(steady_now_ns(), std::memory_order_relaxed);
}

}  // namespace spectra::obs
