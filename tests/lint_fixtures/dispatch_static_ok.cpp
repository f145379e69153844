// Clean twin of dispatch_static_bad.cpp: the one-time dispatch-level
// selection cell is on the audited allowlist under exactly this file and
// identifier (src/util/simd.cpp:g_active). Linted as-if at
// src/util/simd.cpp.

namespace std {
template <typename T>
struct atomic {
  T load(int) const;
  void store(T, int);
};
}  // namespace std

namespace spectra {

int select_level();

int active_level() {
  static std::atomic<int> g_active{-1};  // allowlisted dispatch selection
  int level = g_active.load(0);
  if (level < 0) {
    level = select_level();
    g_active.store(level, 0);
  }
  return level;
}

}  // namespace spectra
