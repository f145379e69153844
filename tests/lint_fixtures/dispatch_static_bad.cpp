// Fixture: MUST trigger [mutable-static] — the dispatch allowlist entry
// covers exactly `g_active`, so any other mutable static smuggled into
// the dispatch TU still fires. Linted as-if at src/util/simd.cpp.

namespace spectra {

int select_level();

int rogue_level() {
  static int g_rogue = -1;  // rule: mutable-static (not the audited name)
  if (g_rogue < 0) g_rogue = select_level();
  return g_rogue;
}

}  // namespace spectra
