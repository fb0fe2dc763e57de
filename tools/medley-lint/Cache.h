//===-- tools/medley-lint/Cache.h - Incremental result cache ----*- C++ -*-===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The incremental per-file cache (DESIGN.md §12): for every analyzed
/// file it stores the FNV-1a hash of the content, the post-suppression
/// token findings, and the serialized FileIndex. A warm run re-hashes
/// each file (cheap) and skips lexing/rule-running/indexing on a hit;
/// phase 2 always re-links, so interprocedural results stay correct
/// when *other* files changed. load() only slices each index's text out
/// of the file (its byte length is on the entry's `F` line); lookup()
/// deserializes it on a hit, inside the phase-1 worker, so a warm run
/// pays for parsing in parallel and only for the files it serves. A
/// blob that does not parse, or names another path, is a miss for that
/// file alone. The cache file is rewritten wholesale only when a file
/// missed or an entry aged out (which prunes entries for deleted
/// files); an all-hit run leaves it untouched. A version header
/// invalidates everything when the format or rule set moves.
///
//===----------------------------------------------------------------------===//

#ifndef MEDLEY_TOOLS_LINT_CACHE_H
#define MEDLEY_TOOLS_LINT_CACHE_H

#include "medley-lint/Index.h"

namespace medley::lint {

/// 64-bit FNV-1a over the raw bytes.
unsigned long long fnv1aHash(const std::string &Data);

/// The analyzer-identity fingerprint folded into the cache header:
/// FNV-1a over the analyzer version, the full rule catalog (ids, names,
/// descriptions) and \p Salt. Content hashes alone cannot invalidate a
/// warm cache when the *analyzer* changed — bumping any rule or the
/// serialization format changes this value and turns the next run cold.
unsigned long long cacheFingerprint(const std::string &Salt);

/// One cached file result.
struct CacheEntry {
  unsigned long long Hash = 0;
  std::vector<Finding> TokenFindings; ///< Post-allow single-file findings.
  FileIndex Index;
};

/// The cache as a whole. Thread-safety contract: lookup() is const and
/// safe to call concurrently once load() finished; put()/save() are
/// single-threaded (the driver calls them after the parallel phase).
class LintCache {
public:
  /// Sets the analyzer fingerprint checked by load() and written by
  /// save(). Call before load(); entries saved under a different
  /// fingerprint are ignored wholesale.
  void setFingerprint(unsigned long long F) { Fingerprint = F; }

  /// Reads \p Path; a missing, unreadable, version- or
  /// fingerprint-mismatched file, or a malformed `F`/`g` line, just
  /// leaves the cache empty (a cold run). Index blobs are not parsed
  /// here; one whose length field is wrong is kept as a miss.
  void load(const std::string &Path);

  /// On a hit (\p File present with matching \p Hash, and its index
  /// blob parses whole and names \p File) fills \p Out and returns
  /// true. On a miss \p Out is unspecified.
  bool lookup(const std::string &File, unsigned long long Hash,
              CacheEntry &Out) const;

  /// Inserts/replaces the entry for E.Index.Path.
  void put(CacheEntry E);

  /// Writes every entry, sorted by path. Returns false on IO error.
  bool save(const std::string &Path) const;

  size_t size() const { return Entries.size(); }

private:
  /// An entry as held between load() and lookup(): the index stays in
  /// its serialized form until a hit asks for it.
  struct Stored {
    unsigned long long Hash = 0;
    std::vector<Finding> TokenFindings;
    std::string Index; ///< serializeFileIndex() text; empty if unusable.
  };
  std::map<std::string, Stored> Entries;
  unsigned long long Fingerprint = 0;
};

} // namespace medley::lint

#endif // MEDLEY_TOOLS_LINT_CACHE_H
