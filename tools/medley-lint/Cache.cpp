//===-- tools/medley-lint/Cache.cpp - Incremental result cache -----------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "medley-lint/Cache.h"
#include "medley-lint/Internal.h"

#include <fstream>
#include <sstream>

using namespace medley::lint;

namespace {

/// Bump on any format change: a mismatch simply makes the next run
/// cold. Rule-semantics changes are covered by the fingerprint field
/// next to it (cacheFingerprint), so forgetting a manual bump cannot
/// serve stale reports.
const char *const CacheHeader = "medley-lint-cache 4";

bool parseU64(const std::string &S, unsigned long long &Out) {
  if (S.empty())
    return false;
  Out = 0;
  for (char C : S) {
    if (C < '0' || C > '9')
      return false;
    unsigned long long Next = Out * 10 + static_cast<unsigned long long>(C - '0');
    if (Next < Out)
      return false;
    Out = Next;
  }
  return true;
}

/// True when \p Pos starts an `F` line or is the end of \p Data: where
/// an index blob of the right length must end.
bool atEntryBoundary(const std::string &Data, size_t Pos) {
  if (Pos == 0 || Pos > Data.size() || Data[Pos - 1] != '\n')
    return false;
  return Pos == Data.size() || Data.compare(Pos, 2, "F\t") == 0;
}

} // namespace

unsigned long long medley::lint::fnv1aHash(const std::string &Data) {
  unsigned long long H = 1469598103934665603ULL;
  for (char C : Data) {
    H ^= static_cast<unsigned char>(C);
    H *= 1099511628211ULL;
  }
  return H;
}

unsigned long long medley::lint::cacheFingerprint(const std::string &Salt) {
  std::string Ident = AnalyzerVersion;
  for (const RuleMeta &M : ruleCatalog()) {
    Ident += '\n';
    Ident += M.Id;
    Ident += '\t';
    Ident += M.Name;
    Ident += '\t';
    Ident += M.Short;
  }
  Ident += '\n';
  Ident += Salt;
  return fnv1aHash(Ident);
}

void LintCache::load(const std::string &Path) {
  Entries.clear();
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  std::string Data = Buf.str();

  size_t Pos = 0;
  std::vector<std::string> F;
  if (!readTsvLine(Data, Pos, F) || F.size() != 2 || F[0] != CacheHeader ||
      F[1] != std::to_string(Fingerprint))
    return;
  while (Pos < Data.size()) {
    if (!readTsvLine(Data, Pos, F) || F.size() != 5 || F[0] != "F") {
      Entries.clear();
      return;
    }
    std::string FilePath = F[1];
    Stored E;
    unsigned NumFindings = 0;
    unsigned long long IndexBytes = 0;
    if (!parseU64(F[2], E.Hash) || !parseUnsignedField(F[3], NumFindings) ||
        !parseU64(F[4], IndexBytes)) {
      Entries.clear();
      return;
    }
    for (unsigned I = 0; I < NumFindings; ++I) {
      Finding G;
      if (!readTsvLine(Data, Pos, F) || F.size() != 7 || F[0] != "g" ||
          !parseUnsignedField(F[2], G.Line) ||
          !parseUnsignedField(F[3], G.Col)) {
        Entries.clear();
        return;
      }
      G.File = F[1];
      G.Rule = F[4];
      G.Message = F[5];
      G.SourceLine = F[6];
      E.TokenFindings.push_back(std::move(G));
    }
    // Slice the index text out unparsed; lookup() parses it on a hit.
    if (Pos <= Data.size() && IndexBytes <= Data.size() - Pos &&
        atEntryBoundary(Data, Pos + IndexBytes)) {
      E.Index.assign(Data, Pos, IndexBytes);
      Pos += IndexBytes;
    } else {
      // A wrong length: resume at the next F line so that only this
      // entry is lost. Its empty Index makes its lookup a miss.
      size_t Next = Data.find("\nF\t", Pos - 1);
      Pos = Next == std::string::npos ? Data.size() : Next + 1;
    }
    Entries[FilePath] = std::move(E);
  }
}

bool LintCache::lookup(const std::string &File, unsigned long long Hash,
                       CacheEntry &Out) const {
  auto It = Entries.find(File);
  if (It == Entries.end() || It->second.Hash != Hash)
    return false;
  const Stored &S = It->second;
  size_t Pos = 0;
  if (!deserializeFileIndex(S.Index, Pos, Out.Index) ||
      Pos != S.Index.size() || Out.Index.Path != File)
    return false;
  Out.Hash = S.Hash;
  Out.TokenFindings = S.TokenFindings;
  return true;
}

void LintCache::put(CacheEntry E) {
  Stored &S = Entries[E.Index.Path];
  S.Hash = E.Hash;
  S.TokenFindings = std::move(E.TokenFindings);
  S.Index = serializeFileIndex(E.Index);
}

bool LintCache::save(const std::string &Path) const {
  std::string Out;
  appendTsvLine(Out, {CacheHeader, std::to_string(Fingerprint)});
  for (const auto &[FilePath, E] : Entries) {
    appendTsvLine(Out, {"F", FilePath, std::to_string(E.Hash),
                        std::to_string(E.TokenFindings.size()),
                        std::to_string(E.Index.size())});
    for (const Finding &G : E.TokenFindings)
      appendTsvLine(Out, {"g", G.File, std::to_string(G.Line),
                          std::to_string(G.Col), G.Rule, G.Message,
                          G.SourceLine});
    Out += E.Index;
  }
  std::ofstream OS(Path, std::ios::binary | std::ios::trunc);
  if (!OS)
    return false;
  OS << Out;
  return static_cast<bool>(OS);
}
