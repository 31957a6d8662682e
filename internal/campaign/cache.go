package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"mptcpsim/internal/scenario"
)

// The result cache is content-addressed: a completed run is stored under
// the SHA-256 of everything its report is a function of — the cache schema
// version, the code version (the facade derives it from a hash of
// api.txt), and the canonical JSON encoding of the full scenario.Spec,
// which carries the scenario seed. The scenario layer guarantees a run is
// a pure function of (spec, seed) — the fuzzer re-runs every generated
// scenario and compares RunReport digests — so a hit can stand in for a
// simulation exactly. Reports round-trip through JSON bit-exactly (Go
// encodes float64 shortest-round-trip), so a warm re-run folds the
// identical samples and produces the byte-identical aggregate.
//
// Layout: <dir>/<key[:2]>/<key>.json, one atomic file per run (written to
// a temp name, then renamed), so concurrent workers — or concurrent
// campaigns sharing one directory — never observe a torn entry. Each entry
// also records the key it was written under, so a file that sits at
// another key's path — copied, misplaced or corrupted into valid JSON —
// cannot stand in for that key's run.

// cacheSchema versions the on-disk format; bump on layout changes so stale
// trees never parse as fresh results.
const cacheSchema = "mptcpsim-campaign-cache-v2"

// cacheEntry is the on-disk form of one cached run.
type cacheEntry struct {
	Key    string              `json:"key"`
	Report *scenario.RunReport `json:"report"`
}

// CacheKey returns the content address of one scenario run under the given
// code version: hex SHA-256 over the schema tag, the version, and the
// spec's canonical JSON (struct field order, so two equal specs always
// encode identically).
func CacheKey(version string, sp *scenario.Spec) (string, error) {
	data, err := json.Marshal(sp)
	if err != nil {
		return "", fmt.Errorf("campaign: encoding spec for cache key: %w", err)
	}
	h := sha256.New()
	h.Write([]byte(cacheSchema))
	h.Write([]byte{0})
	h.Write([]byte(version))
	h.Write([]byte{0})
	h.Write(data)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// cache is one on-disk result store rooted at dir.
type cache struct {
	dir string
}

// openCache prepares the cache root; a nil cache (empty dir) disables
// caching entirely.
func openCache(dir string) (*cache, error) {
	if dir == "" {
		return nil, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("campaign: opening result cache: %w", err)
	}
	return &cache{dir: dir}, nil
}

// path maps a key to its entry file.
func (c *cache) path(key string) string {
	return filepath.Join(c.dir, key[:2], key+".json")
}

// get loads the cached report for key. A missing, torn or stale-schema
// entry is a miss, never an error, and so is an entry recording a
// different key: the caller falls back to simulating and rewrites the
// entry.
func (c *cache) get(key string) (*scenario.RunReport, bool) {
	if c == nil {
		return nil, false
	}
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		return nil, false
	}
	var e cacheEntry
	if err := json.Unmarshal(data, &e); err != nil || e.Key != key || e.Report == nil {
		return nil, false
	}
	return e.Report, true
}

// put stores a completed run under key, atomically: the entry is fully
// written to a private temp file and renamed into place, so readers see
// either nothing or the whole report.
func (c *cache) put(key string, rep *scenario.RunReport) error {
	if c == nil {
		return nil
	}
	data, err := json.Marshal(cacheEntry{Key: key, Report: rep})
	if err != nil {
		return fmt.Errorf("campaign: encoding report for cache: %w", err)
	}
	dir := filepath.Dir(c.path(key))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("campaign: preparing cache shard: %w", err)
	}
	tmp, err := os.CreateTemp(dir, key+".tmp-*")
	if err != nil {
		return fmt.Errorf("campaign: writing cache entry: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("campaign: writing cache entry: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("campaign: writing cache entry: %w", err)
	}
	if err := os.Rename(tmp.Name(), c.path(key)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("campaign: committing cache entry: %w", err)
	}
	return nil
}
