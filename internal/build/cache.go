package build

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"sync"

	"repro/internal/cas"
	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/image"
)

// Cache is the per-instruction build cache. Keys are content-addressed
// chains: each instruction's key folds in the full prefix of the build —
// base image, force mode, filter configuration, the apt-workaround flag,
// every earlier instruction, the digests of COPY sources and the chain
// digest of a COPY --from source image — so editing a mid-Dockerfile step
// invalidates that step and everything after it (editing an earlier stage
// invalidates its dependents' COPY --from steps), while leaving earlier
// steps warm.
//
// A hit replays the recorded filesystem layer instead of executing the
// instruction; the expensive RUNs (package installs under emulation) are
// skipped entirely on warm rebuilds.
//
// The cache is safe for concurrent builders (build.Pool) and deduplicates
// in-flight work: when two builders miss on the same key at the same
// time, exactly one executes the instruction; the other blocks until the
// result is recorded and then replays it as an ordinary hit, so the
// expensive step runs once however many builders race on it.
// A persistent cache (NewPersistentCache) is additionally backed by a
// cas.Dir: completed steps write through to the journal and blob store,
// and the journal's records rehydrate lazily — a key recorded by an
// earlier process costs one digest-verified blob read on first hit, and
// nothing at all if the build never reaches it.
type Cache struct {
	// dir is set once at construction (nil for a purely in-memory
	// cache) and never reassigned, so it lives above mu: loadStep reads
	// it without the lock while leading the key's flight.
	dir *cas.Dir

	mu      sync.Mutex
	entries map[string]cacheEntry
	flights flight.Group[cacheEntry]
	hits    int
	misses  int

	lazy        map[string]cas.Step // persisted entries not yet loaded
	persistErrs cas.Failures        // write-through failures
}

// cacheEntry is one completed instruction: the packed layer it produced
// (nil if it changed nothing), the layer's digest, which every replay
// checks the bytes against, and the apt-workaround rewrites it counted.
type cacheEntry struct {
	layer    []byte
	digest   string
	modified int
}

// errAbandoned ends a fill whose step failed: its waiters retry, and one
// of them becomes the next filler.
var errAbandoned = errors.New("build: step fill abandoned")

// NewCache creates an empty instruction cache.
func NewCache() *Cache {
	return &Cache{entries: map[string]cacheEntry{}}
}

// NewPersistentCache creates an instruction cache backed by an open
// cas.Dir: every entry the Dir's journal holds is available (rehydrated
// lazily on first hit), and every step completed through this cache is
// persisted for the next invocation. Share one persistent cache across
// the builds of a process exactly like an in-memory one; it is equally
// safe under build.Pool.
func NewPersistentCache(d *cas.Dir) *Cache {
	c := NewCache()
	c.dir = d
	c.lazy = map[string]cas.Step{}
	for _, st := range d.Steps() {
		c.lazy[st.Key] = st
	}
	return c
}

// PersistErrs returns every recorded write-through failure (a copy),
// plus a trailing summary entry when failures past the cap were dropped;
// empty when every completed step reached the backing store. A failure
// leaves the on-disk cache colder, never wrong.
func (c *Cache) PersistErrs() []error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.persistErrs.List()
}

// loadStep reads a persisted entry's layer blob (digest-verified by the
// Dir on the way out). Called WITHOUT c.mu held — this is disk I/O, and
// the loading goroutine leads the key's flight instead, so other builders
// only wait on it for this key, never for the whole cache. A blob that
// fails verification was quarantined by the Dir; the entry is dropped and
// the step re-executes as an ordinary miss.
func (c *Cache) loadStep(ctx context.Context, st cas.Step) (cacheEntry, error) {
	ent := cacheEntry{digest: st.Layer, modified: st.Modified}
	if st.Layer == "" {
		return ent, nil
	}
	err := cas.DefaultRetry.Do(ctx, func() error {
		var rerr error
		ent.layer, rerr = c.dir.Blob(ctx, st.Layer)
		return rerr
	})
	return ent, err
}

// Stats reports lifetime hit/miss totals of the counted steps (RUN, COPY
// and ADD; WORKDIR is cached but never counted) across all builds sharing
// the cache. Every replay — direct or after waiting out another builder's
// in-flight execution — counts one hit; every fill counts one miss, so
// hits+misses equals the counted steps attempted and hits equals the sum
// of Result.CacheHits across the sharing builds.
func (c *Cache) Stats() (hits, misses int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Len reports the number of cached instructions, including persisted
// entries not yet rehydrated.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries) + len(c.lazy)
}

// getOrBegin is the single entry point for a builder reaching a cached
// step. On a hit, ent is the recorded step; replay it. On a miss the
// caller owns the execution and MUST finish with either complete
// (success) or abandon (failure). It counts nothing: a counted step
// reports its outcome through count.
//
// A caller that finds the key in flight blocks until the filler finishes;
// a completed fill returns as a hit, an abandoned one loops and contends
// to become the next filler.
func (c *Cache) getOrBegin(ctx context.Context, key string) (ent cacheEntry, hit bool) {
	for {
		c.mu.Lock()
		if ent, ok := c.entries[key]; ok {
			c.mu.Unlock()
			return ent, true
		}
		f, leader := c.flights.Join(key)
		if !leader {
			c.mu.Unlock()
			if ent, err := f.Wait(); err == nil {
				return ent, true
			}
			continue // abandoned or failed to load: contend for the fill
		}
		st, lazy := c.lazy[key]
		if !lazy {
			c.mu.Unlock()
			return cacheEntry{}, false
		}
		// Rehydrate a persisted entry. The blob read happens outside the
		// lock while leading this key's flight: concurrent builders on the
		// same key wait and replay, everyone else proceeds. Corrupt on disk,
		// the waiters wake with the error and contend for an ordinary fill.
		delete(c.lazy, key)
		c.mu.Unlock()
		ent, err := c.loadStep(ctx, st)
		c.mu.Lock()
		if err == nil {
			c.entries[key] = ent
		}
		c.flights.Finish(key, ent, err)
		c.mu.Unlock()
		if err == nil {
			return ent, true
		}
	}
}

// count records one counted step's getOrBegin outcome in Stats and the
// cache counters.
func (c *Cache) count(hit bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if hit {
		c.hits++
		mCacheHits.Inc()
	} else {
		c.misses++
		mCacheMisses.Inc()
	}
}

// complete records a finished step and releases any builders waiting on
// it. The layer bytes are copied in: entries are shared across builds and
// must stay immutable however callers treat the slices they recorded. A
// persistent cache also writes the step through to its backing store; a
// write-through failure is parked in PersistErrs, never surfaced to the
// build.
func (c *Cache) complete(ctx context.Context, key string, ent cacheEntry) {
	if ent.layer != nil {
		ent.layer = append([]byte(nil), ent.layer...)
	}
	c.mu.Lock()
	c.entries[key] = ent
	c.flights.Finish(key, ent, nil)
	c.mu.Unlock()
	if c.dir != nil {
		err := cas.DefaultRetry.Do(ctx, func() error {
			return c.dir.PutStep(ctx, key, cas.Layer{Digest: ent.digest, Data: ent.layer}, ent.modified)
		})
		c.mu.Lock()
		c.persistErrs.Add(err)
		c.mu.Unlock()
	}
}

// abandon gives up a fill obtained from getOrBegin — the step failed, so
// there is nothing to record. Waiters wake and retry.
func (c *Cache) abandon(key string) {
	c.mu.Lock()
	c.flights.Finish(key, cacheEntry{}, errAbandoned)
	c.mu.Unlock()
}

// chain folds a step descriptor into a running content-addressed key.
//
//chlint:keyroot
func chain(prev, desc string) string {
	h := sha256.Sum256([]byte(prev + "\x1f" + desc))
	return hex.EncodeToString(h[:])
}

// chainStart seeds the key chain with everything that shapes a build
// before its first instruction runs: the base image's identity *and
// content* (its layer digests — retagging different bytes under the same
// name must not replay stale layers), plus every option that changes
// execution.
//
//chlint:keyroot
func chainStart(base *image.Image, distro string, opt Options) string {
	parts := []string{
		"base=" + base.Name,
		"distro=" + distro,
		"force=" + opt.Force.String(),
		fmt.Sprintf("apt-workaround-disabled=%v", opt.DisableAptWorkaround),
		"filter=" + filterKey(opt.FilterConfig),
	}
	for _, l := range base.Layers {
		parts = append(parts, "layer="+l.Digest)
	}
	return chain("", strings.Join(parts, "\x1f"))
}

// filterKey renders a filter configuration deterministically (the struct
// holds arch pointers, so %v would not be stable).
//
//chlint:keyroot
func filterKey(cfg core.Config) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s/%s/errno=%d/idnotif=%v/killarch=%v",
		cfg.Variant, cfg.Strategy, cfg.FakeErrno, cfg.IDConsistency, cfg.KillUnknownArch)
	for _, a := range cfg.Arches {
		b.WriteString("/" + a.Name)
	}
	return b.String()
}
