package cas

import (
	"context"
	"fmt"
	"os"
	"sort"
)

// GCStats reports what a garbage collection swept, evicted and kept.
type GCStats struct {
	TagsKept     int   // roots the mark phase started from
	BlobsKept    int   // blob files still present after the collection
	BlobsSwept   int   // blob files deleted
	BytesSwept   int64 // bytes freed by deleted blobs
	BytesKept    int64 // bytes still on disk after the collection
	StepsDropped int   // instruction-cache entries removed
}

// Budget parameterises GC.
type Budget struct {
	// MaxBytes bounds the blob store. GC evicts the least-recently-
	// recorded unpinned steps — journal order, oldest first — until the
	// blob bytes fit the budget, keeping every other record (warm cache
	// entries for untagged intermediates included). Tag records and the
	// layers they reference are pins: they are never evicted, so a budget
	// smaller than the pinned bytes is reported via GCStats.BytesKept
	// rather than enforced. MaxBytes <= 0 is a budget of nothing: every
	// unpinned step and every blob no tag reaches goes.
	MaxBytes int64
}

// GC collects garbage under the exclusive store lock (failing with
// ErrBusy if another process keeps the store open past the lock wait),
// then compacts the journal to exactly the surviving records.
//
// Blobs referenced by no record go first, then steps are evicted as
// Budget describes. With a zero Budget only the tagged roots survive: a
// blob survives iff some remaining tag's layer chain references it, and
// an instruction-cache entry with a layer survives iff that layer blob
// survives. On an empty store GC is a no-op.
//
// Steps that recorded no layer carry no reachability information and are
// always kept; they cost one journal line each and nothing in the blob
// store. GC holds the Dir lock throughout, and the Put* writers hold it
// across their blob-write + journal-append pairs, so a sweep never runs
// between a blob landing and the record that references it. The store
// lock extends the same guarantee across processes.
func (d *Dir) GC(ctx context.Context, b Budget) (GCStats, error) {
	if err := ctxErr(ctx); err != nil {
		return GCStats{}, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return GCStats{}, errClosed
	}
	if err := d.failpoint(OpLock); err != nil {
		return GCStats{}, fmt.Errorf("cas: gc: %w", err)
	}
	if err := d.lock.exclusive(ctx, d.lockWait); err != nil {
		return GCStats{}, err
	}
	// Exclusive conversion may have waited behind other writers (and
	// briefly released our shared hold): replay the journal as it stands
	// now, or the compaction below would clobber their records.
	var stats GCStats
	_, err := d.loadLocked()
	if err == nil {
		stats, err = d.gcBudgetLocked(b)
	}
	if err == nil {
		err = d.writeCompactJournalLocked()
	}
	if serr := d.lock.shared(); err == nil {
		err = serr
	}
	if err == nil {
		mGCSweptBlobs.Add(uint64(stats.BlobsSwept))
		mGCSweptBytes.Add(uint64(stats.BytesSwept))
	}
	return stats, err
}

// gcBudgetLocked keeps the cache as warm as the budget allows. Blobs
// referenced by no record at all are garbage under any budget and go
// first; then the least-recently-recorded steps are evicted — with the
// blobs only they referenced — until the store fits. Callers hold d.mu and
// the exclusive store lock.
func (d *Dir) gcBudgetLocked(b Budget) (GCStats, error) {
	var stats GCStats
	stats.TagsKept = len(d.tags)

	// Pins and reference counts: steps may share a layer, and evicting
	// one must not delete a blob a surviving step still lists, or that
	// record would dangle and read as damage at the next open.
	pinned := map[string]bool{}
	for _, tg := range d.tags {
		for _, l := range tg.Layers {
			pinned[l] = true
		}
	}
	ref := map[string]int{}
	for _, st := range d.steps {
		if st.Layer != "" {
			ref[st.Layer]++
		}
	}

	// Sweep unreferenced blobs; size the referenced ones.
	sizes := map[string]int64{}
	var total int64
	var sweepErr error
	d.walkBlobs(func(digest, p string, ent os.DirEntry) {
		if sweepErr != nil {
			return
		}
		size := int64(0)
		if info, err := ent.Info(); err == nil {
			size = info.Size()
		}
		if !pinned[digest] && ref[digest] == 0 {
			if err := os.Remove(p); err != nil {
				sweepErr = fmt.Errorf("cas: gc: %w", err)
				return
			}
			stats.BlobsSwept++
			stats.BytesSwept += size
			return
		}
		sizes[digest] = size
		total += size
	})
	if sweepErr != nil {
		return stats, sweepErr
	}
	blobsKept := len(sizes)

	// Evict in journal order, oldest record first. Steps whose layer a
	// tag pins are skipped: evicting them frees no bytes and only makes
	// the cache colder, and steps with no layer likewise cost nothing.
	var victims []string
	for key, st := range d.steps {
		if st.Layer != "" && !pinned[st.Layer] {
			victims = append(victims, key)
		}
	}
	sort.Slice(victims, func(i, j int) bool { return d.order[victims[i]] < d.order[victims[j]] })
	for _, key := range victims {
		if b.MaxBytes > 0 && total <= b.MaxBytes {
			break
		}
		st := d.steps[key]
		delete(d.steps, key)
		delete(d.order, key)
		stats.StepsDropped++
		// The layer blob goes once no surviving step holds it.
		ref[st.Layer]--
		if ref[st.Layer] > 0 {
			continue
		}
		p, err := d.blobPath(st.Layer)
		if err != nil {
			continue // malformed digest in an old record: nothing on disk
		}
		if err := os.Remove(p); err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return stats, fmt.Errorf("cas: gc: %w", err)
		}
		total -= sizes[st.Layer]
		blobsKept--
		stats.BlobsSwept++
		stats.BytesSwept += sizes[st.Layer]
	}
	stats.BlobsKept = blobsKept
	stats.BytesKept = total
	return stats, nil
}
